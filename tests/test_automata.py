"""Automata: run/matrix agreement, infinitary strategies against oracles,
converters, compilation and elimination."""

import math
import random

import pytest

import oracles
from omegalg import automata as A, core, ratexpr as rx, valuation as V
from omegalg.instances import INF, NEG_INF, make_instance
from omegalg.series import OmegaWord

AB = ("a", "b")


@pytest.fixture(scope="module")
def boolw():
    return V.from_carrier(make_instance("bool"))


@pytest.fixture(scope="module")
def natw():
    return V.from_carrier(make_instance("nat"))


@pytest.fixture(scope="module")
def disc():
    return V.make_valuation_instance("disc", lam=0.5)


def test_finitary_rejects_empty_word(boolw):
    aut = A.compile(rx.parse("a^+"), boolw, AB)
    with pytest.raises(ValueError):
        A.finitary_coeff(aut, "")


def test_parallel_transitions_add(natw):
    aut = A.MatrixAutomaton(natw, AB, 2, 0, (1, 0), (0, 1),
                            ((0, "a", 1, 1), (0, "a", 1, 1)))
    assert A.finitary_coeff(aut, "a") == 2


def test_disc_single_state_loop(disc):
    aut = A.MatrixAutomaton(disc, ("a",), 1, 1, (1,), (1,), ((0, "a", 0, 1.0),))
    assert abs(A.finitary_coeff(aut, "aa") - 1.5) < 1e-12
    assert abs(A.infinitary_coeff(aut, OmegaWord("", "a")) - 2.0) < 1e-6


def test_singleton_no_transitions(boolw):
    aut = A.MatrixAutomaton(boolw, AB, 1, 0, (1,), (1,), ())
    assert A.finitary_coeff(aut, "a") is False


def test_empty_initials_zero_behavior(boolw):
    aut = A.compile(rx.parse("ab"), boolw, AB)
    dead = A.MatrixAutomaton(boolw, AB, aut.n, aut.k, (0,) * aut.n, aut.beta, aut.edges)
    assert A.finitary_coeff(dead, "ab") is False


def test_run_matrix_agreement(boolw, natw, disc):
    rng = random.Random(77)
    for inst in (boolw, natw, disc):
        for _ in range(12):
            e = rx.random_expr(rng, 3)
            aut = A.compile(e, inst, AB)
            for w in ("a", "ab", "ba", "aab", "abab", "babab", "aabbaa"):
                lhs = A.finitary_coeff(aut, w)
                rhs = oracles.finitary_coeff_matrix(aut, w)
                assert inst.eq(lhs, rhs), (inst.name, rx.to_text(e), w, lhs, rhs)


def test_matrix_coefficient_on_a_long_word(natw):
    aut = A.compile(rx.parse("((a+b)^+)^+"), natw, AB)
    word = "ab" * 15
    assert oracles.finitary_coeff_matrix(aut, word) == A.finitary_coeff(aut, word) == 2 ** 29


def test_batch_matches_pointwise(natw):
    rng = random.Random(78)
    for _ in range(10):
        e = rx.random_expr(rng, 3)
        aut = A.compile(e, natw, AB)
        table = A.batch_finitary(aut, 5)
        for w in core.words_up_to(AB, 5):
            if w:
                assert table.get(w, 0) == A.finitary_coeff(aut, w)


def _factors(word):
    return {word[i:j] for i in range(len(word)) for j in range(i + 1, len(word) + 1)}


@pytest.mark.parametrize("name", ["nat", "disc", "limsup-avg"])
def test_finitary_series_matches_runs(name):
    """The behavior as a series (bound 8) agrees with the per-word run on
    every word up to length 10, on every factor of words past the bound,
    and on a 200-letter word."""
    inst = V.make_valuation_instance(name)
    rng = random.Random(97)
    exprs = [rx.parse("((a + 2b)(a + b)^+)^+")] + [rx.random_expr(rng, 4) for _ in range(3)]
    long_word = "".join(rng.choice(AB) for _ in range(200))
    words = [w for w in core.words_up_to(AB, 10) if w]
    nonzero = 0
    for e in exprs:
        aut = A.compile(e, inst, AB)
        s = A.finitary_series(aut)
        for w in words:
            assert inst.eq(s.coeff(w), A.finitary_coeff(aut, w)), (rx.to_text(e), w)
        for w in ("abbabaabbab", long_word[:13]):
            for u in _factors(w):
                assert inst.eq(s.coeff(u), A.finitary_coeff(aut, u)), (rx.to_text(e), w, u)
        want = A.finitary_coeff(aut, long_word)
        assert inst.eq(s.coeff(long_word), want), rx.to_text(e)
        nonzero += not inst.eq(want, inst.zero)
    assert nonzero


def test_matrix_run_conversion_round_trip(natw):
    rng = random.Random(79)
    for _ in range(10):
        e = rx.random_expr(rng, 3)
        aut = A.compile(e, natw, AB)
        parts = oracles.to_run_automata(aut)
        for w in core.words_up_to(AB, 5):
            if not w:
                continue
            total = natw.zero
            for part in parts:
                total = natw.add(total, A.finitary_coeff(part, w))
            assert total == A.finitary_coeff(aut, w)


def test_conversion_preserves_infinitary_behavior(boolw):
    rng = random.Random(80)
    lassos = [OmegaWord(u, v) for u in ("", "a", "ab", "bab")
              for v in ("a", "b", "ab", "ba", "abb")]
    for _ in range(10):
        e = rx.random_expr(rng, 3, kind="omega")
        aut = A.compile(e, boolw, AB)
        parts = oracles.to_run_automata(aut)
        for w in lassos:
            total = boolw.sum(A.infinitary_coeff(p, w) for p in parts)
            assert total == A.infinitary_coeff(aut, w)


def test_run_form_scaled_vectors(natw):
    aut = A.MatrixAutomaton(natw, AB, 2, 0, (2, 0), (0, 3), ((0, "a", 1, 1),))
    assert A.finitary_coeff(aut, "a") == 6
    parts = oracles.to_run_automata(aut)
    assert len(parts) == 6
    assert sum(A.finitary_coeff(p, "a") for p in parts) == 6
    for p in parts:
        assert p.alpha == (1, 0) and p.beta == (0, 1)


def test_buchi_machine_behaviors(boolw):
    aut = A.compile(rx.parse("(ab)^w"), boolw, AB)
    assert A.infinitary_coeff(aut, OmegaWord("", "ab")) is True
    assert A.infinitary_coeff(aut, OmegaWord("", "a")) is False
    assert A.infinitary_coeff(aut, OmegaWord("a", "ba")) is True
    assert A.infinitary_coeff(aut, OmegaWord("", "ba")) is False


def test_k_zero_rejects_everything(boolw):
    aut = A.compile(rx.parse("(ab)^w"), boolw, AB)
    crippled = A.MatrixAutomaton(boolw, AB, aut.n, 0, aut.alpha, aut.beta, aut.edges)
    for w in (OmegaWord("", "ab"), OmegaWord("", "a")):
        assert A.infinitary_coeff(crippled, w) is False
    for k in (-1, aut.n + 1):
        with pytest.raises(ValueError, match="^need 0 <= k <= n$"):
            A.MatrixAutomaton(boolw, AB, aut.n, k, aut.alpha, aut.beta, aut.edges)


def test_boolean_strategy_matches_brute_oracle(boolw):
    rng = random.Random(81)
    lassos = [OmegaWord(u, v) for u in ("", "a", "ab", "bba")
              for v in ("a", "b", "ab", "ba", "abb")]
    for _ in range(20):
        e = rx.random_expr(rng, 3, kind="omega")
        aut = A.compile(e, boolw, AB)
        edges = {}
        for i, ch, j, w in aut.edges:
            if w:
                edges.setdefault(ch, []).append((i, j))
        initial = {i for i in range(aut.n) if aut.alpha[i]}
        repeated = set(range(aut.k))
        for w in lassos:
            got = A.infinitary_coeff(aut, w)
            want = oracles.buchi_accepts_brute(aut.n, edges, initial, repeated,
                                               w.prefix, w.period)
            assert got == want, (rx.to_text(e), str(w))


def test_sup_strategy_counts_transient_edges():
    sup = V.make_valuation_instance("sup")
    # high-weight edge into a low-weight accepting loop
    aut = A.MatrixAutomaton(sup, ("a",), 2, 1, (0, 1), (0, 0),
                            ((1, "a", 0, 5.0), (0, "a", 0, 1.0)))
    assert A.infinitary_coeff(aut, OmegaWord("", "a")) == 5.0
    limsup = V.make_valuation_instance("limsup")
    aut2 = A.MatrixAutomaton(limsup, ("a",), 2, 1, (0, 1), (0, 0),
                             ((1, "a", 0, 5.0), (0, "a", 0, 1.0)))
    assert A.infinitary_coeff(aut2, OmegaWord("", "a")) == 1.0


def _lasso_run_value_oracle(aut, w, mode):
    """Independent sup/limsup value via plain BFS reachability on the product.

    A weight counts for limsup iff its edge lies on a closed walk through a
    start-reachable repeated node (edge and node reach each other); it counts
    for sup iff its edge is start-reachable and can continue into such a
    closed walk.
    """
    word = w.prefix + w.period
    length, stem_len = len(word), len(w.prefix)

    def succ(node):
        q, pos = node
        nxt = pos + 1 if pos + 1 < length else stem_len
        for i, ch, j, wt in aut.edges:
            if i == q and ch == word[pos]:
                yield (j, nxt), wt

    def bfs(sources):
        seen = set(sources)
        work = list(sources)
        while work:
            node = work.pop()
            for nxt, _ in succ(node):
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
        return seen

    reach = bfs({(q, 0) for q in range(aut.n) if aut.alpha[q]})
    # repeated product nodes on a closed walk and reachable from the start
    anchors = set()
    for node in reach:
        if node[0] < aut.k and node in bfs({n for n, _ in succ(node)}):
            anchors.add(node)
    best = aut.instance.zero
    for node in reach:
        for nxt, wt in succ(node):
            if mode == "limsup":
                ok = any(node in bfs({a}) and a in bfs({nxt}) for a in anchors)
            else:
                ok = any(a in bfs({nxt}) for a in anchors)
            if ok:
                best = max(best, wt)
    return best


def test_sup_and_limsup_match_run_enumeration():
    rng = random.Random(85)
    for mode in ("sup", "limsup"):
        inst = V.make_valuation_instance(mode)
        for _ in range(25):
            n = 3
            edges = []
            for i in range(n):
                for j in range(n):
                    if rng.random() < 0.5:
                        edges.append((i, "a", j, float(rng.randrange(0, 9))))
            aut = A.MatrixAutomaton(inst, ("a",), n, 1, (1, 0, 0), (0,) * n,
                                    tuple(edges))
            got = A.infinitary_coeff(aut, OmegaWord("", "a"))
            want = _lasso_run_value_oracle(aut, OmegaWord("", "a"), mode)
            assert inst.eq(got, want), (mode, edges, got, want)


def test_limsup_picks_best_component():
    limsup = V.make_valuation_instance("limsup")
    # two accepting loops with different weights, chosen by the first letter
    aut = A.MatrixAutomaton(limsup, AB, 3, 2, (0, 0, 1), (0, 0, 0), (
        (2, "a", 0, 1.0), (0, "a", 0, 2.0),
        (2, "b", 1, 1.0), (1, "b", 1, 7.0)))
    assert A.infinitary_coeff(aut, OmegaWord("a", "a")) == 2.0
    assert A.infinitary_coeff(aut, OmegaWord("b", "b")) == 7.0


def test_limsup_ignores_edges_between_components():
    """An edge from one accepting loop to another is taken once: it counts
    for sup, not for limsup."""
    edges = ((0, "a", 0, 1.0), (0, "a", 1, 9.0), (1, "a", 1, 2.0))
    for name, want in (("limsup", 2.0), ("sup", 9.0)):
        aut = A.MatrixAutomaton(V.make_valuation_instance(name), ("a",), 2, 2,
                                (1, 0), (0, 0), edges)
        assert A.infinitary_coeff(aut, OmegaWord("", "a")) == want
        assert oracles.lasso_coeff(aut, OmegaWord("", "a")) == want


def test_cycle_mean_against_brute_force():
    avg = V.make_valuation_instance("limsup-avg")
    rng = random.Random(82)
    for _ in range(30):
        n = 3
        edges = []
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.6:
                    edges.append((i, "a", j, float(rng.randrange(0, 8))))
        aut = A.MatrixAutomaton(avg, ("a",), n, n, (1,) * n, (0,) * n, tuple(edges))
        got = A.infinitary_coeff(aut, OmegaWord("", "a"))
        # oracle on the raw graph: with every state repeated and a one-letter
        # lasso, the product is the graph itself
        succ = [[] for _ in range(n)]
        for i, _, j, w in edges:
            succ[i].append((j, w))
        reach = set()
        work = list(range(n))
        while work:
            q = work.pop()
            if q in reach:
                continue
            reach.add(q)
            work.extend(j for j, _ in succ[q])
        want = oracles.max_cycle_mean_brute(
            n, [succ[i] if i in reach else [] for i in range(n)])
        if want == -math.inf:
            want = NEG_INF
        assert avg.eq(got, want), (edges, got, want)


def test_cycle_mean_sparse_repeated_visits():
    """The best cycle can avoid the repeated state as long as they share a
    component: occasional visits vanish in the running average."""
    avg = V.make_valuation_instance("limsup-avg")
    aut = A.MatrixAutomaton(avg, ("a",), 2, 1, (1, 0), (0, 0), (
        (0, "a", 1, 0.0), (1, "a", 0, 0.0), (1, "a", 1, 5.0)))
    assert A.infinitary_coeff(aut, OmegaWord("", "a")) == 5.0


def test_discounted_bound_dominates(disc):
    aut = A.compile(rx.parse("a^w"), disc, ("a",))
    value, trace = oracles.discounted_value_iteration(aut, OmegaWord("", "a"))
    assert abs(value - 2.0) <= 1e-6
    for est, bound in trace:
        assert abs(est - 2.0) <= bound + 1e-12
    # successive estimates differ by less than the reported bound
    for (e1, b1), (e2, _) in zip(trace, trace[1:]):
        assert abs(e2 - e1) <= b1 + 1e-12


def test_discounted_strategy_with_choice(disc):
    # loop of weight 1 vs a detour 0-weight edge: optimum stays on the loop
    aut = A.MatrixAutomaton(disc, ("a",), 2, 1, (1, 0), (0, 0),
                            ((0, "a", 0, 1.0), (0, "a", 1, 3.0), (1, "a", 0, 0.0)))
    got = A.infinitary_coeff(aut, OmegaWord("", "a"))
    # analytic optimum: alternate 3, 0 forever beats the 1-loop
    alt = (3.0 + 0.5 * 0.0) / (1 - 0.25)
    assert abs(got - max(alt, 2.0)) < 1e-6


def test_lattice_strategy(lattice):
    inst = V.from_carrier(lattice)
    ab, b = frozenset("ab"), frozenset("b")
    aut = A.MatrixAutomaton(inst, ("a",), 2, 1, (1, 1), (0, 0),
                            ((0, "a", 0, ab), (1, "a", 1, b)))
    assert A.infinitary_coeff(aut, OmegaWord("", "a")) == ab
    aut2 = A.MatrixAutomaton(inst, ("a",), 2, 1, (0, 1), (0, 0),
                             ((1, "a", 1, b),))
    assert A.infinitary_coeff(aut2, OmegaWord("", "a")) == inst.zero  # loop avoids state 0


def test_unregistered_strategy_rejected(natw):
    aut = A.compile(rx.parse("a"), natw, AB)
    with pytest.raises(ValueError):
        A.infinitary_coeff(aut, OmegaWord("", "a"))


def test_compile_examples(boolw, natw):
    aut = A.compile(rx.parse("a^+"), boolw, AB)
    assert A.finitary_coeff(aut, "a") is True
    aut2 = A.compile(rx.parse("2a"), natw, AB)
    assert A.finitary_coeff(aut2, "a") == 2
    assert A.compile(rx.parse("a"), boolw, AB).n == 2


def test_compile_rejects_foreign_letter(boolw):
    with pytest.raises(ValueError):
        A.compile(rx.parse("c"), boolw, AB)


def test_compile_repeated_states_lead(boolw):
    rng = random.Random(83)
    for _ in range(20):
        e = rx.random_expr(rng, 3, kind="omega")
        aut = A.compile(e, boolw, AB)
        assert aut.k >= 1
        assert all(aut.beta[i] == 0 for i in range(aut.n))


def test_long_product_compiles_within_four_seconds(natw):
    """A 10,000-letter product, left-nested as the parser builds it, within
    4 s: a product reads the final states of its left operand, not all of
    its states, and the automaton is numbered once."""
    import time
    expr = rx.parse("ab" * 5000)
    start = time.perf_counter()
    aut = A.compile(expr, natw, AB)
    assert time.perf_counter() - start < 4.0
    assert (aut.n, aut.k) == (20000, 0)
    assert A.finitary_coeff(aut, "ab" * 5000) == 1


def test_finitary_run_on_a_long_chain_within_half_a_second(natw):
    """A run reads only the out-edges of its live states: on the 20,000-state
    chain of a 10,000-letter product one query, index included, takes well
    under 0.5 s, where reading every edge of each letter took 5 s."""
    import time
    word = "ab" * 5000
    aut = A.compile(rx.parse(word), natw, AB)
    assert aut.n == 20000
    start = time.perf_counter()
    assert A.finitary_coeff(aut, word) == 1
    assert time.perf_counter() - start < 0.5


def test_long_right_nested_product_compiles_within_four_seconds(natw):
    """The same 10,000-letter product nested to the right, ``Prod(letter,
    rest)`` (built by hand: the parser nests parentheses at most 100 deep),
    within the same 4 s: each state is numbered once, when it is made, so
    no product renumbers its right operand."""
    import time
    word = "ab" * 5000
    expr = rx.Letter(word[-1])
    for ch in reversed(word[:-1]):
        expr = rx.Prod(rx.Letter(ch), expr)
    start = time.perf_counter()
    aut = A.compile(expr, natw, AB)
    assert time.perf_counter() - start < 4.0
    assert (aut.n, aut.k) == (20000, 0)
    assert A.finitary_coeff(aut, word) == 1


def test_shared_subterms_compile_as_their_tree(natw, disc):
    """A node object read by several parent slots, the second slot of one
    parent included, compiles to the behavior of the tree the DAG expands
    to (its printed text, parsed again), with the states of one copy per
    reader: on every word up to length 7 over nat, and on the canonical
    lassos over disc, where ``Prod(y, y)`` before a tail that is not y's
    own tells y·y from y^+."""
    x = rx.parse("a + 2ab^+")
    y, tail = rx.parse("a + ab"), rx.OmegaPow(rx.Letter("b"))
    fin = [rx.Sum(x, x), rx.Prod(x, x), rx.Plus(rx.Prod(x, x)),
           rx.Sum(rx.Prod(x, x), rx.Scalar(3, x))]
    omega = [rx.ActProd(rx.Prod(y, y), rx.OmegaSum(tail, rx.ActProd(y, rx.OmegaPow(y)))),
             rx.OmegaSum(tail, tail)]
    words = [w for w in core.words_up_to(AB, 7) if w]
    lassos = _canonical_lassos()
    for dag in fin:
        tree = rx.parse(rx.to_text(dag))
        aut, want = A.compile(dag, natw, AB), rx.eval_fin(tree, natw, AB)
        assert aut.n == A.compile(tree, natw, AB).n, rx.to_text(dag)
        assert [A.finitary_coeff(aut, w) for w in words] == [want.coeff(w) for w in words]
    for dag in omega:
        aut, tree = A.compile(dag, disc, AB), A.compile(rx.parse(rx.to_text(dag)), disc, AB)
        assert (aut.n, aut.k) == (tree.n, tree.k), rx.to_text(dag)
        assert A.batch_infinitary(aut, lassos) == A.batch_infinitary(tree, lassos)
    assert A.infinitary_coeff(A.compile(omega[0], disc, AB), OmegaWord("a", "b")) == NEG_INF


def test_eliminate_one_state_loop(boolw, natw, lang_pair6):
    aut = A.MatrixAutomaton(boolw, ("a",), 1, 0, (1,), (1,), ((0, "a", 0, True),))
    fin, om = A.eliminate(aut)
    assert om is None
    got = rx.eval_fin(fin, boolw, ("a",))
    want = rx.eval_fin(rx.parse("a^+"), boolw, ("a",))
    for w in core.words_up_to(("a",), 6):
        if w:
            assert got.coeff(w) == want.coeff(w)
    # an initial coefficient alpha scales the finitary behavior by one scalar
    # node and the omega behavior by a sum of O(log alpha) shared nodes, not
    # an alpha-deep chain
    import time
    for alpha in (10 ** 4, 10 ** 6):
        aut = A.MatrixAutomaton(natw, ("a",), 1, 1, (alpha,), (1,), ((0, "a", 0, 1),))
        start = time.perf_counter()
        fin, om = A.eliminate(aut)
        assert time.perf_counter() - start < 1.0, alpha
        assert rx.to_text(fin) == f"{alpha}(a^+)"
        if alpha == 10 ** 4:
            assert rx.to_text(om)
        assert rx.eval_fin(fin, natw, ("a",)).coeff("a") == alpha


def test_walks_on_an_eliminated_dag_cost_its_size(natw, monkeypatch):
    """An 8-state automaton, two edges per state and letter, eliminates to
    a DAG of a few hundred nodes whose tree prints as 1.6 million
    characters; each walk calls its rules once per distinct node, and
    ``expr_equal(fin, fin)`` twice (one walk per side)."""
    from collections import Counter
    from omegalg.series import SeriesCarrier
    rng = random.Random(1)
    edges = tuple((i, ch, rng.randrange(8), 1) for i in range(8) for ch in AB for _ in range(2))
    fin, _ = A.eliminate(A.MatrixAutomaton(natw, AB, 8, 0, (1,) + (0,) * 7, (1,) * 8, edges))
    nodes, stack = {}, [fin]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(getattr(node, name) for name in type(node).__slots__
                         if name not in ("ch", "coef"))
    assert 200 < len(nodes) < 1000
    visits = Counter()
    fold = rx.fold

    def counted(e, rules):
        def count(rule):
            def call(node, *kids):
                visits[id(node)] += 1
                return rule(node, *kids)
            return call
        return fold(e, {cls: count(rule) for cls, rule in rules.items()})

    monkeypatch.setattr(rx, "fold", counted)
    sc = SeriesCarrier(natw, AB, bound=4)
    for walk, times in ((lambda: rx.letters_of(fin), 1), (lambda: rx.expr_equal(fin, fin), 2),
                        (lambda: rx.eval_fin_in_carrier(fin, sc, sc.letter), 1)):
        visits.clear()
        walk()
        assert visits == dict.fromkeys(nodes, times)


def test_eliminate_zero_automaton(boolw):
    aut = A.MatrixAutomaton(boolw, AB, 1, 0, (1,), (0,), ())
    assert A.eliminate(aut) == (None, None)


def test_eliminate_buchi_machine(boolw, lang_pair6):
    aut = A.compile(rx.parse("(ab)^w"), boolw, AB)
    _, om = A.eliminate(aut)
    pair = lang_pair6
    assert (rx.eval_omega_in_pair(om, pair, pair.hemiring.letter)
            == rx.eval_omega_in_pair(rx.parse("(ab)^w"), pair, pair.hemiring.letter))


def test_eliminate_rejects_nonscalar_weights(disc):
    aut = A.MatrixAutomaton(disc, ("a",), 1, 0, (1,), (1,), ((0, "a", 0, 0.75),))
    with pytest.raises(ValueError):
        A.eliminate(aut)


def test_series_act_and_omega_power(disc):
    r = A.compile(rx.parse("a"), disc, AB)
    s = A.compile(rx.parse("b^w"), disc, AB)
    prod = A.series_act(r, s)
    assert abs(prod.coeff(OmegaWord("a", "b")) - 2.0) < 1e-6
    power = A.series_omega(A.compile(rx.parse("a"), disc, ("a",)))
    assert abs(power.coeff(OmegaWord("", "a")) - 2.0) < 1e-6


def test_untouched_states_survive_the_constructions(disc):
    """A state that no edge touches, neither initial nor final, keeps a place
    in ``omega_automaton`` and ``series_act``: the states of a construction
    are the ones it made, not the ones its edges name."""
    aut = A.MatrixAutomaton(disc, AB, 3, 0, (1, 0, 0), (0, 1, 0), ((0, "a", 1, disc.unit),))
    tail = A.compile(rx.parse("b^w"), disc, AB)
    power, act = A.omega_automaton(aut), A.series_act(aut, tail).backing
    assert (power.n, power.k, act.n, act.k) == (4, 1, 3 + tail.n, tail.k)
    for got, dead in ((power, 3), (act, tail.k + 2)):
        assert got.alpha[dead] == got.beta[dead] == 0
        assert all(dead not in (i, j) for i, _, j, _ in got.edges)
    assert abs(A.infinitary_coeff(power, OmegaWord("", "a")) - 2.0) < 1e-6
    assert abs(A.infinitary_coeff(act, OmegaWord("a", "b")) - 2.0) < 1e-6


def test_valuation_series_wrappers(disc):
    from omegalg.series import OmegaSeries
    r = A.finitary_series(A.compile(rx.parse("a"), disc, AB))
    s = A.infinitary_series(A.compile(rx.parse("b^w"), disc, AB))
    assert abs(A.series_act(r, s).coeff(OmegaWord("a", "b")) - 2.0) < 1e-6
    unbacked = OmegaSeries(disc, AB, lambda w: disc.zero, backing=None)
    with pytest.raises(ValueError):
        A.series_act(r, unbacked)


def test_product_with_zero_series_is_zero(disc):
    zero_aut = A.MatrixAutomaton(disc, AB, 1, 1, (0,), (0,), ())
    s = A.infinitary_series(A.compile(rx.parse("b^w"), disc, AB))
    r = A.finitary_series(A.compile(rx.parse("a"), disc, AB))
    for w in (OmegaWord("a", "b"), OmegaWord("", "ab")):
        assert A.series_act(A.finitary_series(zero_aut), s).coeff(w) == disc.zero
        assert A.series_act(r, A.infinitary_series(zero_aut)).coeff(w) == disc.zero


def test_json_round_trip(disc, boolw):
    for inst, expr in ((disc, "a^w"), (boolw, "(ab)^w")):
        aut = A.compile(rx.parse(expr), inst, AB)
        data = A.automaton_to_json(aut)
        back = A.automaton_from_json(data, inst)
        assert back.n == aut.n and back.k == aut.k
        for w in (OmegaWord("", "ab"), OmegaWord("", "a")):
            assert inst.eq(A.infinitary_coeff(back, w), A.infinitary_coeff(aut, w))


def test_infinitary_theorem_13_9_style_consequences():
    """Tail and associativity shapes for automaton-backed omega series."""
    lassos = [OmegaWord(u, v) for u in ("", "a", "b") for v in ("a", "ab", "ba", "b")]
    for name in ("sup", "limsup", "disc", "lattice-inf"):
        inst = (V.make_valuation_instance(name, lam=0.5) if name == "disc"
                else V.make_valuation_instance(name))
        r = A.compile(rx.parse("a + b"), inst, AB)
        s = A.compile(rx.parse("ab"), inst, AB)
        # omega power vs its one-step unrolling: r^w = r · r^w
        lhs = A.series_omega(r)
        rhs = A.series_act(r, A.series_omega(r))
        for w in lassos:
            assert inst.eq(lhs.coeff(w), rhs.coeff(w)), (name, str(w))
        # associativity r(s·X) = (rs)X with X = s^w
        x = A.series_omega(s)
        lhs2 = A.series_act(r, A.series_act(s, x))
        from omegalg.automata import _aut_of, _frag_of, _frag_prod
        rs = _aut_of(_frag_prod(inst, _frag_of(r), _frag_of(s)), inst, AB)
        rhs2 = A.series_act(rs, x)
        for w in lassos:
            assert inst.eq(lhs2.coeff(w), rhs2.coeff(w)), (name, str(w))


# --- the lasso kernel against the per-lasso product -----------------------------------

def _kernel_instances():
    return {
        "bool": V.from_carrier(make_instance("bool")),
        "sup": V.make_valuation_instance("sup"),
        "limsup": V.make_valuation_instance("limsup"),
        "limsup-avg": V.make_valuation_instance("limsup-avg"),
        "disc-0.5": V.make_valuation_instance("disc", lam=0.5),
        "lattice-inf": V.make_valuation_instance("lattice-inf"),
    }


_KERNEL_TOL = {"limsup-avg": 1e-9, "disc-0.5": 1e-6}


def _agree(name, x, y):
    tol = _KERNEL_TOL.get(name)
    if tol is None or x == y:
        return x == y
    return abs(x - y) <= tol


def _reweighted(aut, rng, edges=None):
    """The automaton with random weights (compiled letters all weigh the
    unit, which hides every quantitative difference between runs), on
    ``edges`` (source, letter, target) if given."""
    inst = aut.instance

    def draw():
        if inst.strategy == "boolean":
            return rng.random() < 0.8
        if inst.strategy == "lattice":
            return inst.monoid.sample(rng)
        return NEG_INF if rng.random() < 0.05 else float(rng.randrange(0, 9))

    if edges is None:
        edges = [(i, ch, j) for i, ch, j, _ in aut.edges]
    return A.MatrixAutomaton(inst, aut.alphabet, aut.n, aut.k, aut.alpha, aut.beta,
                             tuple((i, ch, j, draw()) for i, ch, j in edges))


def _random_graph(inst, rng, n=4):
    """A random automaton over ``inst`` on n states, with random weights."""
    shape = A.MatrixAutomaton(inst, AB, n, rng.randrange(1, n + 1),
                              tuple(int(rng.random() < 0.5) for _ in range(n)), (0,) * n, ())
    edges = [(i, ch, j) for i in range(n) for ch in AB for j in range(n)
             if rng.random() < 0.3]
    return _reweighted(shape, rng, edges)


def test_kernel_matches_per_lasso_product():
    """Every strategy, every canonical lasso with stem and period <= 3, on
    random compiled omega expressions (as compiled and with random weights)
    and on random graphs: the kernel against the per-query product, and the
    batch against single queries on a fresh automaton."""
    from omegalg import omegalang
    lassos = [w for group in omegalang.canonical_lassos(AB, 3, 3).values() for w in group]
    rng = random.Random(88)
    for name, inst in _kernel_instances().items():
        for _ in range(8):
            e = rx.random_expr(rng, 3, kind="omega")
            compiled = A.compile(e, inst, AB)
            for aut in (compiled, _reweighted(compiled, rng), _random_graph(inst, rng)):
                got = [A.infinitary_coeff(aut, w) for w in lassos]
                for w, value in zip(lassos, got):
                    want = oracles.lasso_coeff(aut, w)
                    assert _agree(name, value, want), (name, aut.edges, str(w), value, want)
                fresh = A.MatrixAutomaton(inst, AB, aut.n, aut.k, aut.alpha, aut.beta, aut.edges)
                batch = A.batch_infinitary(fresh, lassos)
                assert all(_agree(name, x, y) for x, y in zip(batch, got)), (name, aut.edges)


def test_kernel_on_long_stems():
    """Stems of 2000 letters and more, read without recursion: the kernel
    against the per-query product on each strategy."""
    rng = random.Random(90)
    lassos = [OmegaWord("a" * 2000, "b"),
              OmegaWord("".join(rng.choice(AB) for _ in range(2400)), "bba")]
    assert min(len(w.prefix) for w in lassos) >= 2000
    for name, inst in _kernel_instances().items():
        compiled = A.compile(rx.parse("(a+b)^+ b^w"), inst, AB)
        nonzero = 0
        for aut in (compiled, _reweighted(compiled, rng), _random_graph(inst, rng, n=3)):
            for w, value in zip(lassos, A.batch_infinitary(aut, lassos)):
                want = oracles.lasso_coeff(aut, w)
                assert _agree(name, value, want), (name, aut.edges, len(w.prefix), value, want)
                nonzero += not inst.eq(value, inst.zero)
        assert nonzero, name


def test_distinct_stems_leave_no_memory_behind():
    """10^4 distinct 14-letter stems on one automaton: the kernel keeps its
    analyses per period, nothing per stem, so the batch retains no memory
    (by tracemalloc)."""
    import tracemalloc
    rng = random.Random(96)
    inst = V.make_valuation_instance("limsup")
    aut = A.compile(rx.parse("(a + b)^+ (ab + b)^w"), inst, AB)
    stems = [format(x, "014b").replace("0", "a").replace("1", "b")
             for x in rng.sample(range(2 ** 14), 10_000)]
    lassos = [OmegaWord(u, "b") for u in stems]
    assert A.infinitary_coeff(aut, lassos[0]) == inst.unit  # the period's analysis
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert all(value == inst.unit for value in A.batch_infinitary(aut, lassos))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000, retained


def test_exact_discounting_near_one():
    """At lambda = 0.9999 value iteration needs ~300k steps; the exact values
    match the closed form of the optimal lasso."""
    import time
    lam = 0.9999
    disc = V.make_valuation_instance("disc", lam=lam)
    closed = V._disc_periodic(lam)
    loop = A.compile(rx.parse("a^w"), disc, ("a",))
    choice = A.MatrixAutomaton(disc, ("a",), 2, 1, (1, 0), (0, 0),
                               ((0, "a", 0, 1.0), (0, "a", 1, 3.0), (1, "a", 0, 0.0)))
    cases = [(loop, closed((), ((1, 1.0),))),
             (choice, max(closed((), ((1, 1.0),)), closed((), ((1, 3.0), (1, 0.0)))))]
    for aut, want in cases:
        start = time.monotonic()
        got = A.infinitary_coeff(aut, OmegaWord("", "a"))
        assert time.monotonic() - start < 0.5
        assert abs(got - want) <= 1e-9, (got, want)


def test_exact_discounting_matches_value_iteration():
    rng = random.Random(89)
    lassos = [OmegaWord(u, v) for u, v in (("", "a"), ("b", "ab"), ("ab", "b"), ("a", "abb"))]
    for lam, count in ((0.5, 20), (0.9, 12), (0.99, 6)):
        inst = V.make_valuation_instance("disc", lam=lam)
        for _ in range(count):
            aut = _random_graph(inst, rng, n=3)
            for w in lassos:
                got = A.infinitary_coeff(aut, w)
                want, _ = oracles.discounted_value_iteration(aut, w, tol=1e-8)
                assert got == want or abs(got - want) <= 1e-6, (lam, aut.edges, str(w))


def test_discounting_with_an_infinite_weight(disc):
    # from the initial state 1: a^w takes the INF edge into the weight-1 loop
    # on the repeated state 0; after a b, the INF edge to 2 leads nowhere
    aut = A.MatrixAutomaton(disc, AB, 3, 1, (0, 1, 0), (0, 0, 0), (
        (0, "a", 0, 1.0), (1, "a", 0, INF), (1, "b", 2, INF), (1, "b", 0, 2.0)))
    w = OmegaWord("", "a")
    assert A.infinitary_coeff(aut, w) == oracles.discounted_value_iteration(aut, w)[0] == INF
    w = OmegaWord("b", "a")
    got = A.infinitary_coeff(aut, w)
    assert abs(got - 3.0) <= 1e-9
    assert abs(oracles.discounted_value_iteration(aut, w)[0] - got) <= 1e-6
    assert A.infinitary_coeff(aut, OmegaWord("", "b")) == disc.zero


def test_zero_weight_edges_annihilate_runs():
    """From the initial state 1, the only run on a^w takes the zero weight
    (-inf) into a loop weighing 5.0: every quantitative strategy, and the
    per-lasso oracle, value it as val_omega does, at zero."""
    w = OmegaWord("", "a")
    seq = V.WeightedSeq(((1, NEG_INF),), ((1, 5.0),))
    for name, inst in _kernel_instances().items():
        if inst.strategy in ("boolean", "lattice"):
            continue
        aut = A.MatrixAutomaton(inst, ("a",), 2, 1, (0, 1), (0, 0),
                                ((1, "a", 0, NEG_INF), (0, "a", 0, 5.0)))
        want = inst.val_omega(seq).value
        assert want == inst.zero
        assert A.infinitary_coeff(aut, w) == want, name
        assert oracles.lasso_coeff(aut, w) == want, name


def test_cycle_mean_of_an_infinite_weight_loop():
    """One state looping on a with weight inf: Karp's differences are
    inf - inf, and the cycle mean is still inf, as val_omega gives."""
    inst = V.make_valuation_instance("limsup-avg")
    aut = A.MatrixAutomaton(inst, ("a",), 1, 1, (1,), (0,), ((0, "a", 0, INF),))
    w = OmegaWord("", "a")
    want = inst.val_omega(V.WeightedSeq((), ((1, INF),))).value
    assert want == INF
    assert A.infinitary_coeff(aut, w) == want
    assert oracles.lasso_coeff(aut, w) == want


# --- what the kernel shares: rotation classes, lattice groups, Howard ---------------------

def _canonical_lassos():
    from omegalg import omegalang
    return [w for group in omegalang.canonical_lassos(AB).values() for w in group]


def test_least_rotation_against_every_rotation():
    rng = random.Random(91)
    words = ["".join(rng.choice("abc"[:rng.randrange(1, 4)]) for _ in range(rng.randrange(1, 30)))
             for _ in range(400)]
    for word in words + ["a", "ab", "ba", "abab", "baba", "aab", "aba", "baa"]:
        start = A._least_rotation(word)
        assert word[start:] + word[:start] == min(word[i:] + word[:i] for i in range(len(word)))


def _kept_sets(aut):
    """The number of kept edge sets in the automaton's lasso kernel."""
    one, groups = aut._memo["kernel"]
    return len(groups) + (one is not None)


def _kept_edges(kept):
    """The (source, letter, target, weight) edges of one kept edge set."""
    return [(i, ch, j, wgt) for ch, by_source in kept.out.items()
            for i, outs in by_source.items() for j, wgt in outs]


def _fitting_classes(aut, edges, classes) -> set:
    """The classes whose letters all lie on edges inside one strongly
    connected component of ``edges`` (found by networkx) that has an edge
    and a repeated state."""
    import networkx as nx
    graph = nx.DiGraph()
    graph.add_nodes_from(range(aut.n))
    graph.add_edges_from((i, j) for i, _, j, _ in edges)
    cycles = []
    for comp in nx.strongly_connected_components(graph):
        letters = {ch for i, ch, j, _ in edges if i in comp and j in comp}
        if letters and min(comp) < aut.k:
            cycles.append(letters)
    return {c for c in classes if any(set(c) <= letters for letters in cycles)}


def _counted_products(monkeypatch):
    """Patch ``_Period`` to record (id of the kept edges, period) per product built."""
    built = []

    class Counted(A._Period):
        def __init__(self, aut, out, period):
            built.append((id(out), period))
            super().__init__(aut, out, period)

    monkeypatch.setattr(A, "_Period", Counted)
    return built


def test_one_product_per_rotation_class(monkeypatch):
    """The 352 canonical lassos have 22 periods in 8 rotation classes.  Per
    set of kept edges, every strategy builds one product for each class
    whose letters fit in a strongly connected component of the kept edges
    with an edge and a repeated state (found here by networkx), and none
    for the others; a product built for such a skipped class has no live
    node."""
    period_of = A._Period
    built = _counted_products(monkeypatch)
    lassos = _canonical_lassos()
    periods = {w.period for w in lassos}
    classes = {min(p[i:] + p[:i] for i in range(len(p))) for p in periods}
    assert len(lassos) == 352 and len(periods) == 22 and len(classes) == 8
    rng = random.Random(92)
    skipped = 0
    for name, inst in _kernel_instances().items():
        for _ in range(4):
            compiled = A.compile(rx.random_expr(rng, 3, kind="omega"), inst, AB)
            for aut in (compiled, _reweighted(compiled, rng)):
                built.clear()
                A.batch_infinitary(aut, lassos)
                one, groups = aut._memo["kernel"]
                kept_sets = [kept for kept, _ in groups] + ([one] if one is not None else [])
                want = set()
                for kept in kept_sets:
                    fitting = _fitting_classes(aut, _kept_edges(kept), classes)
                    want |= {(id(kept.out), c) for c in fitting}
                    for c in classes - fitting:
                        skipped += 1
                        assert not any(period_of(aut, kept.out, c).live), (name, c, aut.edges)
                assert len(built) == len(set(built)), (name, aut.edges)
                assert set(built) == want, (name, aut.edges)
    assert skipped == 462


@pytest.mark.parametrize("text, want", [("a^w + b^w", {"a", "b"}), ("a^+ b^w", {"b"}),
                                        ("(ab)^w", {"a", "aab", "aabb", "ab", "abb", "abbb",
                                                    "b", "aaab"})])
def test_products_only_for_the_classes_a_run_can_stay_in(monkeypatch, text, want):
    """A compiled automaton keeps one edge set under every strategy: a run
    of ``a^w + b^w`` stays on a or on b, one of ``a^+ b^w`` on b, and one of
    ``(ab)^w`` in a component that reads both letters, so that expression
    still has a product for each of the 8 classes."""
    built = _counted_products(monkeypatch)
    lassos = _canonical_lassos()
    for name, inst in _kernel_instances().items():
        built.clear()
        aut = A.compile(rx.parse(text), inst, AB)
        A.batch_infinitary(aut, lassos)
        assert sorted(period for _, period in built) == sorted(want), name


def test_one_acceptance_test_per_lattice_group(monkeypatch):
    """Lattice thresholds that keep the same edges are tested together: a
    compiled automaton (every weight the top) runs one acceptance test per
    query for its 7 thresholds, a reweighted one one per kept edge set."""
    tested = []
    best = A._best
    monkeypatch.setattr(A, "_best", lambda *args: tested.append(args) or best(*args))
    inst = V.make_valuation_instance("lattice-inf")
    lassos = _canonical_lassos()
    compiled = A.compile(rx.parse("(a + b)^+ (ab + b)^w"), inst, AB)
    A.batch_infinitary(compiled, lassos)
    assert len(tested) == len(lassos)
    rng = random.Random(93)
    for _ in range(10):
        aut = _reweighted(compiled, rng)
        tested.clear()
        A.batch_infinitary(aut, lassos)
        assert len(tested) == len(lassos) * _kept_sets(aut)


def test_values_do_not_depend_on_query_order():
    """Batch queries in canonical and in shuffled order, and single queries
    on fresh automata, give ==-identical values on every strategy."""
    lassos = _canonical_lassos()
    rng = random.Random(94)
    insts = {**_kernel_instances(), "disc-0.99": V.make_valuation_instance("disc", lam=0.99)}
    for name, inst in insts.items():
        for _ in range(3):
            compiled = A.compile(rx.random_expr(rng, 3, kind="omega"), inst, AB)
            for aut in (compiled, _reweighted(compiled, rng), _random_graph(inst, rng)):
                def fresh():
                    return A.MatrixAutomaton(inst, AB, aut.n, aut.k, aut.alpha, aut.beta,
                                             aut.edges)
                want = A.batch_infinitary(fresh(), lassos)
                order = rng.sample(range(len(lassos)), len(lassos))
                got = A.batch_infinitary(fresh(), [lassos[i] for i in order])
                assert [want[i] for i in order] == got, (name, aut.edges)
                for i in rng.sample(range(len(lassos)), 12):
                    assert A.infinitary_coeff(fresh(), lassos[i]) == want[i], (name, str(lassos[i]))


def _error(fn, *args) -> str:
    with pytest.raises(ValueError) as err:
        fn(*args)
    return str(err.value)


def test_letters_outside_the_alphabet_raise(natw):
    """A letter outside the alphabet raises the error ``Series.coeff``
    raises on the same word, in the stem or the period, on a period seen
    before or not, for every strategy, also without a repeated state; and
    in ``finitary_coeff`` wherever it stands in the word."""
    lassos = [OmegaWord("", "c"), OmegaWord("c", "ab"), OmegaWord("abc", "a"),
              OmegaWord("ab", "bac"), OmegaWord("dc", "b"), OmegaWord("b", "ca")]
    rng = random.Random(97)
    insts = {**_kernel_instances(), "disc-0.99": V.make_valuation_instance("disc", lam=0.99)}
    for name, inst in insts.items():
        compiled = A.compile(rx.parse("(a + b)^+ (ab + b)^w"), inst, AB)
        graph = _random_graph(inst, rng)
        for aut in (compiled, _reweighted(compiled, rng), graph,
                    A.MatrixAutomaton(inst, AB, graph.n, 0, graph.alpha, graph.beta, graph.edges)):
            series = A.finitary_series(aut)
            for analysed in (False, True):
                if analysed:  # every period over the alphabet is now analysed
                    A.batch_infinitary(aut, _canonical_lassos())
                for w in lassos:
                    want = _error(series.coeff, w.prefix + w.period)
                    assert _error(A.infinitary_coeff, aut, w) == want, (name, str(w))
                    assert _error(A.infinitary_series(aut).coeff, w) == want
    aut = A.compile(rx.parse("(a + b)^+"), natw, AB)
    for word in ("c", "ac", "ca", "abcab", "abbac"):
        assert _error(A.finitary_coeff, aut, word) == _error(A.finitary_series(aut).coeff, word)
    assert A.finitary_coeff(aut, "abbab") == 1


def test_in_alphabet_queries_never_reach_the_letter_loop(monkeypatch):
    """On words over the alphabet the letter test finds nothing, so the
    loop that names a foreign letter never runs: every strategy gives its
    values on the canonical lassos with that loop made to fail.  The loop is
    patched where it is defined, so ``automata`` must call it through
    ``series``: a name of its own would keep the unpatched loop."""
    assert "_check_letters" not in vars(A)
    lassos = _canonical_lassos()
    rng = random.Random(98)
    auts = [A.compile(rx.random_expr(rng, 3, kind="omega"), inst, AB)
            for inst in _kernel_instances().values() for _ in range(3)]
    words = ("a", "ab", "ba", "bbab")

    def values(auts):
        return ([A.batch_infinitary(aut, lassos) for aut in auts],
                [A.finitary_coeff(aut, word) for aut in auts for word in words])

    want = values(auts)
    monkeypatch.setattr("omegalg.series._check_letters", lambda word, alphabet: pytest.fail(word))
    assert values([A.MatrixAutomaton(a.instance, AB, a.n, a.k, a.alpha, a.beta, a.edges)
                   for a in auts]) == want


def test_howard_cycle_mean_matches_karp():
    """Howard's policy iteration against Karp's algorithm on random strongly
    connected components inside larger graphs, with negative, fractional
    and infinite weights; on single cycles of 200-500 nodes; and on two
    cycles through one node whose means differ by less than 1e-12."""
    from types import SimpleNamespace
    rng = random.Random(95)

    def weight():
        roll = rng.random()
        return INF if roll < 0.01 else rng.uniform(-3, 3) if roll < 0.5 else float(rng.randrange(-4, 9))

    def agree(succ, nodes):
        got = A._max_cycle_mean(succ, nodes)
        want = oracles._max_cycle_mean(SimpleNamespace(succ=succ), nodes)
        assert got == want or abs(got - want) <= 1e-9, (succ, nodes, got, want)

    for _ in range(1000):
        n = rng.randrange(1, 13)
        nodes = rng.sample(range(3 * n), n)
        succ = [[] for _ in range(3 * n)]
        for v, t in zip(nodes, nodes[1:] + nodes[:1]):  # a cycle through every node
            succ[v].append((t, weight()))
        for _ in range(rng.randrange(3 * n)):  # more edges, inside and out
            succ[rng.choice(nodes)].append((rng.randrange(3 * n), weight()))
        agree(succ, nodes)
    for _ in range(8):  # one cycle, and edges that leave it
        n = rng.randrange(200, 501)
        nodes = rng.sample(range(2 * n), n)
        succ = [[] for _ in range(2 * n)]
        for v, t in zip(nodes, nodes[1:] + nodes[:1]):
            succ[v].append((t, rng.uniform(-3, 3)))
        outside = sorted(set(range(2 * n)) - set(nodes))
        for _ in range(n // 2):
            succ[rng.choice(nodes)].append((rng.choice(outside), rng.uniform(-3, 3)))
        agree(succ, nodes)
    for _ in range(200):  # two cycles through node 0, means a gap below 1e-12 apart
        a, b = rng.randrange(1, 40), rng.randrange(1, 40)
        succ = [[] for _ in range(a + b - 1)]
        ring_a, ring_b = [0, *range(1, a)], [0, *range(a, a + b - 1)]
        ws = [rng.uniform(-3, 3) for _ in range(a + b)]
        ws[-1] = b * (sum(ws[:a]) / a + rng.uniform(-1e-12, 1e-12)) - sum(ws[a:-1])
        for ring, wts in ((ring_a, ws[:a]), (ring_b, ws[a:])):
            for v, t, wgt in zip(ring, ring[1:] + ring[:1], wts):
                succ[v].append((t, wgt))
        agree(succ, list(range(a + b - 1)))
