"""Growth gates: the work a computation does, counted in carrier operations,
grows in the class its algorithm states as a user-controlled parameter
doubles.  Counts do not move with the machine, so they can be pinned."""

import random
import time

import pytest

from omegalg import automata as A, matrices as M, ratexpr as rx, valuation as V
from omegalg.core import self_pair
from omegalg.instances import MinPlusCarrier, make_instance
from omegalg.series import OmegaWord


class _CountingMinPlus(MinPlusCarrier):
    """Min-plus that counts its add and mul calls."""

    def __init__(self):
        super().__init__()
        self.ops = 0

    def add(self, a, b):
        self.ops += 1
        return super().add(a, b)

    def mul(self, a, b):
        self.ops += 1
        return super().mul(a, b)


def _elimination_ops(n):
    """add + mul of ``mat_plus`` and ``mat_omega`` on a seeded dense n x n
    min-plus matrix (no infinite entry, so nothing is skipped)."""
    rng = random.Random(n)
    m = M.mat([[rng.randrange(0, 10) for _ in range(n)] for _ in range(n)])
    c = _CountingMinPlus()
    M.mat_plus(c, m)
    M.mat_omega(self_pair(c), m)
    return c.ops


def test_matrix_elimination_grows_cubically_in_matrix_size():
    """Each doubling of n multiplies the work by at most 8.8 (cubic: 8),
    and the count at n = 16 is pinned exactly."""
    ops = {n: _elimination_ops(n) for n in (8, 16, 32)}
    assert ops[16] == 15870, ops
    for n in (8, 16):
        assert ops[2 * n] <= 8.8 * ops[n], ops


def test_elimination_op_counts_grow_cubically():
    """On dense matrices (no zero entry to skip), omega costs O(n^3) carrier
    operations like plus: at most 8.5 times as many at n = 32 as at 16, and
    at most 1.25 times the ops of plus at n = 32."""
    def ops(op, n):
        rng = random.Random(n)
        m = M.mat([[rng.randrange(0, 7) for _ in range(n)] for _ in range(n)])
        c = _CountingMinPlus()
        if op == "plus":
            M.mat_plus(c, m)
        else:
            M.mat_omega(self_pair(c), m)
        return c.ops

    omega16, omega32, plus32 = ops("omega", 16), ops("omega", 32), ops("plus", 32)
    assert omega32 <= 8.5 * omega16, (omega16, omega32)
    assert omega32 <= 1.25 * plus32, (omega32, plus32)


def _query_lasso_of_length(m):
    """One ``limsup-avg`` and one ``disc`` query on a seeded 6-state
    automaton, at a seeded random period of m letters."""
    ab = ("a", "b")
    rng = random.Random(m)
    w = OmegaWord("", "".join(rng.choice(ab) for _ in range(m)))
    for inst in (V.make_valuation_instance("limsup-avg"), V.make_valuation_instance("disc", lam=0.5)):
        rng = random.Random(1)
        edges = tuple((i, ch, j, float(rng.randrange(0, 9)))
                      for i in range(6) for ch in ab for j in range(6) if rng.random() < 0.3)
        aut = A.MatrixAutomaton(inst, ab, 6, 2, (1, 0, 0, 0, 0, 0), (0,) * 6, edges)
        assert A.infinitary_coeff(aut, w) != inst.zero


def test_lasso_products_grow_linearly_in_period_length(monkeypatch):
    """Each doubling of the period multiplies the product nodes the queries
    explore (the nodes of the strongly connected components each
    ``_Period`` finds) by at most 2.2 (linear: 2), and the count at 128
    letters is pinned exactly."""
    explored = []

    class Counted(A._Period):
        def __init__(self, aut, out, period):
            super().__init__(aut, out, period)
            explored.append(sum(map(len, self.sccs)))

    monkeypatch.setattr(A, "_Period", Counted)
    nodes = {}
    for m in (128, 256, 512):
        explored.clear()
        _query_lasso_of_length(m)
        nodes[m] = sum(explored)
    assert nodes[128] == 1280, nodes
    for m in (128, 256):
        assert nodes[2 * m] <= 2.2 * nodes[m], nodes


def test_lasso_stem_walks_grow_linearly_in_stem_length(monkeypatch):
    """One ``limsup-avg`` and one ``disc`` query on ``(a + b)^+ (ab + b)^w``
    at seeded random stems of 1,000, 2,000 and 4,000 letters: each doubling
    of the stem multiplies the states the stem walk of ``_best`` expands
    (forward and, with a step, folding back), summed over letters, by at
    most 2.2 (linear: 2), and the count at 1,000 letters is pinned exactly."""
    expanded = [0]

    class Edges(dict):
        def get(self, source, default=None):
            expanded[0] += 1
            return super().get(source, default)

    class Counted(A._Kept):
        def __init__(self, *args):
            super().__init__(*args)
            self.out = {ch: Edges(by_source) for ch, by_source in self.out.items()}

    monkeypatch.setattr(A, "_Kept", Counted)
    rng = random.Random(5)
    stems = {m: "".join(rng.choice("ab") for _ in range(m)) for m in (1000, 2000, 4000)}
    expr = rx.parse("(a + b)^+ (ab + b)^w")
    states = {}
    for m, stem in stems.items():
        expanded[0] = 0
        for inst in (V.make_valuation_instance("limsup-avg"),
                     V.make_valuation_instance("disc", lam=0.5)):
            aut = A.compile(expr, inst, ("a", "b"))
            assert A.infinitary_coeff(aut, OmegaWord(stem, "ab")) != inst.zero
        states[m] = expanded[0]
    assert states[1000] == 8247, states
    for m in (1000, 2000):
        assert states[2 * m] <= 2.2 * states[m], states


def _long_period_query(m):
    """The ``limsup-avg`` query of ``test_limsup_avg_policy_iteration_ends_on_a_long_period``
    (tests/test_cli.py) at ``random.Random(3)``: three states, a seeded
    random period of m letters."""
    rng = random.Random(3)
    edges = tuple((i, ch, t, float(rng.randrange(5)))
                  for i in range(3) for ch in "ab" for t in range(3) if rng.random() < 0.7)
    period = "".join(rng.choice("ab") for _ in range(m))
    aut = A.MatrixAutomaton(V.make_valuation_instance("limsup-avg"), ("a", "b"), 3, 3,
                            (1, 0, 0), (1, 1, 1), edges)
    return A.infinitary_coeff(aut, OmegaWord("a", period))


def test_howard_passes_do_not_grow_with_period_length(monkeypatch):
    """Howard's iteration on a product of up to 3m nodes: each doubling of
    the period m multiplies its ``_switch`` passes by at most 1.25, and the
    count at 3,000 letters is pinned exactly.  Switches accepted for gains
    within rounding once made the 12,000-letter query switch for ever, so
    the count stops the query after 200 passes."""
    switch, passes = A._switch, [0]

    def counted(*args):
        passes[0] += 1
        if passes[0] > 200:
            raise RuntimeError("Howard's iteration is still switching after 200 passes")
        return switch(*args)

    monkeypatch.setattr(A, "_switch", counted)
    count = {}
    for m in (3000, 6000, 12000):
        passes[0] = 0
        _long_period_query(m)
        count[m] = passes[0]
    assert count[3000] == 24, count
    for m in (3000, 6000):
        assert count[2 * m] <= 1.25 * count[m], count


def _discounted_query(lam):
    """One ``disc`` query at discount ``lam``: five states, seeded random
    edges and a seeded random period of 300 letters."""
    rng = random.Random(2)
    edges = tuple((i, ch, t, float(rng.randrange(9)))
                  for i in range(5) for ch in "ab" for t in range(5) if rng.random() < 0.5)
    period = "".join(rng.choice("ab") for _ in range(300))
    aut = A.MatrixAutomaton(V.make_valuation_instance("disc", lam=lam), ("a", "b"), 5, 2,
                            (1, 0, 0, 0, 0), (0,) * 5, edges)
    return A.infinitary_coeff(aut, OmegaWord("a", period))


def test_howard_passes_do_not_grow_as_the_discount_tends_to_one(monkeypatch):
    """Values grow as 1/(1 - λ) as λ tends to 1, but the ``_switch`` passes
    of one discounted query stay flat: pinned for each λ, and none more
    than at λ = 0.9."""
    switch, passes = A._switch, [0]

    def counted(*args):
        passes[0] += 1
        return switch(*args)

    monkeypatch.setattr(A, "_switch", counted)
    count = []
    for lam in (0.5, 0.9, 0.99, 0.9999, 0.999999, 1 - 1e-9):
        passes[0] = 0
        _discounted_query(lam)
        count.append(passes[0])
    assert count == [3, 5, 5, 5, 5, 5], count
    assert max(count) <= count[1], count


def test_finitary_runs_grow_linearly_in_word_length(monkeypatch):
    """A run on the chain automaton of a product reads only the out-edges of
    its live states: each doubling of the word multiplies the edges it reads
    by at most 2.2 (linear: 2), where reading every edge of each letter made
    it quadratic."""
    read = [0]

    class Edges(list):
        def __iter__(self):
            read[0] += len(self)
            return super().__iter__()

    class Counted(A._Run):
        def __init__(self, aut):
            super().__init__(aut)
            for by_source in self.out.values():
                for i, edges in by_source.items():
                    by_source[i] = Edges(edges)

    monkeypatch.setattr(A, "_Run", Counted)
    nat = V.from_carrier(make_instance("nat"))
    edges = {}
    for m in (2500, 5000, 10000):
        word = "ab" * (m // 2)
        read[0] = 0
        assert A.finitary_coeff(A.compile(rx.parse(word), nat, ("a", "b")), word) == 1
        edges[m] = read[0]
    for m in (2500, 5000):
        assert edges[2 * m] <= 2.2 * edges[m], edges


# Group checks of the language carrier that ran past 20 s when concatenation
# and plus explored every subset of operand states: group, seed, and the
# states ``dfa._explore`` builds once subsets keep their inclusion-maximal
# states (measured 74,265, 91,356, 182,603 and 365,278), times 1.5.
_LANG_GROUP_CASES = [("V4", 8, 111_397), ("Z4", 6, 137_034), ("Z4", 8, 273_904),
                     ("S3", 8, 547_917)]


@pytest.mark.parametrize("group, seed, most", _LANG_GROUP_CASES,
                         ids=[f"{g}-{s}" for g, s, _ in _LANG_GROUP_CASES])
def test_lang_group_checks_build_a_bounded_number_of_states(monkeypatch, group, seed, most):
    """``group_identity_check`` on ``lang`` at bound 6, one trial: the
    identities hold, the explorations build at most ``most`` states (each
    is asked once whether it accepts) and the check ends within 10 s."""
    from omegalg import dfa, omegalang, series

    built, explore = [0], dfa._explore

    def counted(alphabet, start, step, accepting):
        def asked(key):
            built[0] += 1
            return accepting(key)
        return explore(alphabet, start, step, asked)

    monkeypatch.setattr(dfa, "_explore", counted)
    start = time.perf_counter()
    report = M.group_identity_check(M.builtin_groups()[group], series.language_instance(bound=6),
                                    trials=1, seed=seed, pair=omegalang.language_pair(bound=6))
    took = time.perf_counter() - start
    assert report.ok and report.trials == 1, report.failures[:1]
    assert built[0] <= most, built[0]
    assert took < 10.0, took
