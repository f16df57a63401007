"""Independent oracles the tests check the library against.

Everything here is deliberately brute force and shares no code with the
implementation: Cauchy products and factorization sums by enumeration,
shortest paths by Floyd-Warshall, transitive closure by Warshall, Buchi
acceptance by plain reachability over the product, maximum cycle mean by
cycle enumeration; the split of an automaton into run automata with 0/1
initial and final vectors, whose behaviors must sum to the original's.  The
exceptions are routes the library no longer takes, kept as cross-checks of
the code that replaced them: the matrix route to finitary coefficients
(alpha · M^+ · beta over the series carrier), the block form of the omega
column with acceptance restricted to the first k rows, the NFA route to
language operations (subset construction and Moore minimisation) with the
letter-by-letter left action of a language on lassos and the omega power of
a language through the weighted lasso kernel, and the per-lasso product at
the end, with its Bellman value iteration and a truncated discounted sum:
the textbook approximations, with error bounds, of the exact discounted
values the library computes; the branching form of extended-real equality;
and the first forms of the zero-guarded indexed products and of the min-plus
add and mul.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

INF = math.inf


def factorizations(word):
    """All ways to cut a word into nonempty consecutive pieces."""
    n = len(word)
    if n == 0:
        return
    for bits in itertools.product([0, 1], repeat=n - 1):
        pieces = []
        start = 0
        for i, b in enumerate(bits, start=1):
            if b:
                pieces.append(word[start:i])
                start = i
        pieces.append(word[start:])
        yield pieces


def plus_coeff_brute(coeff, word, add, prod, zero):
    """(f^+, word) as an explicit sum over all ordered factorizations.

    ``prod(m, n, a, b)`` is the length-indexed product; pieces are combined
    left to right with cumulative lengths.
    """
    total = zero
    for pieces in factorizations(word):
        acc = coeff(pieces[0])
        length = len(pieces[0])
        for piece in pieces[1:]:
            acc = prod(length, len(piece), acc, coeff(piece))
            length += len(piece)
        total = add(total, acc)
    return total


def cauchy_coeff_brute(fcoeff, gcoeff, word, add, prod, zero):
    """(f·g, word) for proper f and g, as an explicit sum over the cuts of
    ``word`` into a nonempty left and a nonempty right piece."""
    total = zero
    for i in range(1, len(word)):
        total = add(total, prod(i, len(word) - i, fcoeff(word[:i]), gcoeff(word[i:])))
    return total


# --- weight forms ------------------------------------------------------------------------

def extreal_eq_isinf(a, b, tol):
    """Equality of extended reals in branching form: exact if either side is
    infinite, otherwise within ``tol`` below magnitude 1 and within ``tol``
    relative to the larger magnitude above it."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def zero_guarded_prod(inst, m, n, a, b):
    """An omega-valuation's indexed product as first written: zero through
    ``is_zero`` on either operand, else the instance's own product."""
    if inst.is_zero(a) or inst.is_zero(b):
        return inst.zero
    return inst._prod(m, n, a, b)


def zero_guarded_prod_omega(inst, m, a, b):
    if inst.is_zero(a) or inst.is_zero(b):
        return inst.zero
    return inst._prod_omega(m, a, b)


def minplus_add_min(a, b):
    """Min-plus add as first written: the builtin ``min``, which returns
    its first operand on a tie."""
    return min(a, b)


def minplus_mul_guarded(c, a, b):
    """Min-plus mul as first written: the constant ``INF`` when either
    operand equals it, else the sum saturated at ``c.cap``."""
    if a == INF or b == INF:
        return INF
    return min(a + b, c.cap)


# --- matrix routes --------------------------------------------------------------------

def _entry(aut, i, j) -> dict:
    """The matrix entry (i, j) of an automaton: letter -> the sum of the
    weights of its edges from i to j on that letter."""
    inst, out = aut.instance, {}
    for s, ch, t, w in aut.edges:
        if s == i and t == j:
            out[ch] = inst.add(out[ch], w) if ch in out else w
    return out


def finitary_coeff_matrix(aut, word: str):
    """The finitary coefficient of an automaton through alpha · M^+ · beta
    over the series carrier, which checks the run dynamic program of
    ``automata.finitary_coeff``.

    The carrier's bound is 0, so the query builds every table on the factors
    of ``word`` only.
    """
    from omegalg import matrices
    from omegalg.series import SeriesCarrier

    sc = SeriesCarrier(aut.instance, aut.alphabet, bound=0)
    rows = [[sc.poly(_entry(aut, i, j)) for j in range(aut.n)] for i in range(aut.n)]
    mp = matrices.mat_plus(sc, matrices.mat(rows))
    total = sc.zero
    for i in range(aut.n):
        for j in range(aut.n):
            coef = aut.alpha[i] * aut.beta[j]
            if coef:
                total = sc.add(total, sc.nat_act(coef, mp[i, j]))
    return total.coeff(word)


def to_run_automata(aut):
    """Split an automaton with natural initial/final coefficients into a
    family of automata with 0/1 vectors whose behaviors sum to the original
    behavior."""
    from omegalg.automata import MatrixAutomaton

    def layers(vec):
        return [tuple(int(v > t) for v in vec) for t in range(max(max(vec, default=0), 1))]

    return [MatrixAutomaton(aut.instance, aut.alphabet, aut.n, aut.k, ini, fin, aut.edges)
            for ini in layers(aut.alpha) for fin in layers(aut.beta)]


def omega_k_block(pair, m, k):
    """The omega column with acceptance restricted to the first k rows, by
    the block formula at split k: with X the accepting block and
    a = X + Y V* U, the column is (a^omega, V*U a^omega).  Plus and omega of
    the blocks use the literal split forms at their first split point."""
    from omegalg import matrices as M

    def plus(c, x):
        return M.mat_plus(c, x, split=1 if x.rows > 1 else None)

    def omega(x):
        return M.mat_omega(pair, x, split=1 if x.rows > 1 else None)

    H, V = pair.hemiring, pair.module
    n = m.rows
    if k == 0:
        return (V.zero,) * n
    if k == n:
        return omega(m)
    x, y, u, v = M._blocks(m, k)
    vp = plus(H, v)
    y_vstar = M.mat_add(H, y, M.mat_mul(H, y, vp))            # Y V*
    a = M.mat_add(H, x, M.mat_mul(H, y_vstar, u))             # X + Y V* U
    a_omega = omega(a)
    vstar_u = M.mat_add(H, u, M.mat_mul(H, vp, u))            # V* U
    return tuple(a_omega) + M._act_vec(pair, vstar_u, a_omega)


def floyd_warshall(weights):
    """All-pairs shortest paths with nonnegative weights (inf = no edge),
    including the empty path on the diagonal."""
    n = len(weights)
    dist = [[weights[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        dist[i][i] = min(dist[i][i], 0)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def shortest_nonempty_path(weights):
    """All-pairs cheapest path using at least one edge."""
    n = len(weights)
    star = floyd_warshall(weights)
    out = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # first edge i -> k, then any (possibly empty) path k -> j
                cand = weights[i][k] + star[k][j]
                if cand < out[i][j]:
                    out[i][j] = cand
    return out


def transitive_closure(adj):
    """Reflexive-transitive closure of a boolean matrix (Warshall)."""
    n = len(adj)
    out = [[bool(adj[i][j]) or i == j for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                out[i][j] = out[i][j] or (out[i][k] and out[k][j])
    return out


def nonempty_path_closure(adj):
    n = len(adj)
    star = transitive_closure(adj)
    return [[any(adj[i][k] and star[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def buchi_accepts_brute(n_states, edges, initial, repeated, stem, period):
    """Does some run on stem·period^omega visit a repeated state infinitely often?

    Plain reachability over the explicit product: a node (q, i) with q
    repeated must be reachable from the start and from itself in >= 1 step.
    ``edges`` maps letters to (source, target) pairs.
    """
    m = len(period)

    def product_succ(node):
        q, i = node
        ch = period[i]
        for s, t in edges.get(ch, ()):
            if s == q:
                yield (t, (i + 1) % m)

    def reachable(sources):
        seen = set(sources)
        work = list(sources)
        while work:
            node = work.pop()
            for nxt in product_succ(node):
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
        return seen

    mask = set(initial)
    for ch in stem:
        mask = {t for s, t in edges.get(ch, ()) if s in mask}
        if not mask:
            return False
    entry = reachable({(q, 0) for q in mask})
    for node in entry:
        q, _ = node
        if q in repeated and node in reachable(set(product_succ(node))):
            return True
    return False


def simple_cycles(n_nodes, succ):
    """All simple cycles of a small digraph, as node lists (first = smallest)."""
    cycles = []

    def extend(path, seen):
        head = path[0]
        for nxt in succ[path[-1]]:
            if nxt == head:
                cycles.append(list(path))
            elif nxt > head and nxt not in seen:
                extend(path + [nxt], seen | {nxt})

    for start in range(n_nodes):
        extend([start], {start})
    return cycles


def max_cycle_mean_brute(n_nodes, weighted_succ):
    """Maximum mean over all simple cycles; -inf if the graph is acyclic."""
    succ = [[t for t, _ in outs] for outs in weighted_succ]
    weight = {}
    for s, outs in enumerate(weighted_succ):
        for t, w in outs:
            weight[s, t] = max(w, weight.get((s, t), -math.inf))
    best = -math.inf
    for cycle in simple_cycles(n_nodes, succ):
        hops = list(zip(cycle, cycle[1:] + cycle[:1]))
        mean = sum(weight[h] for h in hops) / len(hops)
        best = max(best, mean)
    return best


def concat_languages(a, b, max_len):
    return {u + v for u in a for v in b if len(u) + len(v) <= max_len}


def plus_language(a, max_len):
    out = set(a)
    frontier = set(a)
    while frontier:
        frontier = {u + v for u in frontier for v in a
                    if len(u) + len(v) <= max_len} - out
        out |= frontier
    return {w for w in out if len(w) <= max_len}


# --- languages through NFAs ---------------------------------------------------------------
#
# The language carrier's former route: each operation turned its operands
# into NFAs, joined them (union, epsilon-free concatenation and plus bridge
# accepting states to the first step), determinised the result by subsets and
# minimised it with Moore's refinement.  The left action walked each lasso
# letter by letter, normalising every suffix, and the omega power compiled the
# DFA's omega automaton for the weighted lasso kernel.  The library now builds
# minimal DFAs directly, minimises with Hopcroft, scans a precomputed lasso
# table and walks the DFA once per rotation class; these are their
# cross-checks.

def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _step_mask(steps, mask: int, letter: str) -> int:
    out = 0
    for s in _bits(mask):
        out |= steps[s].get(letter, 0)
    return out


@dataclass
class Nfa:
    alphabet: tuple
    n: int
    start: int       # bitmask
    accept: int      # bitmask
    steps: list      # per state: dict letter -> bitmask

    def run(self, word: str) -> bool:
        mask = self.start
        for ch in word:
            mask = _step_mask(self.steps, mask, ch)
            if not mask:
                return False
        return bool(mask & self.accept)


def nfa_from_words(alphabet, words) -> Nfa:
    """Trie-shaped automaton for a finite set of nonempty words."""
    steps = [dict()]
    accept = 0
    trie = {(): 0}
    for w in words:
        node = ()
        for ch in w:
            nxt = node + (ch,)
            if nxt not in trie:
                trie[nxt] = len(steps)
                steps.append(dict())
            steps[trie[node]][ch] = steps[trie[node]].get(ch, 0) | (1 << trie[nxt])
            node = nxt
        accept |= 1 << trie[node]
    return Nfa(tuple(alphabet), len(steps), 1, accept, steps)


def _shift_steps(steps, offset):
    return [{ch: m << offset for ch, m in d.items()} for d in steps]


def _start_out(nfa: Nfa):
    out = {}
    for s in _bits(nfa.start):
        for ch, m in nfa.steps[s].items():
            out[ch] = out.get(ch, 0) | m
    return out


def nfa_union(a: Nfa, b: Nfa) -> Nfa:
    steps = [dict(d) for d in a.steps] + _shift_steps(b.steps, a.n)
    return Nfa(a.alphabet, a.n + b.n, a.start | (b.start << a.n),
               a.accept | (b.accept << a.n), steps)


def nfa_concat(a: Nfa, b: Nfa) -> Nfa:
    """Concatenation with both parts nonempty (epsilon-free bridging)."""
    steps = [dict(d) for d in a.steps] + _shift_steps(b.steps, a.n)
    b_out = {ch: m << a.n for ch, m in _start_out(b).items()}
    for s in _bits(a.accept):
        for ch, m in b_out.items():
            steps[s][ch] = steps[s].get(ch, 0) | m
    return Nfa(a.alphabet, a.n + b.n, a.start, b.accept << a.n, steps)


def nfa_plus(a: Nfa) -> Nfa:
    steps = [dict(d) for d in a.steps]
    out = _start_out(a)
    for s in _bits(a.accept):
        for ch, m in out.items():
            steps[s][ch] = steps[s].get(ch, 0) | m
    return Nfa(a.alphabet, a.n, a.start, a.accept, steps)


def dfa_to_nfa(dfa) -> Nfa:
    steps = [{ch: 1 << t for ch, t in d.items()} for d in dfa.delta]
    accept = 0
    for s in dfa.accept:
        accept |= 1 << s
    return Nfa(dfa.alphabet, dfa.n, 1 << dfa.start, accept, steps)


def determinize(nfa: Nfa):
    from omegalg.dfa import Dfa

    index = {nfa.start: 0}
    delta = [dict()]
    accept = set()
    if nfa.start & nfa.accept:
        accept.add(0)
    work = [nfa.start]
    while work:
        mask = work.pop()
        i = index[mask]
        letters = set()
        for s in _bits(mask):
            letters.update(nfa.steps[s].keys())
        for ch in letters:
            nxt = _step_mask(nfa.steps, mask, ch)
            if not nxt:
                continue
            if nxt not in index:
                index[nxt] = len(delta)
                delta.append(dict())
                if nxt & nfa.accept:
                    accept.add(index[nxt])
                work.append(nxt)
            delta[i][ch] = index[nxt]
    return Dfa(nfa.alphabet, len(delta), 0, frozenset(accept), delta)


def moore_minimize(dfa):
    """Moore partition refinement.  The states that cannot reach acceptance
    join the implicit dead state before refining, so the result is minimal."""
    from omegalg.dfa import Dfa

    n = dfa.n
    live = set(dfa.accept)
    grew = True
    while grew:
        grew = False
        for s in range(n):
            if s not in live and any(t in live for t in dfa.delta[s].values()):
                live.add(s)
                grew = True
    if dfa.start not in live:
        return Dfa(dfa.alphabet, 1, 0, frozenset(), [dict()])
    # class -1 is the dead state; an edge into it counts as no edge
    cls = [(1 if s in dfa.accept else 0) if s in live else -1 for s in range(n)]
    while True:
        sig = {}
        new = [-1] * n
        for s in live:
            key = (cls[s], tuple(sorted((ch, cls[t]) for ch, t in dfa.delta[s].items()
                                        if cls[t] >= 0)))
            new[s] = sig.setdefault(key, len(sig))
        if new == cls:
            break
        cls = new
    delta = [dict() for _ in sig]
    for s in live:
        delta[cls[s]] = {ch: cls[t] for ch, t in dfa.delta[s].items() if cls[t] >= 0}
    return Dfa(dfa.alphabet, len(sig), cls[dfa.start],
               frozenset(cls[s] for s in dfa.accept), delta)


NFA_OPS = {"add": nfa_union, "mul": nfa_concat, "plus": nfa_plus}


def language_op(op, *dfas):
    """The minimal DFA of a language operation by the NFA route."""
    return moore_minimize(determinize(NFA_OPS[op](*map(dfa_to_nfa, dfas))))


def canonical_dfa(dfa):
    """(accepting flags, transitions) of a DFA's reachable part, numbered
    breadth-first from the start in letter order: equal exactly when the
    two DFAs are isomorphic."""
    order, queue, rows = {dfa.start: 0}, [dfa.start], []
    while len(rows) < len(queue):
        s = queue[len(rows)]
        row = []
        for ch in dfa.alphabet:
            t = dfa.delta[s].get(ch)
            if t is not None and t not in order:
                order[t] = len(queue)
                queue.append(t)
            row.append(None if t is None else order[t])
        rows.append(tuple(row))
    return tuple(s in dfa.accept for s in queue), tuple(rows)


def numbered_dfa(dfa):
    """The reachable part of ``dfa`` as a DFA numbered breadth-first from
    the start in letter order, as ``dfa.minimize`` numbers its result: a
    minimal DFA so numbered is ``==`` to it exactly when they are isomorphic."""
    from omegalg.dfa import Dfa

    flags, rows = canonical_dfa(dfa)
    delta = [{ch: t for ch, t in zip(dfa.alphabet, row) if t is not None} for row in rows]
    return Dfa(dfa.alphabet, len(rows), 0, frozenset(i for i, f in enumerate(flags) if f), delta)


def act_language_walk(lang, fp, monoid) -> frozenset:
    """The left action of a language on a fingerprint, walking each lasso
    with ``letter_at`` and normalising the suffix at each accepting state;
    the scan stops when a (period position, DFA state) pair repeats."""
    d = lang.backing
    out = set()
    for w in monoid.lassos:
        state = d.start
        seen = set()
        m = len(w.period)
        pos = 0
        while True:
            state = d.delta[state].get(w.letter_at(pos))
            pos += 1
            if state is None:
                break
            if state in d.accept and w.suffix(pos) in fp:
                out.add(w)
                break
            if pos >= len(w.prefix):
                key = ((pos - len(w.prefix)) % m, state)
                if key in seen:
                    break
                seen.add(key)
    return frozenset(out)


def omega_language_kernel(lang, monoid) -> frozenset:
    """The omega power of a language by the lasso kernel: the DFA as a
    boolean weighted automaton (weight true on every transition), the
    automaton of its omega power, and the kernel's Buchi acceptance of every
    canonical lasso."""
    from omegalg import automata
    from omegalg.instances import BooleanCarrier
    from omegalg.valuation import from_carrier
    d = lang.backing
    if not d.accept:
        return monoid.zero
    fin = automata.MatrixAutomaton(
        from_carrier(BooleanCarrier()), d.alphabet, d.n, 0,
        tuple(1 if s == d.start else 0 for s in range(d.n)),
        tuple(1 if s in d.accept else 0 for s in range(d.n)),
        tuple((s, ch, t, True) for s, trans in enumerate(d.delta) for ch, t in trans.items()))
    aut = automata.omega_automaton(fin)
    return frozenset(w for w in monoid.lassos if automata.infinitary_coeff(aut, w))


# --- infinitary coefficients, one lasso product per query ---------------------------------
#
# The library's former route: build the product of the automaton with
# prefix·period for every query, find its good components with Tarjan, and
# run each strategy on that product (value iteration for discounting).  The
# library now analyses one product per period; this is its cross-check.

@dataclass
class _LassoProduct:
    nnodes: int
    length: int            # positions per state
    starts: list
    succ: list             # adjacency: node -> list of (node, weight)
    repeated: list         # node -> bool
    reach: set = field(default_factory=set)
    good_nodes: set = field(default_factory=set)
    good_sccs: list = field(default_factory=list)


def _lasso_product(aut: MatrixAutomaton, w: OmegaWord, edge_filter=None) -> _LassoProduct:
    word = w.prefix + w.period
    length, stem = len(word), len(w.prefix)
    nnodes = aut.n * length
    succ = [[] for _ in range(nnodes)]
    by_letter = {}
    for i, ch, j, wgt in aut.edges:
        by_letter.setdefault(ch, []).append((i, j, wgt))
    for pos in range(length):
        nxt = pos + 1 if pos + 1 < length else stem
        for i, j, wgt in by_letter.get(word[pos], ()):
            if edge_filter is not None and not edge_filter(wgt):
                continue
            succ[i * length + pos].append((j * length + nxt, wgt))
    starts = [q * length for q in range(aut.n) if aut.alpha[q]]
    repeated = [False] * nnodes
    for q in range(aut.k):
        for pos in range(length):
            repeated[q * length + pos] = True
    prod = _LassoProduct(nnodes, length, starts, succ, repeated)
    # forward reachability
    work = [s for s in starts]
    prod.reach = set(work)
    while work:
        node = work.pop()
        for nxt, _ in succ[node]:
            if nxt not in prod.reach:
                prod.reach.add(nxt)
                work.append(nxt)
    # strongly connected components over the reachable part
    succ_reach = [[nxt for nxt, _ in succ[v] if nxt in prod.reach] if v in prod.reach else []
                  for v in range(nnodes)]
    for comp in _sccs(nnodes, succ_reach):
        compset = set(comp)
        if not compset <= prod.reach:
            continue
        has_edge = len(comp) > 1 or any(nxt == comp[0] for nxt in succ_reach[comp[0]])
        if has_edge and any(repeated[v] for v in comp):
            prod.good_sccs.append(comp)
            prod.good_nodes.update(comp)
    return prod


def _sccs(nnodes, succ):
    import networkx as nx
    g = nx.DiGraph()
    g.add_nodes_from(range(nnodes))
    g.add_edges_from((v, t) for v in range(nnodes) for t in succ[v])
    return [sorted(comp) for comp in nx.strongly_connected_components(g)]


def _can_reach(prod: _LassoProduct, targets: set) -> set:
    pred = [[] for _ in range(prod.nnodes)]
    for v in prod.reach:
        for nxt, _ in prod.succ[v]:
            if nxt in prod.reach:
                pred[nxt].append(v)
    seen = set(targets)
    work = list(targets)
    while work:
        node = work.pop()
        for p in pred[node]:
            if p not in seen:
                seen.add(p)
                work.append(p)
    return seen


# --- infinitary strategies ------------------------------------------------------------
#
# A run through the zero weight (-inf) is worth zero, so the quantitative
# strategies build their products without zero-weight edges.

def _nonzero(wgt):
    return wgt != -INF


def _strategy_boolean(aut, w, tol):
    prod = _lasso_product(aut, w, edge_filter=lambda wt: bool(wt))
    return (bool(prod.good_sccs), 0.0)


def _strategy_sup(aut, w, tol):
    inst = aut.instance
    prod = _lasso_product(aut, w, edge_filter=_nonzero)
    if not prod.good_sccs:
        return inst.zero, 0.0
    usable = _can_reach(prod, prod.good_nodes)
    best = inst.zero
    for v in prod.reach:
        for nxt, wgt in prod.succ[v]:
            if nxt in usable:
                best = max(best, wgt)
    return best, 0.0


def _strategy_limsup(aut, w, tol):
    inst = aut.instance
    prod = _lasso_product(aut, w, edge_filter=_nonzero)
    best = inst.zero
    for comp in prod.good_sccs:
        compset = set(comp)
        for v in comp:
            for nxt, wgt in prod.succ[v]:
                if nxt in compset:
                    best = max(best, wgt)
    return best, 0.0


def _strategy_cycle_mean(aut, w, tol):
    inst = aut.instance
    prod = _lasso_product(aut, w, edge_filter=_nonzero)
    best = inst.zero
    for comp in prod.good_sccs:
        best = max(best, _max_cycle_mean(prod, comp))
    return best, 0.0


def _max_cycle_mean(prod: _LassoProduct, comp: list) -> float:
    """Karp's maximum cycle mean on the subgraph induced by one component."""
    index = {v: i for i, v in enumerate(comp)}
    n = len(comp)
    edges = [(index[v], index[nxt], wgt) for v in comp
             for nxt, wgt in prod.succ[v] if nxt in index]
    if any(wgt == INF for _, _, wgt in edges):
        return INF  # every edge of a component lies on one of its cycles
    d = [[-INF] * n for _ in range(n + 1)]
    d[0][0] = 0.0
    for k in range(1, n + 1):
        for u, v, wgt in edges:
            if d[k - 1][u] > -INF:
                cand = d[k - 1][u] + wgt
                if cand > d[k][v]:
                    d[k][v] = cand
    best = -INF
    for v in range(n):
        if d[n][v] == -INF:
            continue
        worst = INF
        for k in range(n):
            if d[k][v] > -INF:
                worst = min(worst, (d[n][v] - d[k][v]) / (n - k))
        if worst < INF:
            best = max(best, worst)
    return best


def _strategy_lattice(aut, w, tol):
    """Join over thresholds x of: some successful run uses only weights >= x."""
    inst = aut.instance
    lattice = inst.monoid
    best = lattice.zero
    for x in lattice.elements():
        if lattice.eq(x, lattice.zero):
            continue  # contributes the join identity
        prod = _lasso_product(aut, w,
                              edge_filter=lambda wt: lattice.eq(lattice.mul(wt, x), x))
        if prod.good_sccs:
            best = lattice.add(best, x)
    return best, 0.0


def _strategy_discounted(aut, w, tol):
    value, trace = discounted_value_iteration(aut, w, tol)
    return value, trace[-1][1] if trace else 0.0


def discounted_value_iteration(aut, w: OmegaWord, tol=1e-9):
    """Optimal discounted run value and the (estimate, error bound) trace.

    Iterates the Bellman step on the part of the lasso product from which a
    successful run exists; the bound after N steps is lambda^N · maxW / (1 - lambda).
    """
    inst = aut.instance
    lam = inst.params["lam"]
    prod = _lasso_product(aut, w, edge_filter=_nonzero)
    if not prod.good_sccs:
        return inst.zero, []
    live = _can_reach(prod, prod.good_nodes)
    edges = {v: [(nxt, wgt) for nxt, wgt in prod.succ[v] if nxt in live]
             for v in live}
    weights = [wgt for outs in edges.values() for _, wgt in outs]
    if any(wgt == INF for wgt in weights):
        return INF, [(INF, 0.0)]
    top = max(weights) if weights else 0.0
    starts = [s for s in prod.starts if s in live]
    if not starts:
        return inst.zero, []
    value = {v: 0.0 for v in live}
    trace = []
    step = 0
    while True:
        step += 1
        value = {v: max(wgt + lam * value[nxt] for nxt, wgt in edges[v])
                 for v in live}
        bound = lam ** step * top / (1.0 - lam)
        trace.append((max(value[s] for s in starts), bound))
        if bound <= tol:
            break
    return trace[-1][0], trace


@dataclass(frozen=True)
class Truncated:
    value: float
    error_bound: float


def truncated_discounted_sum(inst, seq, count) -> Truncated:
    """The discounted sum of the first ``count`` (length, value) pairs of an
    eventually periodic sequence, and the bound lambda^N · maxW / (1 - lambda)
    on the rest, N the total length of the pairs summed."""
    lam = inst.params["lam"]
    total, pos = 0.0, 0
    for m, d in seq.take(count):
        total += lam ** pos * d
        pos += m
    top = max(d for _, d in seq.prefix + seq.block)
    return Truncated(total, lam ** pos * top / (1.0 - lam))


_STRATEGIES = {
    "boolean": _strategy_boolean,
    "sup": _strategy_sup,
    "limsup": _strategy_limsup,
    "cycle_mean": _strategy_cycle_mean,
    "lattice": _strategy_lattice,
    "discounted": _strategy_discounted,
}


def lasso_coeff(aut, w, tol=1e-9):
    """Coefficient of the infinitary behavior of a matrix automaton at an
    ultimately periodic word, one product per query."""
    inst = aut.instance
    if aut.k == 0:
        return inst.zero
    value, _ = _STRATEGIES[inst.strategy](aut, w, tol)
    return value
