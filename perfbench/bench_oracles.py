"""Independent oracles for the benchmark's verdicts.

Nothing here calls into ``omegalg``: weights, series coefficients, lasso
products and shortest paths are recomputed from the raw inputs (expression
trees, automaton edge lists, matrix entries) with their own code, using
``networkx`` for graph algorithms.  Oracles run after a job's timing has
stopped and outside every traced span.

Tolerances are the ones the acceptance tests pin: exact on discrete
carriers, 1e-9 on reals, 1e-6 for discounted values.

``networkx`` and ``numpy`` are imported by the functions that use them:
loading them takes longer than the library's own imports, and workload
modules import this one during the set-up that ``setup_s`` times.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

INF = math.inf
NEG_INF = -math.inf
REAL_TOL = 1e-9
DISC_TOL = 1e-6


# --- weights ------------------------------------------------------------------

@dataclass(frozen=True)
class Weights:
    """A weight domain as the series semantics uses it.

    ``prod(m, n, a, b)`` is the length-indexed product of a factor of
    length m with a factor of length n; ``scale(k, a)`` is the k-fold sum.
    ``tol`` is None for exact comparison.
    """

    zero: object
    unit: object
    add: Callable
    prod: Callable
    scale: Callable
    tol: float | None

    def close(self, x, y) -> bool:
        return _close(self.tol, x, y)


def _close(tol, x, y) -> bool:
    """Equal within ``tol`` (exactly if None); infinities only equal themselves."""
    if tol is None or math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= tol


def _disc_prod(lam):
    return lambda m, n, a, b: a + lam ** m * b


def weights(name: str, lam: float = 0.5) -> Weights:
    """Weights of the finitary instances: bool, nat, disc and limsup-avg."""
    if name == "bool":
        return Weights(False, True, operator.or_, lambda m, n, a, b: a and b,
                       lambda k, a: a if k else False, None)
    if name == "nat":
        return Weights(0, 1, operator.add, lambda m, n, a, b: a * b,
                       lambda k, a: k * a, None)
    if name == "disc":
        return Weights(NEG_INF, 1.0, max, _disc_prod(lam),
                       lambda k, a: a if k else NEG_INF, DISC_TOL)
    if name == "limsup-avg":
        return Weights(NEG_INF, 1.0, max, lambda m, n, a, b: (m * a + n * b) / (m + n),
                       lambda k, a: a if k else NEG_INF, REAL_TOL)
    raise ValueError(f"no oracle weights for {name!r}")


# --- finitary series ------------------------------------------------------------

def series_table(expr, w: Weights, alphabet, bound: int) -> dict:
    """Nonzero coefficients of a finitary expression on words up to ``bound``.

    Bottom-up truncated tables: a sum merges tables, a product joins
    supports by length, a plus folds the factorisations of each word left
    to right (T(uv) gets T(u)·f(v)).  Nodes are read by class name and
    field, so the library's evaluator is never used.
    """
    memo = {}

    def prune(table):
        return {word: c for word, c in table.items() if c != w.zero}

    def by_len(table):
        out = defaultdict(list)
        for word, c in table.items():
            out[len(word)].append((word, c))
        return out

    def cauchy(f, g):
        glen = by_len(g)
        out = {}
        for u, a in f.items():
            for n in range(1, bound - len(u) + 1):
                for v, b in glen.get(n, ()):
                    x = w.prod(len(u), n, a, b)
                    uv = u + v
                    out[uv] = w.add(out[uv], x) if uv in out else x
        return prune(out)

    def plus(f):
        flen = by_len(f)
        tlen = {}
        out = {}
        for n in range(1, bound + 1):
            cur = dict(flen.get(n, ()))
            for i in range(1, n):
                for u, tu in tlen.get(i, ()):
                    for v, fv in flen.get(n - i, ()):
                        x = w.prod(i, n - i, tu, fv)
                        uv = u + v
                        cur[uv] = w.add(cur[uv], x) if uv in cur else x
            cur = prune(cur)
            tlen[n] = list(cur.items())
            out.update(cur)
        return out

    def go(node):
        key = id(node)
        if key in memo:
            return memo[key]
        kind = type(node).__name__
        if kind == "Letter":
            if node.ch not in alphabet:
                raise ValueError(f"letter {node.ch!r} outside {alphabet}")
            table = {node.ch: w.unit}
        elif kind == "Scalar":
            table = prune({u: w.scale(node.coef, c) for u, c in go(node.arg).items()})
        elif kind == "Sum":
            table = dict(go(node.left))
            for u, c in go(node.right).items():
                table[u] = w.add(table[u], c) if u in table else c
            table = prune(table)
        elif kind == "Prod":
            table = cauchy(go(node.left), go(node.right))
        elif kind == "Plus":
            table = plus(go(node.arg))
        else:
            raise TypeError(f"not a finitary node: {kind}")
        memo[key] = table
        return table

    return go(expr)


# --- infinitary values on lassos ----------------------------------------------------

@dataclass(frozen=True)
class Strategy:
    """How an instance values the accepting runs on a lasso."""

    kind: str              # boolean, sup, limsup, cycle_mean, discounted, lattice
    zero: object
    lam: float = 0.0
    atoms: str = ""        # lattice generators
    tol: float | None = None

    def close(self, x, y) -> bool:
        return _close(self.tol, x, y)

    def is_zero(self, wt) -> bool:
        return wt == self.zero


def strategy(name: str) -> Strategy:
    """Oracle strategy for an instance name as the lasso workload spells it."""
    if name == "bool":
        return Strategy("boolean", False)
    if name == "sup":
        return Strategy("sup", NEG_INF, tol=REAL_TOL)
    if name == "limsup":
        return Strategy("limsup", NEG_INF, tol=REAL_TOL)
    if name == "limsup-avg":
        return Strategy("cycle_mean", NEG_INF, tol=REAL_TOL)
    if name.startswith("disc"):
        lam = float(name.split("-", 1)[1]) if "-" in name else 0.5
        return Strategy("discounted", NEG_INF, lam=lam, tol=DISC_TOL)
    if name == "lattice-inf":
        return Strategy("lattice", frozenset(), atoms="abc")
    raise ValueError(f"no oracle strategy for {name!r}")


def lasso_values(n, k, alpha, edges, st: Strategy, lassos) -> list:
    """Value of the automaton (n states, the first k repeated, initial
    coefficients ``alpha``, edges (source, letter, target, weight)) on each
    lasso (prefix, period), from product graphs built here.

    One product graph is built per period and reused for every stem: its
    nodes are (state, position in the period); a good component is a
    nontrivial strongly connected component through a repeated state.
    """
    if st.kind == "lattice":
        out = [st.zero] * len(lassos)
        for x in _nonempty_subsets(st.atoms):
            kept = [e for e in edges if x <= e[3]]
            ok = lasso_values(n, k, alpha, kept, Strategy("boolean", False), lassos)
            out = [acc | x if hit else acc for acc, hit in zip(out, ok)]
        return out
    by_letter = defaultdict(list)
    for i, ch, j, wt in edges:
        if not st.is_zero(wt):
            by_letter[ch].append((i, j, wt))
    starts = frozenset(q for q in range(n) if alpha[q])
    periods = {}
    out = []
    for prefix, period in lassos:
        if period not in periods:
            periods[period] = _PeriodProduct(n, k, by_letter, period, st)
        out.append(periods[period].value(prefix, starts, by_letter, st))
    return out


def _nonempty_subsets(atoms):
    subsets = [frozenset()]
    for a in atoms:
        subsets += [s | {a} for s in subsets]
    return [s for s in subsets if s]


class _PeriodProduct:
    def __init__(self, n, k, by_letter, period, st: Strategy):
        import networkx as nx
        p = len(period)
        self.p = p
        g = nx.DiGraph()
        g.add_nodes_from(range(n * p))
        for pos, ch in enumerate(period):
            nxt = (pos + 1) % p
            for i, j, wt in by_letter.get(ch, ()):
                a, b = i * p + pos, j * p + nxt
                # parallel edges: every strategy here only needs the heaviest
                if not g.has_edge(a, b) or wt > g[a][b]["w"]:
                    g.add_edge(a, b, w=wt)
        self.g = g
        self.comps = []
        good = set()
        for comp in nx.strongly_connected_components(g):
            node = next(iter(comp))
            nontrivial = len(comp) > 1 or g.has_edge(node, node)
            if nontrivial and any(x // p < k for x in comp):
                self.comps.append(frozenset(comp))
                good |= comp
        live = set(good)
        work = list(good)
        while work:
            x = work.pop()
            for y in g.predecessors(x):
                if y not in live:
                    live.add(y)
                    work.append(y)
        self.live = live
        self.live_entries = {x // p for x in live if x % p == 0}
        self.entry = {}
        if st.kind in ("limsup", "cycle_mean"):
            comp_value = [self._comp_value(c, st) for c in self.comps]
            for q in range(n):
                node = q * p
                if node in live:
                    seen = nx.descendants(g, node) | {node}
                    self.entry[q] = max(v for c, v in zip(self.comps, comp_value) if c & seen)
        elif st.kind == "discounted":
            values = _discounted_values(g, live, st.lam)
            for q in range(n):
                if q * p in live:
                    self.entry[q] = values[q * p]

    def _comp_value(self, comp, st):
        inner = [(x, y, d["w"]) for x, y, d in self.g.edges(comp, data=True) if y in comp]
        if st.kind == "limsup":
            return max(wt for _, _, wt in inner)
        return _max_cycle_mean(list(comp), inner)

    def value(self, prefix, starts, by_letter, st: Strategy):
        p = self.p
        # backward: states at each stem position with an accepting continuation
        back = [None] * (len(prefix) + 1)
        back[len(prefix)] = self.live_entries
        for pos in range(len(prefix) - 1, -1, -1):
            nxt = back[pos + 1]
            back[pos] = {i for i, j, _ in by_letter.get(prefix[pos], ()) if j in nxt}
        # forward: states reachable at each stem position
        fwd = [set(starts)]
        for ch in prefix:
            cur = fwd[-1]
            fwd.append({j for i, j, _ in by_letter.get(ch, ()) if i in cur})
        if not fwd[-1] & back[-1]:
            return st.zero
        if st.kind == "boolean":
            return True
        entries = fwd[-1] & back[-1]
        if st.kind in ("limsup", "cycle_mean"):
            return max(self.entry[q] for q in entries)
        if st.kind == "sup":
            best = NEG_INF
            for pos, ch in enumerate(prefix):
                for i, j, wt in by_letter.get(ch, ()):
                    if i in fwd[pos] and j in back[pos + 1]:
                        best = max(best, wt)
            seen = set()
            work = [q * p for q in entries]
            seen.update(work)
            while work:
                x = work.pop()
                for y, d in self.g[x].items():
                    if y in self.live:
                        best = max(best, d["w"])
                        if y not in seen:
                            seen.add(y)
                            work.append(y)
            return best
        # discounted: fold the stem backwards from the period entry values
        value = {q: self.entry[q] for q in back[-1]}
        for pos in range(len(prefix) - 1, -1, -1):
            cur = {}
            for i, j, wt in by_letter.get(prefix[pos], ()):
                if j in value:
                    cand = wt + st.lam * value[j]
                    if i not in cur or cand > cur[i]:
                        cur[i] = cand
            value = cur
        return max(value[q] for q in starts if q in value)


def _max_cycle_mean(nodes, inner) -> float:
    """Largest mean weight over the simple cycles of one strongly connected
    component, enumerated one by one (a mean-payoff optimum is attained on
    a simple cycle; the components of these lasso products are small)."""
    import networkx as nx
    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    g.add_weighted_edges_from(inner)
    return max(sum(g[x][y]["weight"] for x, y in zip(cycle, cycle[1:] + cycle[:1])) / len(cycle)
               for cycle in nx.simple_cycles(g))


def _discounted_values(g, live, lam) -> dict:
    """Optimal discounted values on the live subgraph, by policy iteration
    with exact linear solves."""
    import numpy as np
    nodes = sorted(live)
    index = {x: i for i, x in enumerate(nodes)}
    succ = {x: [(y, d["w"]) for y, d in g[x].items() if y in live] for x in nodes}
    policy = {x: succ[x][0] for x in nodes}
    size = len(nodes)
    while True:
        mat = np.eye(size)
        rhs = np.zeros(size)
        for x, (y, wt) in policy.items():
            mat[index[x], index[y]] -= lam
            rhs[index[x]] = wt
        val = np.linalg.solve(mat, rhs)
        changed = False
        for x in nodes:
            y0, w0 = policy[x]
            current = w0 + lam * val[index[y0]]
            for y, wt in succ[x]:
                if wt + lam * val[index[y]] > current + 1e-12:
                    policy[x] = (y, wt)
                    current = wt + lam * val[index[y]]
                    changed = True
        if not changed:
            return {x: float(val[index[x]]) for x in nodes}


# --- matrices ---------------------------------------------------------------------------

def _graph(entries, keep):
    import networkx as nx
    g = nx.DiGraph()
    n = len(entries)
    g.add_nodes_from(range(n))
    for i in range(n):
        for j in range(n):
            if keep(entries[i][j]):
                g.add_edge(i, j, weight=entries[i][j])
    return g


def _cycle_nodes(g) -> set:
    import networkx as nx
    out = set()
    for comp in nx.strongly_connected_components(g):
        node = next(iter(comp))
        if len(comp) > 1 or g.has_edge(node, node):
            out |= comp
    return out


def minplus_matrix_oracle(entries, op: str, k: int | None = None):
    """Shortest paths for star (possibly empty) and plus (nonempty);
    omega is the cheapest way to reach a zero-weight cycle, restricted to
    cycles through one of the first k states for omega_k."""
    import networkx as nx
    n = len(entries)
    g = _graph(entries, lambda x: x != INF)
    fw = nx.floyd_warshall(g)
    star = [[fw[i][j] for j in range(n)] for i in range(n)]
    if op == "star":
        return star
    if op == "plus":
        return [[min((entries[i][m] + star[m][j] for m in range(n) if entries[i][m] != INF),
                     default=INF) for j in range(n)] for i in range(n)]
    zero_cycle = _cycle_nodes(_graph(entries, lambda x: x == 0))
    if op == "omega_k":
        zero_cycle = {j for j in zero_cycle if j < k}
    return [min((star[i][j] for j in zero_cycle), default=INF) for i in range(n)]


def bool_matrix_oracle(entries, op: str, k: int | None = None):
    """Reachability: star by paths of any length, plus by nonempty paths,
    omega by reaching a cycle (through one of the first k states for omega_k)."""
    import networkx as nx
    n = len(entries)
    g = _graph(entries, bool)
    reach = [nx.descendants(g, i) | {i} for i in range(n)]
    if op == "star":
        return [[j in reach[i] for j in range(n)] for i in range(n)]
    if op == "plus":
        return [[any(entries[i][m] and j in reach[m] for m in range(n)) for j in range(n)]
                for i in range(n)]
    cyc = _cycle_nodes(g)
    if op == "omega_k":
        cyc = {j for j in cyc if j < k}
    return [bool(cyc & reach[i]) for i in range(n)]


# --- counterexamples ---------------------------------------------------------------------

def product_omega_closed_form(depth: int) -> list:
    """Right-hand side of the product-omega witness at each block boundary:
    (S_k + n_{k+1}) / (2 S_k + n_{k+1}) with n_i = 4^(i^2), S_k = n_1 + ... + n_k."""
    lengths = [4 ** (i * i) for i in range(1, depth + 2)]
    out = []
    for k in range(1, depth + 1):
        partial = sum(lengths[:k])
        out.append(Fraction(partial + lengths[k], 2 * partial + lengths[k]))
    return out
