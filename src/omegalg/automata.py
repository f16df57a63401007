"""Weighted automata: matrix and run forms, behaviors, compilation, elimination.

An automaton over a weight instance is a tuple (alpha, M, beta, k): a row of
natural-number coefficients, a transition matrix whose entries are linear
combinations of letters with instance weights, a final column, and the count
k of repeated states, which by convention always occupy the leading indices.

Finitary coefficients are computed by a run dynamic program whose step uses
the length-indexed product of the instance (so averaging and discounting
weigh positions correctly); the matrix route through the plus of the
transition matrix over the series carrier is kept as an independent
cross-check.  Infinitary coefficients analyse the finite product of the
automaton with the lasso of the queried word: reachable strongly connected
components through repeated states decide acceptance, carry maxima, cycle
means, or drive a discounted value iteration, depending on the instance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import matrices
from .core import HemimodulePair, Hemiring
from .ratexpr import (ActProd, Letter, OmegaPow, OmegaSum, Plus, Prod, Scalar,
                      Sum, letters_of, to_text)
from .series import DEFAULT_BOUND, LazySeries, OmegaSeries, OmegaWord, SeriesCarrier

INF = math.inf


@dataclass(frozen=True)
class MatrixAutomaton:
    instance: object
    alphabet: tuple
    n: int
    k: int
    alpha: tuple
    beta: tuple
    edges: tuple  # (source, letter, target, weight)

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError("need 0 <= k <= n")

    def by_letter(self):
        out = {}
        for i, ch, j, w in self.edges:
            out.setdefault(ch, []).append((i, j, w))
        return out

    def entry(self, i, j) -> dict:
        inst = self.instance
        out = {}
        for s, ch, t, w in self.edges:
            if s == i and t == j:
                out[ch] = inst.add(out[ch], w) if ch in out else w
        return out


@dataclass(frozen=True)
class RunAutomaton:
    instance: object
    alphabet: tuple
    n: int
    k: int
    initial: frozenset
    final: frozenset
    gamma: tuple  # ((source, letter, target, weight), ...), zero weights omitted

    def weight(self, i, ch, j):
        for s, c, t, w in self.gamma:
            if (s, c, t) == (i, ch, j):
                return w
        return self.instance.zero


def to_matrix_automaton(run: RunAutomaton) -> MatrixAutomaton:
    return MatrixAutomaton(
        run.instance, run.alphabet, run.n, run.k,
        tuple(1 if i in run.initial else 0 for i in range(run.n)),
        tuple(1 if i in run.final else 0 for i in range(run.n)),
        tuple(run.gamma))


def to_run_automata(aut: MatrixAutomaton) -> list:
    """Split an automaton with natural initial/final coefficients into a
    family of run automata with 0/1 vectors whose behaviors sum to the
    original behavior."""
    def layers(vec):
        top = max(vec) if vec else 0
        if top == 0:
            return [frozenset()]
        return [frozenset(i for i, v in enumerate(vec) if v > t) for t in range(top)]

    out = []
    for ini in layers(aut.alpha):
        for fin in layers(aut.beta):
            out.append(RunAutomaton(aut.instance, aut.alphabet, aut.n, aut.k,
                                    ini, fin, tuple(aut.edges)))
    return out


# --- finitary behavior -------------------------------------------------------------

def _as_matrix_form(aut):
    return to_matrix_automaton(aut) if isinstance(aut, RunAutomaton) else aut


def finitary_coeff(aut, word: str):
    """Sum over successful runs on ``word`` of the valuation of their weights."""
    aut = _as_matrix_form(aut)
    if not word:
        raise ValueError("the finitary behavior is a proper series: no empty word")
    inst = aut.instance
    by_letter = aut.by_letter()
    vec = {}
    for i, j, w in by_letter.get(word[0], ()):
        if aut.alpha[i]:
            val = inst.nat_act(aut.alpha[i], w)
            vec[j] = inst.add(vec[j], val) if j in vec else val
    for pos in range(1, len(word)):
        nxt = {}
        for i, j, w in by_letter.get(word[pos], ()):
            if i in vec:
                val = inst.prod(pos, 1, vec[i], w)
                nxt[j] = inst.add(nxt[j], val) if j in nxt else val
        vec = nxt
        if not vec:
            break
    total = inst.zero
    for j, v in vec.items():
        if aut.beta[j]:
            total = inst.add(total, inst.nat_act(aut.beta[j], v))
    return total


def batch_finitary(aut, max_len: int) -> dict:
    """Coefficients of every nonempty word of length <= max_len, one sweep."""
    aut = _as_matrix_form(aut)
    inst = aut.instance
    by_letter = aut.by_letter()

    def finish(vec):
        total = inst.zero
        for j, v in vec.items():
            if aut.beta[j]:
                total = inst.add(total, inst.nat_act(aut.beta[j], v))
        return total

    out = {}
    frontier = []
    for ch in aut.alphabet:
        vec = {}
        for i, j, w in by_letter.get(ch, ()):
            if aut.alpha[i]:
                val = inst.nat_act(aut.alpha[i], w)
                vec[j] = inst.add(vec[j], val) if j in vec else val
        out[ch] = finish(vec)
        frontier.append((ch, vec))
    for pos in range(1, max_len):
        nxt_frontier = []
        for word, vec in frontier:
            for ch in aut.alphabet:
                nvec = {}
                for i, j, w in by_letter.get(ch, ()):
                    if i in vec:
                        val = inst.prod(pos, 1, vec[i], w)
                        nvec[j] = inst.add(nvec[j], val) if j in nvec else val
                out[word + ch] = finish(nvec)
                if nvec:
                    nxt_frontier.append((word + ch, nvec))
        frontier = nxt_frontier
    return out


def finitary_series(aut) -> LazySeries:
    """The finitary behavior as a series: run queries per word, and the
    one-sweep table of :func:`batch_finitary` where a table is needed."""
    aut = _as_matrix_form(aut)
    inst = aut.instance

    def tabulate(L):
        return {w: v for w, v in batch_finitary(aut, L).items() if not inst.eq(v, inst.zero)}

    return LazySeries(inst, aut.alphabet, DEFAULT_BOUND, lambda w: finitary_coeff(aut, w),
                      tabulate, proper=True, backing=aut)


def finitary_coeff_matrix(aut, word: str):
    """The same coefficient through alpha · M^+ · beta over the series carrier.

    The carrier's bound is 0, so the query builds every table on the factors
    of ``word`` only.
    """
    aut = _as_matrix_form(aut)
    sc = SeriesCarrier(aut.instance, aut.alphabet, bound=0)
    rows = [[sc.poly(aut.entry(i, j)) for j in range(aut.n)] for i in range(aut.n)]
    mp = matrices.mat_plus(sc, matrices.mat(rows))
    total = sc.zero
    for i in range(aut.n):
        for j in range(aut.n):
            coef = aut.alpha[i] * aut.beta[j]
            if coef:
                total = sc.add(total, sc.nat_act(coef, mp[i, j]))
    return total.coeff(word)


# --- the product with a lasso --------------------------------------------------------

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
    by_letter = aut.by_letter()
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
    from .dfa import _tarjan_sccs
    return _tarjan_sccs(nnodes, succ)


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

def _strategy_boolean(aut, w, tol):
    prod = _lasso_product(aut, w, edge_filter=lambda wt: bool(wt))
    return (bool(prod.good_sccs), 0.0)


def _strategy_sup(aut, w, tol):
    inst = aut.instance
    prod = _lasso_product(aut, w)
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
    prod = _lasso_product(aut, w)
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
    prod = _lasso_product(aut, w)
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
    prod = _lasso_product(aut, w)
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


_STRATEGIES = {
    "boolean": _strategy_boolean,
    "sup": _strategy_sup,
    "limsup": _strategy_limsup,
    "cycle_mean": _strategy_cycle_mean,
    "lattice": _strategy_lattice,
    "discounted": _strategy_discounted,
}


def infinitary_coeff(aut, w: OmegaWord, tol=1e-9, with_bound=False):
    """Coefficient of the infinitary behavior at an ultimately periodic word."""
    aut = _as_matrix_form(aut)
    inst = aut.instance
    if inst.strategy is None:
        raise ValueError(f"{inst.name}: no infinitary strategy registered")
    if aut.k == 0:
        return (inst.zero, 0.0) if with_bound else inst.zero
    value, bound = _STRATEGIES[inst.strategy](aut, w, tol)
    return (value, bound) if with_bound else value


def infinitary_series(aut) -> OmegaSeries:
    aut = _as_matrix_form(aut)
    return OmegaSeries(aut.instance, aut.alphabet,
                       lambda w: infinitary_coeff(aut, w), backing=aut)


# --- compilation -------------------------------------------------------------------

@dataclass
class _Frag:
    n: int
    k: int
    alpha: list
    beta: list
    edges: list


def _frag_letter(inst, ch) -> _Frag:
    return _Frag(2, 0, [1, 0], [0, 1], [(0, ch, 1, inst.unit)])


def _frag_scale(coef, a: _Frag) -> _Frag:
    return _Frag(a.n, a.k, [coef * x for x in a.alpha], list(a.beta), list(a.edges))


def _shift_edges(edges, off):
    return [(i + off, ch, j + off, w) for i, ch, j, w in edges]


def _frag_sum(a: _Frag, b: _Frag) -> _Frag:
    out = _Frag(a.n + b.n, 0, a.alpha + b.alpha, a.beta + b.beta,
                a.edges + _shift_edges(b.edges, a.n))
    repeated = list(range(a.k)) + [a.n + r for r in range(b.k)]
    return _reorder(out, repeated)


def _frag_prod(inst, a: _Frag, b: _Frag) -> _Frag:
    edges = a.edges + _shift_edges(b.edges, a.n)
    for p in range(a.n):
        if not a.beta[p]:
            continue
        for q, ch, j, w in b.edges:
            if b.alpha[q]:
                edges.append((p, ch, j + a.n, inst.nat_act(a.beta[p] * b.alpha[q], w)))
    return _Frag(a.n + b.n, 0, a.alpha + [0] * b.n, [0] * a.n + b.beta, edges)


def _frag_plus(inst, a: _Frag) -> _Frag:
    edges = list(a.edges)
    for p in range(a.n):
        if not a.beta[p]:
            continue
        for q, ch, j, w in a.edges:
            if a.alpha[q]:
                edges.append((p, ch, j, inst.nat_act(a.beta[p] * a.alpha[q], w)))
    return _Frag(a.n, a.k, list(a.alpha), list(a.beta), edges)


def _frag_omega(inst, a: _Frag) -> _Frag:
    """Omega power: feedback through fresh boundary copies, which become the
    repeated states; the final vector is zeroed."""
    first_steps = [(q, ch, j, w) for q, ch, j, w in a.edges if a.alpha[q]]
    targets = sorted({j for _, _, j, _ in first_steps})
    copy = {t: a.n + i for i, t in enumerate(targets)}
    edges = list(a.edges)
    for t in targets:
        for i, ch, j, w in a.edges:
            if i == t:
                edges.append((copy[t], ch, j, w))
    sources = [p for p in range(a.n) if a.beta[p]]
    sources += [copy[t] for t in targets if a.beta[t]]
    for p in sources:
        weight_out = a.beta[p] if p < a.n else a.beta[targets[p - a.n]]
        for q, ch, j, w in first_steps:
            edges.append((p, ch, copy[j], inst.nat_act(weight_out * a.alpha[q], w)))
    n = a.n + len(targets)
    out = _Frag(n, 0, a.alpha + [0] * len(targets), [0] * n, edges)
    return _reorder(out, [copy[t] for t in targets])


def _frag_act(inst, a: _Frag, b: _Frag) -> _Frag:
    edges = a.edges + _shift_edges(b.edges, a.n)
    for p in range(a.n):
        if not a.beta[p]:
            continue
        for q, ch, j, w in b.edges:
            if b.alpha[q]:
                edges.append((p, ch, j + a.n, inst.nat_act(a.beta[p] * b.alpha[q], w)))
    out = _Frag(a.n + b.n, 0, a.alpha + [0] * b.n, [0] * (a.n + b.n), edges)
    return _reorder(out, [a.n + r for r in range(b.k)])


def _reorder(frag: _Frag, repeated: list) -> _Frag:
    """Renumber states so the given repeated states occupy the leading indices."""
    rest = [s for s in range(frag.n) if s not in set(repeated)]
    order = list(repeated) + rest
    newpos = {old: new for new, old in enumerate(order)}
    return _Frag(
        frag.n, len(repeated),
        [frag.alpha[old] for old in order],
        [frag.beta[old] for old in order],
        [(newpos[i], ch, newpos[j], w) for i, ch, j, w in frag.edges])


def compile(expr, instance, alphabet=None) -> MatrixAutomaton:
    """Structural compilation of a (finitary or omega) expression."""
    if alphabet is None:
        alphabet = tuple(sorted(letters_of(expr)))
    alphabet = tuple(alphabet)

    def go(node) -> _Frag:
        if isinstance(node, Letter):
            if node.ch not in alphabet:
                raise ValueError(f"letter {node.ch!r} outside alphabet {alphabet}")
            return _frag_letter(instance, node.ch)
        if isinstance(node, Scalar):
            return _frag_scale(node.coef, go(node.arg))
        if isinstance(node, (Sum, OmegaSum)):
            return _frag_sum(go(node.left), go(node.right))
        if isinstance(node, Prod):
            return _frag_prod(instance, go(node.left), go(node.right))
        if isinstance(node, Plus):
            return _frag_plus(instance, go(node.arg))
        if isinstance(node, OmegaPow):
            return _frag_omega(instance, go(node.arg))
        if isinstance(node, ActProd):
            return _frag_act(instance, go(node.head), go(node.tail))
        raise TypeError(f"not an expression node: {node!r}")

    frag = go(expr)
    return MatrixAutomaton(instance, alphabet, frag.n, frag.k,
                           tuple(frag.alpha), tuple(frag.beta), tuple(frag.edges))


def trim(aut: MatrixAutomaton) -> MatrixAutomaton:
    """Drop states unreachable from the initial vector (behavior-preserving)."""
    adj = {}
    for i, ch, j, w in aut.edges:
        adj.setdefault(i, []).append(j)
    seen = {i for i in range(aut.n) if aut.alpha[i]}
    work = list(seen)
    while work:
        node = work.pop()
        for j in adj.get(node, ()):
            if j not in seen:
                seen.add(j)
                work.append(j)
    keep = sorted(seen)
    newpos = {old: new for new, old in enumerate(keep)}
    return MatrixAutomaton(
        aut.instance, aut.alphabet, len(keep),
        sum(1 for s in keep if s < aut.k),
        tuple(aut.alpha[s] for s in keep),
        tuple(aut.beta[s] for s in keep),
        tuple((newpos[i], ch, newpos[j], w) for i, ch, j, w in aut.edges
              if i in seen and j in seen))


def _frag_of(aut: MatrixAutomaton) -> _Frag:
    return _Frag(aut.n, aut.k, list(aut.alpha), list(aut.beta), list(aut.edges))


def _aut_of(frag: _Frag, instance, alphabet) -> MatrixAutomaton:
    return MatrixAutomaton(instance, alphabet, frag.n, frag.k,
                           tuple(frag.alpha), tuple(frag.beta), tuple(frag.edges))


def _backing_of(x) -> MatrixAutomaton:
    if isinstance(x, MatrixAutomaton):
        return x
    backing = getattr(x, "backing", None)
    if isinstance(backing, MatrixAutomaton):
        return backing
    raise ValueError("needs an automaton or an automaton-backed series")


def series_act(fin, omega) -> OmegaSeries:
    """The omega series of (finitary behavior) · (infinitary behavior).

    Accepts automata or automaton-backed series on both sides.
    """
    a, b = _backing_of(fin), _backing_of(omega)
    frag = _frag_act(a.instance, _frag_of(a), _frag_of(b))
    return infinitary_series(_aut_of(frag, a.instance, a.alphabet))


def series_omega(fin) -> OmegaSeries:
    """The omega power of a finitary behavior."""
    a = _backing_of(fin)
    frag = _frag_omega(a.instance, _frag_of(a))
    return infinitary_series(_aut_of(frag, a.instance, a.alphabet))


# --- symbolic elimination -------------------------------------------------------------

class _SymbolicExprCarrier(Hemiring):
    """Expressions with None as zero; operations build AST nodes."""

    name = "symbolic"
    zero = None

    def add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return Sum(a, b)

    def mul(self, a, b):
        if a is None or b is None:
            return None
        return Prod(a, b)

    def plus(self, a):
        if a is None:
            return None
        return Plus(a)

    def nat_act(self, n, a):
        if n == 0 or a is None:
            return None
        if n == 1:
            return a
        return Scalar(n, a) if isinstance(a, Letter) else _nfold(Sum, n, a)

    def eq(self, a, b):
        raise NotImplementedError("symbolic expressions have no decidable equality")

    def show(self, a):
        return "0" if a is None else to_text(a)


class _SymbolicOmegaModule:
    name = "symbolic-omega"
    zero = None

    def add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return OmegaSum(a, b)

    def show(self, a):
        return "0" if a is None else to_text(a)


def _nfold(node, n, a):
    out = a
    for _ in range(n - 1):
        out = node(out, a)
    return out


def _symbolic_pair() -> HemimodulePair:
    return HemimodulePair(
        hemiring=_SymbolicExprCarrier(),
        module=_SymbolicOmegaModule(),
        act=lambda e, f: None if (e is None or f is None) else ActProd(e, f),
        omega=lambda e: None if e is None else OmegaPow(e),
        name="symbolic")


def eliminate(aut: MatrixAutomaton):
    """Behaviors as expressions, by evaluating the matrix formulas symbolically.

    Returns (finitary expression, omega expression); None denotes the zero
    series on either side.  The results are semantically equal to the
    behaviors, not syntactically canonical.
    """
    aut = _as_matrix_form(aut)
    inst = aut.instance
    sym = _SymbolicExprCarrier()
    pair = _symbolic_pair()

    def entry_expr(i, j):
        out = None
        for ch, w in sorted(aut.entry(i, j).items()):
            coef = inst.scalar_of(w)
            if coef is None:
                raise ValueError(
                    f"weight {inst.show(w)} has no scalar form; cannot eliminate")
            out = sym.add(out, sym.nat_act(coef, Letter(ch)))
        return out

    m = matrices.mat([[entry_expr(i, j) for j in range(aut.n)] for i in range(aut.n)])
    mp = matrices.mat_plus(sym, m)
    fin = None
    for i in range(aut.n):
        for j in range(aut.n):
            coef = aut.alpha[i] * aut.beta[j]
            fin = sym.add(fin, sym.nat_act(coef, mp[i, j]))
    col = matrices.mat_omega_k(pair, m, aut.k)
    om = None
    for i in range(aut.n):
        if aut.alpha[i] and col[i] is not None:
            om = pair.module.add(om, _nfold(OmegaSum, aut.alpha[i], col[i]))
    return fin, om


# --- JSON ------------------------------------------------------------------------------

def automaton_to_json(aut: MatrixAutomaton) -> dict:
    inst = aut.instance
    return {
        "n": aut.n,
        "k": aut.k,
        "alphabet": list(aut.alphabet),
        "alpha": [str(x) for x in aut.alpha],
        "beta": [str(x) for x in aut.beta],
        "transitions": [
            {"from": i, "to": j, "letter": ch, "weight": inst.show(w)}
            for i, ch, j, w in aut.edges
        ],
    }


def automaton_from_json(data, instance) -> MatrixAutomaton:
    if isinstance(data, str):
        data = json.loads(data)
    edges = tuple(
        (t["from"], t["letter"], t["to"], instance.read(t["weight"]))
        for t in data["transitions"])
    return MatrixAutomaton(
        instance, tuple(data["alphabet"]), data["n"], data["k"],
        tuple(int(x) for x in data["alpha"]),
        tuple(int(x) for x in data["beta"]),
        edges)
