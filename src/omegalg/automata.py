"""Weighted automata: behaviors, compilation, elimination.

An automaton over a weight instance is a tuple (alpha, M, beta, k): a row of
natural-number coefficients, a transition matrix whose entries are linear
combinations of letters with instance weights, a final column, and the count
k of repeated states, which by convention always occupy the leading indices.

Finitary coefficients are computed by a run dynamic program whose step uses
the length-indexed product of the instance (so averaging and discounting
weigh positions correctly).  Infinitary coefficients come from one lasso
kernel: the product of the automaton with the period of the queried word,
the same for every rotation of the period, is analysed once per rotation
class and set of kept edges, and the analysis is kept on the automaton.  Its
strongly connected components through repeated states decide acceptance
and, depending on the instance, give each live node a maximum, a Howard
cycle mean or an exact discounted value (policy iteration).  Every strategy
answers a query the same way: it reads the entry values at the rotation's
offset, kept per period, and walks the stem forward from the initial
states, one set of states per letter, folding it back onto those values
where the strategy weighs the stem's edges.  A word with a letter outside
the alphabet raises ValueError, in the finitary and infinitary query alike.
"""

from __future__ import annotations

import itertools
import json
import math

from . import series
from .core import CommutativeMonoid, Frozen, HemimodulePair, Hemiring
from .ratexpr import (ActProd, Letter, OmegaPow, OmegaSum, Plus, Prod, Scalar,
                      Sum, check_alphabet, fold, to_text)
from .series import OmegaSeries, OmegaWord, Series, _check_word, _least_rotation
from .valuation import _disc_periodic

INF = math.inf


class MatrixAutomaton(Frozen):
    """A weighted automaton on states 0..n-1, of which the first ``k``
    repeat; immutable."""

    __slots__ = ("instance", "alphabet", "n", "k", "alpha", "beta", "edges", "_memo", "_letters")

    def __init__(self, instance, alphabet: tuple, n: int, k: int, alpha: tuple, beta: tuple,
                 edges: tuple):
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        # an edge is (source, letter, target, weight); ``_memo`` holds the run
        # dynamic program of this automaton (its out-edges per letter and
        # source) and its lasso kernel, each resolved once: the kernel's kept
        # edge sets, each one object a query reads, with node values per
        # rotation class and entry values per period; ``_letters`` is the
        # alphabet's letter string, which a query's letter test strips
        super().__init__(instance, alphabet, n, k, alpha, beta, edges, {},
                         series._letter_string(tuple(alphabet)))


def _out_edges(edges) -> dict:
    """The out-edges of ``(source, letter, target, weight)`` edges, letter ->
    source -> [(target, weight)], in edge order."""
    out = {}
    for i, ch, j, w in edges:
        out.setdefault(ch, {}).setdefault(i, []).append((j, w))
    return out


# --- finitary behavior -------------------------------------------------------------

class _Run:
    """The run dynamic program of an automaton, made once per automaton
    (:func:`_run`).  ``step(vec, pos, ch)`` reads the letter ``ch`` at
    position ``pos`` into the run values per state, at position 0 from
    ``start``, the initial coefficients, and reads only the out-edges of the
    states in ``vec`` (``out[letter][source]``, in edge order); ``finish``
    sums the values in final states."""

    def __init__(self, aut):
        self.inst, self.beta = aut.instance, aut.beta
        self.start = {i: a for i, a in enumerate(aut.alpha) if a}
        self.out = _out_edges(aut.edges)

    def step(self, vec, pos, ch) -> dict:
        inst, nxt, out = self.inst, {}, self.out.get(ch, {})
        for i, x in vec.items():
            for j, w in out.get(i, ()):
                val = inst.prod(pos, 1, x, w) if pos else inst.nat_act(x, w)
                nxt[j] = inst.add(nxt[j], val) if j in nxt else val
        return nxt

    def finish(self, vec):
        inst, beta, total = self.inst, self.beta, self.inst.zero
        for j, v in vec.items():
            if beta[j]:
                total = inst.add(total, inst.nat_act(beta[j], v))
        return total


def _run(aut) -> _Run:
    """The automaton's run dynamic program, built on first use."""
    run = aut._memo.get("run")
    if run is None:
        run = aut._memo["run"] = _Run(aut)
    return run


def finitary_coeff(aut, word: str):
    """Sum over successful runs on ``word`` of the valuation of their weights."""
    if not word:
        raise ValueError("the finitary behavior is a proper series: no empty word")
    run = _run(aut)
    vec = run.start
    for pos, ch in enumerate(word):
        vec = run.step(vec, pos, ch)
        if not vec:  # no run reads on: a letter outside the alphabet has no edge
            if word.strip(aut._letters):
                series._check_letters(word, aut.alphabet)
            break
    return run.finish(vec)


def batch_finitary(aut, max_len: int) -> dict:
    """Coefficients of the nonempty words of length <= max_len, one sweep; a
    word missing from the table (no run reads it) has coefficient zero."""
    run = _run(aut)
    out = {}
    frontier = [("", run.start)]
    for pos in range(max_len):
        nxt_frontier = []
        for word, vec in frontier:
            for ch in aut.alphabet:
                nvec = run.step(vec, pos, ch)
                out[word + ch] = run.finish(nvec)
                if nvec:
                    nxt_frontier.append((word + ch, nvec))
        frontier = nxt_frontier
    return out


def finitary_series(aut) -> Series:
    """The finitary behavior as a series of bound 0 with the empty table:
    :func:`finitary_coeff` answers every nonempty word, and the empty word
    has coefficient zero."""
    return Series(aut.instance, aut.alphabet, 0, {},
                  lambda word, memo: finitary_coeff(aut, word), backing=aut)


# --- the lasso kernel ------------------------------------------------------------------
#
# An ultimately periodic word u·v^omega is read by the product of the
# automaton with the cycle graph of v: nodes (state, position in v), entered
# at position 0 once the stem u has been read.  A run on the word is
# successful iff it ends in a good component: a strongly connected component
# of the product with at least one edge and a repeated state.  Every rotation
# of v has the same product, entered at another position, so the product is
# built on the least rotation of v and explored from every node that has a
# predecessor; a query enters it one letter into v, at such a node.  Each
# strategy reduces it to one value per live node, once per set of kept edges
# and rotation class, kept in the automaton's memo.  A cycle of a good
# component projects to a closed walk inside one strongly connected component
# of the kept edges that passes a repeated state and reads every letter of v,
# so a class whose letters fit in no such component of the kept edges has no
# live node: it gets no product and no analysis, and its periods the entry
# values {}.  (A class that fits may still have none.)  Each kept edge set is one
# object, made once per automaton with the one strategy that analyses it, and
# holds all a query reads (the edges, the strategy's node values and stem
# step, the initial states, the entry values per period), so a query starts
# with one memo probe.  One function, ``_best``, answers every query
# from the entry values and a forward walk of the stem, one set of states
# per letter; nothing is kept per stem.


class _Period:
    """The product of the kept edges with the cycle graph of one period,
    explored from the nodes with a predecessor: its strongly connected
    components (sinks first, as Tarjan emits them), which of them are good,
    and the live nodes, those that reach a good one."""

    def __init__(self, aut, out, period):
        m = len(period)
        nnodes = aut.n * m
        succ = [[] for _ in range(nnodes)]
        for pos, ch in enumerate(period):
            nxt = (pos + 1) % m
            for i, outs in out.get(ch, {}).items():
                succ[i * m + pos] = [(j * m + nxt, wgt) for j, wgt in outs]
        self.succ = succ
        self.sccs = _sccs(succ, {t for outs in succ for t, _ in outs})
        self.comp_of = comp_of = [-1] * nnodes
        for c, comp in enumerate(self.sccs):
            for v in comp:
                comp_of[v] = c
        repeated = aut.k * m  # node q·m + pos has a repeated state iff it is below k·m
        self.good = [(len(comp) > 1 or any(t == comp[0] for t, _ in succ[comp[0]]))
                     and any(v < repeated for v in comp) for comp in self.sccs]
        # successors come first, so one pass settles which components are live
        live = []
        for c, comp in enumerate(self.sccs):
            live.append(self.good[c] or any(live[comp_of[t]] for v in comp
                                            for t, _ in succ[v] if comp_of[t] != c))
        self.live = [c >= 0 and live[c] for c in comp_of]

    def reach_max(self, own) -> list:
        """Per component, the largest ``own`` value (None: none) among the
        components it reaches, itself included."""
        best = []
        for c, comp in enumerate(self.sccs):
            acc = own[c]
            for v in comp:
                for t, _ in self.succ[v]:
                    d = best[self.comp_of[t]] if self.comp_of[t] != c else None
                    if d is not None and (acc is None or d > acc):
                        acc = d
            best.append(acc)
        return best

    def at_nodes(self, per_comp) -> list:
        """Per node, its component's value if the node is live, else None."""
        return [per_comp[c] if alive else None for c, alive in zip(self.comp_of, self.live)]

    def sup_edges(self) -> list:
        """Per component, the largest weight on an edge into a live node
        (None for the dead components, which have no such edge)."""
        return [max((wgt for v in comp for t, wgt in self.succ[v] if self.live[t]),
                    default=None) for comp in self.sccs]


def _sccs(succ, roots):
    """Tarjan's strongly connected components of the part of a weighted
    graph (node -> [(target, weight)]) reachable from ``roots``, found
    iteratively; a component is emitted after every component it reaches."""
    nnodes = len(succ)
    index = [0] * nnodes
    low = [0] * nnodes
    on_stack = [False] * nnodes
    sccs = []
    counter = 1
    stack = []
    for root in roots:
        if index[root]:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        on_stack[root] = True
        stack.append(root)
        while work:
            node, it = work[-1]
            for nxt, _ in it:
                if not index[nxt]:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    on_stack[nxt] = True
                    stack.append(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    break
                if on_stack[nxt] and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == node:
                            break
                    sccs.append(comp)
    return sccs


def _max_cycle_mean(succ, comp: list) -> float:
    """Maximum cycle mean of one strongly connected component, by Howard's
    policy iteration (Cochet-Terrasson et al. 1998): every node follows one
    out-edge, the cycles of that policy give each node a mean and a bias,
    and a node switches to an edge that leads to a larger mean or, failing
    that, to a larger bias; when none does, the largest mean is the maximum."""
    inside = set(comp)
    edges = {v: [(t, wgt) for t, wgt in succ[v] if t in inside] for v in comp}
    if any(wgt == INF for outs in edges.values() for _, wgt in outs):
        return INF  # every edge of a component lies on one of its cycles
    policy = {v: max(outs, key=lambda e: e[1]) for v, outs in edges.items()}
    while True:
        # (mean, bias) per node; the least node of each cycle has bias 0
        value = _walk_values(policy, lambda ws: (sum(ws) / len(ws), 0.0),
                             lambda wgt, t: (t[0], wgt - t[0] + t[1]))
        # a larger mean first; once no edge leads to one, every node of the
        # (strongly connected) component has the same mean, so a larger bias
        if not (_switch(policy, edges, lambda v, t, wgt: value[t][0])
                or _switch(policy, edges, lambda v, t, wgt: wgt - value[v][0] + value[t][1])):
            return max(mean for mean, _ in value.values())


def _switch(policy, edges, gain) -> bool:
    """Point each node at its out-edge (t, wgt) of largest ``gain(v, t, wgt)``
    where that beats the gain of the edge it follows beyond rounding; did any
    node change its edge?  A value is summed along at most ``len(edges)``
    edges, each addition rounding by up to 2**-52 relative, so a smaller gain
    may be rounding alone: accepting it could make edges take turns for ever."""
    slack = 1e-12 + len(edges) * 2.0 ** -52
    switched = False
    for v, outs in edges.items():
        old = policy[v]
        cur = gain(v, *old)
        for t, wgt in outs:
            cand = gain(v, t, wgt)
            if cand > cur + slack * (1.0 + abs(cur)):
                policy[v], cur = (t, wgt), cand
        switched = switched or policy[v] != old
    return switched


def _walk_values(policy, cycle_value, step) -> dict:
    """A value for every node under a positional policy (node -> (target,
    weight)), in linear time.  Each node's walk is a lasso: the least node of
    its cycle is valued by ``cycle_value`` of the cycle's weights from there,
    every other node by ``step(weight, value of its target)``."""
    value = {}
    for start in policy:
        path, on_path = [], {}
        v = start
        while v not in value and v not in on_path:
            on_path[v] = len(path)
            path.append(v)
            v = policy[v][0]
        if v in on_path:
            cycle = path[on_path[v]:]
            del path[on_path[v]:]
            head = cycle.index(min(cycle))
            path += cycle[head + 1:] + cycle[:head]
            value[cycle[head]] = cycle_value([policy[u][1] for u in cycle[head:] + cycle[:head]])
        for u in reversed(path):
            t, wgt = policy[u]
            value[u] = step(wgt, value[t])
    return value


def _optimal_discounted(edges: dict, lam) -> dict:
    """Optimal discounted values of the infinite walks of a graph in which
    every node has an out-edge (node -> [(target, weight)]), by policy
    iteration: value the policy exactly (a cycle by the closed form of its
    periodic sum), switch each node to a strictly better edge, stop when
    none is (Howard; cf. Zwick & Paterson 1996)."""
    valw = _disc_periodic(lam)
    policy = {v: max(outs, key=lambda e: e[1]) for v, outs in edges.items()}
    while True:
        value = _walk_values(policy, lambda ws: valw((), tuple((1, w) for w in ws)),
                             lambda wgt, v: wgt + lam * v)
        if not _switch(policy, edges, lambda v, t, wgt: wgt + lam * value[t]):
            return value


# --- infinitary strategies: node values on a rotation class, stem steps -----------------

def _nodes_sup(aut, per):
    """Largest weight on an edge that some successful run takes."""
    return per.at_nodes(per.reach_max(per.sup_edges()))


def _nodes_limsup(aut, per):
    """Largest weight inside a reachable good component."""
    own = [max(wgt for v in comp for t, wgt in per.succ[v] if per.comp_of[t] == c)
           if per.good[c] else None for c, comp in enumerate(per.sccs)]
    return per.at_nodes(per.reach_max(own))


def _nodes_cycle_mean(aut, per):
    """Largest cycle mean of a reachable good component (Howard, once each)."""
    own = [_max_cycle_mean(per.succ, comp) if per.good[c] else None
           for c, comp in enumerate(per.sccs)]
    return per.at_nodes(per.reach_max(own))


def _nodes_discounted(aut, per):
    """Exact optimal discounted values, on a product without zero-weight
    edges.  A node that reaches a live edge of weight INF is worth INF; the
    other live nodes keep all their live successors among themselves, and
    policy iteration values them."""
    top = per.reach_max(per.sup_edges())
    edges = {v: [(t, wgt) for t, wgt in outs if per.live[t]]
             for v, outs in enumerate(per.succ)
             if per.live[v] and top[per.comp_of[v]] != INF}
    value = _optimal_discounted(edges, aut.instance.params["lam"])
    return [value.get(v, INF) if alive else None for v, alive in enumerate(per.live)]


def _discount_step(aut):
    lam = aut.instance.params["lam"]
    return lambda wgt, v: wgt + lam * v


# strategy -> (node values on a rotation class, stem step or None): with a
# step, step(aut)(wgt, v) is the value of a transition of weight wgt into a
# state worth v, and the stem is folded onto the entry values with it
_STRATEGIES = {
    "boolean": (lambda aut, per: [True if alive else None for alive in per.live], None),
    "sup": (_nodes_sup, lambda aut: max),
    "limsup": (_nodes_limsup, None),
    "cycle_mean": (_nodes_cycle_mean, None),
    "discounted": (_nodes_discounted, _discount_step),
}


class _Kept:
    """One kept edge set of an automaton and all a query reads on it: the
    edges, letter -> source -> [(target, weight)]; the letter sets of the
    strongly connected components of the kept edges that have an edge and a
    repeated state, within one of which a period's letters must fit for its
    class to have a live node; the node-value function and stem step (or
    None) of the one strategy it is analysed under; the initial states; node
    values per least rotation analysed, and entry values per lasso period."""

    def __init__(self, aut, kept, strategy, initial):
        self.out = _out_edges(kept)
        succ = [[] for _ in range(aut.n)]
        for i, ch, j, _ in kept:
            succ[i].append((j, ch))
        self.cycle_letters = []
        for comp in _sccs(succ, range(aut.n)):
            inside = set(comp)
            letters = {ch for v in comp for t, ch in succ[v] if t in inside}
            if letters and min(comp) < aut.k:
                self.cycle_letters.append(letters)
        self.nodes, step = _STRATEGIES[strategy]
        self.step = step(aut) if step else None
        self.initial = initial
        self.analyses = {}
        self.entries = {}


def _entry_values(aut, kept, period) -> dict:
    """Live entry state (its node having a predecessor) -> value on the
    product of ``kept`` with the lasso period ``period``, kept per period: the
    node values of its least rotation, read one letter into the period,
    where the lasso enters the product; {} without a product when the
    period's letters fit in none of ``kept.cycle_letters``."""
    if not any(set(period) <= letters for letters in kept.cycle_letters):
        values = kept.entries[period] = {}
        return values
    m, start = len(period), _least_rotation(period)
    least = period[start:] + period[:start]
    nodes = kept.analyses.get(least)
    if nodes is None:
        nodes = kept.analyses[least] = kept.nodes(aut, _Period(aut, kept.out, least))
    entry = (1 - start) % m
    values = kept.entries[period] = {q: nodes[q * m + entry] for q in range(aut.n)
                                     if nodes[q * m + entry] is not None}
    return values


def _best(aut, kept, w):
    """The best value of a successful run on the lasso ``w`` over one kept
    edge set of the automaton's kernel, or None if there is none.  Read as
    u·v[0] then (v[1:]·v[0])^omega, one letter into its period, every run is
    at a product node with a predecessor.  The stem is walked forward from
    the initial states, one set of states per letter, and the walk stops at
    an empty set, with None; with a step, the entry values are folded back
    over the sets it passed, best per state.  The caller has tested the
    letters of ``w`` against the alphabet."""
    period, step = w.period, kept.step
    values = kept.entries.get(period)
    if values is None:
        values = _entry_values(aut, kept, period)
    if not values:
        return None
    out, states, passed = kept.out, kept.initial, []
    for ch in w.prefix + period[0]:
        edges = out.get(ch)
        if edges is None:
            return None
        if step is not None:
            passed.append((states, edges))
        states = {j for i in states for j, _ in edges.get(i, ())}
        if not states:
            return None
    # with a step, fold back to the first set passed: the initial states
    for states, edges in reversed(passed):
        prev = {}
        for i in states:
            for j, wgt in edges.get(i, ()):
                if j in values:
                    cand = step(wgt, values[j])
                    if i not in prev or cand > prev[i]:
                        prev[i] = cand
        values = prev
    return max((values[q] for q in states if q in values), default=None)


def _kernel(aut):
    """What every query on ``aut`` reads, kept in its memo: (kept, groups).
    A strategy other than the lattice keeps one edge set and has no groups.
    The lattice has no one set but a (set, join of the thresholds) per group
    of thresholds that keep the same edges, each set analysed under
    ``"boolean"``.  Without a repeated state there is neither.  A run
    through the zero weight is worth zero, so no set keeps a zero-weight
    edge: the quantitative strategies drop -inf, the lattice keeps weights
    >= the threshold."""
    inst = aut.instance
    if inst.strategy is None:
        raise ValueError(f"{inst.name}: no infinitary strategy registered")
    initial = frozenset(q for q in range(aut.n) if aut.alpha[q])
    if aut.k == 0:
        kernel = None, ()
    elif inst.strategy != "lattice":
        keep = bool if inst.strategy == "boolean" else (lambda wgt: wgt != -INF)
        kernel = _Kept(aut, [e for e in aut.edges if keep(e[3])], inst.strategy, initial), ()
    else:
        lattice, groups = inst.monoid, {}
        for x in lattice.elements():
            if not lattice.eq(x, lattice.zero):
                kept = tuple(e for e in aut.edges if lattice.eq(lattice.mul(e[3], x), x))
                groups[kept] = lattice.add(groups[kept], x) if kept in groups else x
        kernel = None, tuple((_Kept(aut, kept, "boolean", initial), x)
                             for kept, x in groups.items())
    aut._memo["kernel"] = kernel
    return kernel


def infinitary_coeff(aut, w: OmegaWord):
    """Coefficient of the infinitary behavior at an ultimately periodic word
    (exact for every strategy).  The lattice joins the thresholds x at which
    some successful run uses only weights >= x; thresholds that keep the
    same edges accept the same lassos, so each such group is joined once per
    automaton and tested once per query.  A letter outside the automaton's
    alphabet raises ValueError: the word's own letter string is stripped of
    the alphabet's, and only a leftover runs the loop that names it."""
    one, groups = aut._memo.get("kernel") or _kernel(aut)
    if w._letters.strip(aut._letters):
        series._check_letters(w.prefix + w.period, aut.alphabet)
    if one is not None:
        best = _best(aut, one, w)
        return aut.instance.zero if best is None else best
    monoid = aut.instance.monoid
    best = monoid.zero
    for kept, x in groups:
        if _best(aut, kept, w):
            best = monoid.add(best, x)
    return best


def infinitary_series(aut) -> OmegaSeries:
    return OmegaSeries(aut.instance, aut.alphabet,
                       lambda w: infinitary_coeff(aut, w), backing=aut)


# --- compilation -------------------------------------------------------------------

_STATES = itertools.count()  # a state's number, taken when it is made (atomic in CPython)


class _Frag:
    """An automaton under construction, less its initial state: its states in
    the order they were made, the repeated states in the order they will
    lead, sparse final coefficients (state -> non-zero natural), its edges,
    and its first steps (coefficient, letter, target, weight), the edges the
    initial state will take.  No builder renumbers or changes a fragment, so
    fragments share their lists and maps; ``read`` marks one a parent has
    read, which a second reader copies."""

    __slots__ = ("states", "repeated", "beta", "edges", "first", "read")

    def __init__(self, states: list, repeated: list, beta: dict, edges: list, first: list,
                 read: bool = False):
        self.states = states
        self.repeated = repeated
        self.beta = beta
        self.edges = edges
        self.first = first
        self.read = read


def _frag_scale(coef, a: _Frag) -> _Frag:
    return _Frag(a.states, a.repeated, a.beta, a.edges,
                 [(coef * y, ch, j, w) for y, ch, j, w in a.first] if coef else [])


def _frag_sum(a: _Frag, b: _Frag) -> _Frag:
    return _Frag(a.states + b.states, a.repeated + b.repeated, {**a.beta, **b.beta},
                 a.edges + b.edges, a.first + b.first)


def _links(inst, finals: dict, first: list) -> list:
    """Edges by which every final state takes every first step."""
    return [(p, ch, j, inst.nat_act(x * y, w)) for p, x in finals.items()
            for y, ch, j, w in first]


def _frag_prod(inst, a: _Frag, b: _Frag, omega=False) -> _Frag:
    """Concatenation.  The repeated states are those of the tail; an omega
    tail leaves no final state."""
    return _Frag(a.states + b.states, b.repeated, {} if omega else b.beta,
                 [*a.edges, *b.edges, *_links(inst, a.beta, b.first)], a.first)


def _frag_plus(inst, a: _Frag) -> _Frag:
    return _Frag(a.states, a.repeated, a.beta, a.edges + _links(inst, a.beta, a.first), a.first)


def _frag_omega(inst, a: _Frag) -> _Frag:
    """Omega power: feedback through fresh boundary copies of the first
    steps' targets, which become the repeated states (repeated final states
    would accept a·b^omega in (a + ab^+)^omega); no state is final."""
    copy = {t: next(_STATES) for t in sorted({j for _, _, j, _ in a.first})}
    steps = sorted((e for e in a.edges if e[0] in copy), key=lambda e: copy[e[0]])
    finals = {**a.beta, **{c: a.beta[t] for t, c in copy.items() if t in a.beta}}
    back = [(p, ch, copy[j], w) for p, ch, j, w in _links(inst, finals, a.first)]
    return _Frag(a.states + list(copy.values()), list(copy.values()), {},
                 [*a.edges, *((copy[i], ch, j, w) for i, ch, j, w in steps), *back], a.first)


def compile(expr, instance, alphabet) -> MatrixAutomaton:
    """Structural compilation of a (finitary or omega) expression in the order
    of its text, to its position automaton: one state per letter occurrence
    (and per boundary copy of an omega power) and one initial state; each
    reader of a shared subterm after the first copies it."""
    alphabet = tuple(alphabet)

    def fresh(a: _Frag) -> _Frag:
        a = _frag_of(_aut_of(a, instance, alphabet)) if a.read else a
        a.read = True
        return a

    def letter(node) -> _Frag:
        _check_word(node.ch, alphabet)
        q = next(_STATES)
        return _Frag([q], [], {q: 1}, [], [(1, node.ch, q, instance.unit)])

    frag = fold(expr, {
        Letter: letter,
        Scalar: lambda node, a: _frag_scale(node.coef, fresh(a)),
        **dict.fromkeys((Sum, OmegaSum), lambda node, a, b: _frag_sum(fresh(a), fresh(b))),
        Prod: lambda node, a, b: _frag_prod(instance, fresh(a), fresh(b)),
        Plus: lambda node, a: _frag_plus(instance, fresh(a)),
        OmegaPow: lambda node, a: _frag_omega(instance, fresh(a)),
        ActProd: lambda node, a, b: _frag_prod(instance, fresh(a), fresh(b), omega=True),
    })
    return _aut_of(frag, instance, alphabet)


def _frag_of(aut: MatrixAutomaton) -> _Frag:
    """The fragment of an automaton: the out-edges of its initial states
    become first steps, weighted by their initial coefficients, and an
    initial state that no edge enters, neither final nor repeated, is dropped."""
    entered = {j for _, _, j, _ in aut.edges}
    dropped = {q for q in range(aut.k, aut.n)
               if aut.alpha[q] and not aut.beta[q] and q not in entered}
    new = {q: next(_STATES) for q in range(aut.n) if q not in dropped}
    return _Frag(list(new.values()), [new[q] for q in range(aut.k)],
                 {new[q]: x for q, x in enumerate(aut.beta) if x},
                 [(new[i], ch, new[j], w) for i, ch, j, w in aut.edges if i not in dropped],
                 [(aut.alpha[i], ch, new[j], w) for i, ch, j, w in aut.edges if aut.alpha[i]])


def _aut_of(frag: _Frag, instance, alphabet) -> MatrixAutomaton:
    """The automaton of a fragment, numbered once: the repeated states first,
    in order, then the initial state, whose out-edges are the first steps,
    then the rest in the order they were made."""
    lead, start = set(frag.repeated), next(_STATES)
    order = frag.repeated + [start] + [q for q in frag.states if q not in lead]
    pos = {old: new for new, old in enumerate(order)}
    k = len(frag.repeated)
    edges = [(pos[i], ch, pos[j], w) for i, ch, j, w in frag.edges]
    edges += [(k, ch, pos[j], instance.nat_act(y, w)) for y, ch, j, w in frag.first]
    return MatrixAutomaton(instance, alphabet, len(order), k,
                           tuple(int(q == start) for q in order),
                           tuple(frag.beta.get(q, 0) for q in order), tuple(edges))


def _backing_of(x) -> MatrixAutomaton:
    backing = x if isinstance(x, MatrixAutomaton) else getattr(x, "backing", None)
    if isinstance(backing, MatrixAutomaton):
        return backing
    raise ValueError("needs an automaton or an automaton-backed series")


def series_act(fin, omega) -> OmegaSeries:
    """The omega series of (finitary behavior) · (infinitary behavior).

    Accepts automata or automaton-backed series on both sides.
    """
    a, b = _backing_of(fin), _backing_of(omega)
    frag = _frag_prod(a.instance, _frag_of(a), _frag_of(b), omega=True)
    return infinitary_series(_aut_of(frag, a.instance, a.alphabet))


def omega_automaton(fin) -> MatrixAutomaton:
    """The automaton of the omega power of a finitary behavior."""
    a = _backing_of(fin)
    return _aut_of(_frag_omega(a.instance, _frag_of(a)), a.instance, a.alphabet)


def series_omega(fin) -> OmegaSeries:
    """The omega power of a finitary behavior."""
    return infinitary_series(omega_automaton(fin))


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
        """n·a as one scalar node."""
        if n > 1 and a is not None:
            return Scalar(n, a)
        return super().nat_act(n, a)

    def eq(self, a, b):
        raise NotImplementedError("symbolic expressions have no decidable equality")

    def show(self, a):
        return "0" if a is None else to_text(a)


class _SymbolicOmegaModule(CommutativeMonoid):
    name = "symbolic-omega"
    zero = None

    def add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return OmegaSum(a, b)

    show = _SymbolicExprCarrier.show


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
    from . import matrices
    inst = aut.instance
    sym = _SymbolicExprCarrier()
    pair = _symbolic_pair()

    cells = {}  # (i, j) -> letter -> summed weight, in edge order
    for i, ch, j, w in aut.edges:
        cell = cells.setdefault((i, j), {})
        cell[ch] = inst.add(cell[ch], w) if ch in cell else w

    def entry_expr(cell):
        out = None
        for ch, w in sorted(cell.items()):
            coef = inst.scalar_of(w)
            if coef is None:
                raise ValueError(
                    f"weight {inst.show(w)} has no scalar form; cannot eliminate")
            out = sym.add(out, sym.nat_act(coef, Letter(ch)))
        return out

    m = matrices.mat([[entry_expr(cells.get((i, j), {})) for j in range(aut.n)]
                      for i in range(aut.n)])
    mp, col = matrices._eliminate(sym, m, pair, aut.k)
    fin = None
    for i in range(aut.n):
        for j in range(aut.n):
            coef = aut.alpha[i] * aut.beta[j]
            fin = sym.add(fin, sym.nat_act(coef, mp[i, j]))
    om = None
    for i in range(aut.n):
        if aut.alpha[i] and col[i] is not None:
            om = pair.module.add(om, pair.module.nat_act(aut.alpha[i], col[i]))
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


def _is_nat(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def automaton_from_json(data, instance) -> MatrixAutomaton:
    """The automaton of a JSON document shaped like :func:`automaton_to_json`.

    Malformed input raises ValueError naming the first problem: bad JSON, a
    missing key, a wrong type, an alphabet entry outside a-z or repeated, a
    state outside 0..n-1, k outside 0..n, a letter outside the alphabet or a
    weight the instance cannot read.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    for key in ("n", "k", "alphabet", "alpha", "beta", "transitions"):
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    n, k = data["n"], data["k"]
    if not _is_nat(n):
        raise ValueError("'n' must be a natural number")
    if not _is_nat(k) or k > n:
        raise ValueError(f"'k' must be a whole number in 0..{n}")
    if not (isinstance(data["alphabet"], list)
            and all(isinstance(ch, str) for ch in data["alphabet"])):
        raise ValueError("'alphabet' must be a list of strings")
    try:
        alphabet = check_alphabet(data["alphabet"])
    except ValueError as exc:
        raise ValueError(f"'alphabet' {exc}") from None

    def coefficients(key):
        vec = data[key]
        if isinstance(vec, list) and len(vec) == n:
            try:  # a string of digits reads; int() would truncate 1.5 and True
                out = tuple(int(x) if isinstance(x, str) else x for x in vec)
            except ValueError:
                out = None
            if out is not None and all(_is_nat(x) for x in out):
                return out
        raise ValueError(f"{key!r} must be a list of {n} natural numbers")

    alpha, beta = coefficients("alpha"), coefficients("beta")
    if not isinstance(data["transitions"], list):
        raise ValueError("'transitions' must be a list")
    edges = []
    for num, t in enumerate(data["transitions"]):
        where = f"transition {num}"
        if not isinstance(t, dict) or not {"from", "to", "letter", "weight"} <= set(t):
            raise ValueError(f"{where} needs 'from', 'to', 'letter' and 'weight'")
        for end in ("from", "to"):
            if not _is_nat(t[end]) or t[end] >= n:
                raise ValueError(f"{where}: state {t[end]!r} outside 0..{n - 1}")
        if t["letter"] not in alphabet:
            raise ValueError(f"{where}: letter {t['letter']!r} outside the alphabet")
        if not isinstance(t["weight"], (str, int, float)):
            raise ValueError(f"{where}: weight {t['weight']!r} is not a string or number")
        try:
            weight = instance.read(str(t["weight"]))
        except ValueError as exc:
            raise ValueError(f"{where}: weight {t['weight']!r}: {exc}") from None
        edges.append((t["from"], t["letter"], t["to"], weight))
    return MatrixAutomaton(instance, alphabet, n, k, alpha, beta, tuple(edges))
