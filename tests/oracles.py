"""Independent oracles the tests check the library against.

Everything here is deliberately brute force and shares no code with the
implementation: Cauchy products and factorization sums by enumeration,
shortest paths by Floyd-Warshall, transitive closure by Warshall, Buchi
acceptance by plain reachability over the product, maximum cycle mean by
cycle enumeration.
"""

import itertools
import math


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


def geometric(lam, weight):
    """Discounted sum of a constant weight stream."""
    return weight / (1.0 - lam)


def language_of_words(words):
    return set(words)


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
