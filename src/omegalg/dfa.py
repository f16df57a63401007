"""Minimal DFAs for epsilon-free regular languages.

Backs the regular-language carrier and the fingerprints of ``omegalang``,
whose action and omega power walk these DFAs once per rotation class.  A
nonempty language is a trimmed minimal DFA: every state reaches acceptance,
a missing transition goes to the implicit dead state, and the start state
never accepts; the empty language is one state that accepts nothing.  Union,
concatenation and plus are each built in one exploration over the fixed
letter order, on pairs of states, on a left state with a set of right
states, and on sets of states (int bitmasks), and the result is minimised by
Hopcroft's refinement.  A finite set of words is its trie.  Minimal DFAs are
numbered breadth-first from the start in letter order, so equal languages
give equal DFAs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import _check_word


@dataclass
class Dfa:
    alphabet: tuple
    n: int
    start: int               # state index
    accept: frozenset
    delta: list              # per state: dict letter -> state (partial; missing = dead)

    def run(self, word: str) -> bool:
        s = self.start
        for ch in word:
            s = self.delta[s].get(ch)
            if s is None:
                return False
        return s in self.accept


def empty(alphabet) -> Dfa:
    return Dfa(tuple(alphabet), 1, 0, frozenset(), [dict()])


def from_words(alphabet, words) -> Dfa:
    """The minimal DFA of a finite set of nonempty words, from their trie."""
    delta, accept, alphabet = [dict()], set(), tuple(alphabet)
    for w in words:
        if not w:
            raise ValueError("languages here are proper: no empty word")
        _check_word(w, alphabet)
        s = 0
        for ch in w:
            t = delta[s].get(ch)
            if t is None:
                t = delta[s][ch] = len(delta)
                delta.append(dict())
            s = t
        accept.add(s)
    return minimize(Dfa(alphabet, len(delta), 0, frozenset(accept), delta))


def _explore(alphabet, start, step, accepting) -> Dfa:
    """Minimal DFA of the states reachable from ``start``; ``step`` gives the
    successor of a state on a letter, None for the dead state."""
    index, states, delta = {start: 0}, [start], []
    for key in states:                   # grows as new states are found
        row = {}
        for ch in alphabet:
            nxt = step(key, ch)
            if nxt is not None:
                t = index.get(nxt)
                if t is None:
                    t = index[nxt] = len(states)
                    states.append(nxt)
                row[ch] = t
        delta.append(row)
    accept = frozenset(i for i, key in enumerate(states) if accepting(key))
    return minimize(Dfa(alphabet, len(states), 0, accept, delta))


def _subset_step(d: Dfa):
    """step(mask, ch, again): the set of states ``d`` reaches from ``mask``
    on ch, with the first step out of the start as well when ``again``."""
    bit = {ch: [1 << row[ch] if ch in row else 0 for row in d.delta] for ch in d.alphabet}

    def step(mask, ch, again):
        succ = bit[ch]
        out = succ[d.start] if again else 0
        while mask:
            low = mask & -mask
            out |= succ[low.bit_length() - 1]
            mask ^= low
        return out
    return step


def union(a: Dfa, b: Dfa) -> Dfa:
    """Product on pairs of states; None is the dead state of either side."""
    if a == b or not b.accept:           # minimal DFAs of equal languages are equal
        return a
    if not a.accept:
        return b
    da, db = a.delta, b.delta

    def step(key, ch):
        p, q = key
        p = None if p is None else da[p].get(ch)
        q = None if q is None else db[q].get(ch)
        return None if p is None and q is None else (p, q)
    return _explore(a.alphabet, (a.start, b.start), step,
                    lambda key: key[0] in a.accept or key[1] in b.accept)


def concat(a: Dfa, b: Dfa) -> Dfa:
    """States (p, S): p a state of ``a`` (or None), S the states of ``b``
    reached so far; b's first step joins S whenever p accepts."""
    da, sub, b_acc = a.delta, _subset_step(b), sum(1 << s for s in b.accept)

    def step(key, ch):
        p, mask = key
        mask = sub(mask, ch, p in a.accept)
        p = None if p is None else da[p].get(ch)
        return None if p is None and not mask else (p, mask)
    return _explore(a.alphabet, (a.start, 0), step, lambda key: key[1] & b_acc)


def plus(a: Dfa) -> Dfa:
    """Subsets of a's states; from an accepting subset a's first step is
    taken again."""
    sub, acc = _subset_step(a), sum(1 << s for s in a.accept)
    return _explore(a.alphabet, 1 << a.start, lambda mask, ch: sub(mask, ch, mask & acc) or None,
                    lambda mask: mask & acc)


def minimize(dfa: Dfa) -> Dfa:
    """Hopcroft's refinement (Hopcroft 1971), O(n k log n) for k letters, on
    the DFA completed by a dead sink.  States that cannot reach acceptance
    end in the sink's class and are dropped; the result is numbered
    breadth-first from the start."""
    n, alphabet, delta = dfa.n, dfa.alphabet, dfa.delta
    dead = n
    inv = []                             # per letter: target -> sources, if any
    for ch in alphabet:
        pre = {dead: [dead]}
        for s, row in enumerate(delta):
            t = row.get(ch, dead)
            if t in pre:
                pre[t].append(s)
            else:
                pre[t] = [s]
        inv.append(pre)
    acc = set(dfa.accept)
    rest = set(range(n + 1)) - acc
    blocks, block = [acc, rest], [1] * (n + 1)
    for s in acc:
        block[s] = 0
    # the smaller part of each split is queued under every letter, which
    # covers both of Hopcroft's cases (splitter queued or not)
    work = [0 if len(acc) <= len(rest) else 1]
    while work:
        b = work.pop()
        for pre in inv:
            touched = {}
            for t in blocks[b]:
                if t in pre:
                    for s in pre[t]:
                        y = block[s]
                        if y in touched:
                            touched[y].append(s)
                        else:
                            touched[y] = [s]
            for y, xs in touched.items():
                whole = blocks[y]
                if len(xs) == len(whole):
                    continue
                if 2 * len(xs) <= len(whole):
                    part = set(xs)
                    whole -= part
                else:
                    part = whole.difference(xs)
                    whole.intersection_update(xs)
                new = len(blocks)
                blocks.append(part)
                for s in part:
                    block[s] = new
                work.append(new)
    sink, start = block[dead], block[dfa.start]
    if start == sink:
        return empty(alphabet)
    order, queue, out, accept = {start: 0}, [start], [], set()
    for c in queue:                      # grows as new classes are found
        rep = next(iter(blocks[c]))
        row = {}
        for ch in alphabet:
            t = delta[rep].get(ch)
            if t is not None and block[t] != sink:
                t = block[t]
                if t not in order:
                    order[t] = len(queue)
                    queue.append(t)
                row[ch] = order[t]
        out.append(row)
        if rep in dfa.accept:
            accept.add(len(out) - 1)
    return Dfa(alphabet, len(queue), 0, frozenset(accept), out)


def agree_up_to(a: Dfa, b: Dfa, bound: int) -> bool:
    """Whether ``a`` and ``b`` accept the same words of length <= bound.

    Breadth-first over the pairs of states both reach (None is the dead
    state): the languages differ within the bound exactly when a pair first
    reached at length 1..bound disagrees on acceptance.  Each pair is
    expanded once, so the walk costs O(|a| |b| k) whatever the bound.
    """
    da, db = a.delta, b.delta
    pair = (a.start, b.start)
    seen, frontier = {pair}, [pair]
    for _ in range(bound):
        nxt = []
        for p, q in frontier:
            for ch in a.alphabet:
                pair = (None if p is None else da[p].get(ch),
                        None if q is None else db[q].get(ch))
                if pair in seen or pair == (None, None):
                    continue
                if (pair[0] in a.accept) != (pair[1] in b.accept):
                    return False
                seen.add(pair)
                nxt.append(pair)
        if not nxt:
            break
        frontier = nxt
    return True


def dfa_is_empty(dfa: Dfa) -> bool:
    return not dfa.accept


def enumerate_words(dfa: Dfa, max_len: int, limit=None):
    """Accepted words of length <= max_len in shortlex order."""
    out = []
    frontier = [("", dfa.start)]
    for _ in range(max_len):
        nxt = []
        for w, s in frontier:
            for ch in dfa.alphabet:
                t = dfa.delta[s].get(ch)
                if t is None:
                    continue
                w2 = w + ch
                if t in dfa.accept:
                    out.append(w2)
                    if limit is not None and len(out) >= limit:
                        return out
                nxt.append((w2, t))
        frontier = nxt
    return out
