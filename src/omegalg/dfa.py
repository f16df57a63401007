"""Small boolean-automaton kit.

Backs the regular-language carrier; the omega-power fingerprints of
``omegalang`` run on the weighted automata lasso kernel instead.
States are integers, state sets are int bitmasks, so everything here works
on arbitrary sizes without extra dependencies.  Languages are always
epsilon-free: constructions never make a start state accepting.
"""

from __future__ import annotations

from dataclasses import dataclass


def bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def step_mask(steps, mask: int, letter: str) -> int:
    out = 0
    for s in bits(mask):
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
            mask = step_mask(self.steps, mask, ch)
            if not mask:
                return False
        return bool(mask & self.accept)


def nfa_from_words(alphabet, words) -> Nfa:
    """Trie-shaped automaton for a finite set of nonempty words."""
    steps = [dict()]
    accept = 0
    trie = {(): 0}
    for w in words:
        if not w:
            raise ValueError("languages here are proper: no empty word")
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


def nfa_union(a: Nfa, b: Nfa) -> Nfa:
    steps = [dict(d) for d in a.steps] + _shift_steps(b.steps, a.n)
    return Nfa(a.alphabet, a.n + b.n, a.start | (b.start << a.n),
               a.accept | (b.accept << a.n), steps)


def _start_out(nfa: Nfa):
    out = {}
    for s in bits(nfa.start):
        for ch, m in nfa.steps[s].items():
            out[ch] = out.get(ch, 0) | m
    return out


def nfa_concat(a: Nfa, b: Nfa) -> Nfa:
    """Concatenation with both parts nonempty (epsilon-free bridging)."""
    steps = [dict(d) for d in a.steps] + _shift_steps(b.steps, a.n)
    b_out = {ch: m << a.n for ch, m in _start_out(b).items()}
    for s in bits(a.accept):
        for ch, m in b_out.items():
            steps[s][ch] = steps[s].get(ch, 0) | m
    return Nfa(a.alphabet, a.n + b.n, a.start, b.accept << a.n, steps)


def nfa_plus(a: Nfa) -> Nfa:
    steps = [dict(d) for d in a.steps]
    out = _start_out(a)
    for s in bits(a.accept):
        for ch, m in out.items():
            steps[s][ch] = steps[s].get(ch, 0) | m
    return Nfa(a.alphabet, a.n, a.start, a.accept, steps)


# --- determinisation / minimisation ------------------------------------------

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

    def step(self, state, ch):
        if state is None:
            return None
        return self.delta[state].get(ch)


def determinize(nfa: Nfa) -> Dfa:
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
        for s in bits(mask):
            letters.update(nfa.steps[s].keys())
        for ch in letters:
            nxt = step_mask(nfa.steps, mask, ch)
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


def minimize(dfa: Dfa) -> Dfa:
    """Moore partition refinement; the dead state stays implicit."""
    n = dfa.n
    # class -1 is the implicit dead state; never merged with live states
    cls = [1 if s in dfa.accept else 0 for s in range(n)]
    while True:
        sig = {}
        new = [0] * n
        for s in range(n):
            key = (cls[s], tuple(sorted(
                (ch, cls[t] if t is not None else -1)
                for ch, t in dfa.delta[s].items())))
            if key not in sig:
                sig[key] = len(sig)
            new[s] = sig[key]
        if new == cls:
            break
        cls = new
    nclasses = max(cls) + 1 if n else 0
    delta = [dict() for _ in range(nclasses)]
    accept = set()
    for s in range(n):
        c = cls[s]
        if s in dfa.accept:
            accept.add(c)
        for ch, t in dfa.delta[s].items():
            delta[c][ch] = cls[t]
    # drop states that cannot reach an accepting state
    live = set(accept)
    changed = True
    while changed:
        changed = False
        for s in range(nclasses):
            if s in live:
                continue
            if any(t in live for t in delta[s].values()):
                live.add(s)
                changed = True
    if cls and cls[dfa.start] not in live:
        return Dfa(dfa.alphabet, 1, 0, frozenset(), [dict()])
    remap = {}
    for s in range(nclasses):
        if s in live:
            remap[s] = len(remap)
    delta2 = [dict() for _ in remap]
    for s, i in remap.items():
        for ch, t in delta[s].items():
            if t in live:
                delta2[i][ch] = remap[t]
    accept2 = frozenset(remap[s] for s in accept)
    return Dfa(dfa.alphabet, len(remap), remap[cls[dfa.start]], accept2, delta2)


def dfa_to_nfa(dfa: Dfa) -> Nfa:
    steps = [{ch: 1 << t for ch, t in d.items()} for d in dfa.delta]
    accept = 0
    for s in dfa.accept:
        accept |= 1 << s
    return Nfa(dfa.alphabet, dfa.n, 1 << dfa.start, accept, steps)


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
