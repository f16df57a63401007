"""The carrier calls of the matrix layer, pinned in order.

The digest covers every carrier call (its operation, its arguments and its
result, each through the carrier's ``show``) made by ``mat_plus``,
``mat_star``, ``mat_omega`` and ``mat_omega_k`` (every k), by the literal
block forms at every split point, by ``mat_mul`` and ``mat_add`` (square
and rectangular), by the three permutation checks, and by
``group_identity_check`` on every group of order at most 4, on seeded
bool, min-plus and lattice matrices at n = 1..6.  ``show`` rather than
``repr``: a lattice element's ``repr`` is not stable from run to run.  A
change to which carrier operations the matrix layer calls, on what, or in
what order shows here even where every result stays the same.

Re-pin it (only when the carrier calls are meant to change) with the
digest

    PYTHONPATH=src python tests/test_matrix_carrier_calls.py

prints.
"""

import hashlib
import random

from omegalg import matrices as M
from omegalg.core import self_pair
from omegalg.instances import make_instance

DIGEST = "dd9d45dbb7cc465f13f2a5d5250a89f69699dce2a67d3c88ad3f270b8a41a40a"
CARRIERS = ("bool", "minplus", "lattice")
SIZES = range(1, 7)


class _Recording:
    """A carrier view that records each call of its operations, shown."""

    def __init__(self, base, sink):
        self._base, self._sink = base, sink

    def __getattr__(self, item):
        return getattr(self._base, item)

    def _record(self, op, args, result, shown):
        self._sink.update(repr((op, tuple(map(self._base.show, args)), shown)).encode())
        return result

    def add(self, a, b):
        out = self._base.add(a, b)
        return self._record("add", (a, b), out, self._base.show(out))

    def mul(self, a, b):
        out = self._base.mul(a, b)
        return self._record("mul", (a, b), out, self._base.show(out))

    def plus(self, a):
        out = self._base.plus(a)
        return self._record("plus", (a,), out, self._base.show(out))

    def star(self, a):
        out = self._base.star(a)
        return self._record("star", (a,), out, self._base.show(out))

    def omega(self, a):
        out = self._base.omega(a)
        return self._record("omega", (a,), out, self._base.show(out))

    def eq(self, a, b):
        out = self._base.eq(a, b)
        return self._record("eq", (a, b), out, out)

    def sum(self, values):
        values = list(values)
        out = self._base.sum(values)
        return self._record("sum", values, out, self._base.show(out))


def _matrix(c, rng, rows, cols):
    return M.mat([[c.sample(rng) for _ in range(cols)] for _ in range(rows)])


def _calls(c, n, rng):
    """Every matrix operation on fresh seeded matrices of size n over ``c``."""
    pair = self_pair(c)
    m, other = _matrix(c, rng, n, n), _matrix(c, rng, n, n)
    M.mat_plus(c, m)
    M.mat_star(c, m)
    M.mat_omega(pair, m)
    for k in range(n + 1):
        M.mat_omega_k(pair, m, k)
    for k in range(1, n):
        M.mat_plus(c, m, split=k)
        M.mat_star(c, m, split=k)
        M.mat_omega(pair, m, split=k)
    M.mat_mul(c, m, other)
    M.mat_add(c, m, other)
    M.mat_mul(c, _matrix(c, rng, n, n + 1), _matrix(c, rng, n + 1, 2))
    M.mat_add(c, _matrix(c, rng, n, 2), _matrix(c, rng, n, 2))
    pi = M.PermutationMatrix(tuple(rng.sample(range(n), n)))
    M.permutation_plus_check(c, m, pi)
    M.permutation_star_check(c, m, pi)
    M.permutation_omega_check(pair, m, pi)


def carrier_call_digest() -> str:
    h = hashlib.sha256()
    for seed, name in enumerate(CARRIERS):
        c = _Recording(make_instance(name), h)
        rng = random.Random(300 + seed)
        for n in SIZES:
            h.update(f"{name} n={n}".encode())
            _calls(c, n, rng)
        for g in M.groups_up_to(4):
            h.update(f"{name} {g.name}".encode())
            M.group_identity_check(g, c, trials=4, seed=rng.randrange(2 ** 31),
                                   pair=self_pair(c))
    return h.hexdigest()


def test_matrix_carrier_calls_match_the_pinned_digest():
    assert carrier_call_digest() == DIGEST


if __name__ == "__main__":
    print(carrier_call_digest())
