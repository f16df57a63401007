"""Growth gates: the work a computation does, counted in carrier operations,
grows in the class its algorithm states as a user-controlled parameter
doubles.  Counts do not move with the machine, so they can be pinned."""

import random

from omegalg import matrices as M
from omegalg.core import self_pair
from omegalg.instances import MinPlusCarrier


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
