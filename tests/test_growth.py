"""Growth gates: the work a computation does, counted in carrier operations,
grows in the class its algorithm states as a user-controlled parameter
doubles.  Counts do not move with the machine, so they can be pinned."""

import random

from omegalg import automata as A, matrices as M, valuation as V
from omegalg.core import self_pair
from omegalg.instances import MinPlusCarrier
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
