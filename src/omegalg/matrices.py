"""Matrix calculus over carriers: block star, plus and omega, group identities.

The default plus, star and omega come from one elimination pass that
evaluates the textbook block formulas at split 1 as rows join a solved
block, yielding M^+ and the omega column (acceptance restricted to the
first k rows, if asked) in O(n^3) carrier operations.  The literal block
formulas at any split point remain available (``split=k``), so split
independence is a testable property, not an assumption.
"""

from __future__ import annotations

import itertools
import random
from functools import reduce

from .core import DEFAULT_SEED, Frozen, HemimodulePair, LawFailure, LawReport, check_laws


class Matrix(Frozen):
    """A matrix as a tuple of equally long rows; immutable, and equal to a
    matrix with the same entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        if len(set(map(len, entries))) != 1 or not entries[0]:
            raise ValueError("matrix rows must be nonempty and equal length")
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other):
        return self.entries == other.entries if type(other) is Matrix else NotImplemented

    def __hash__(self):
        return hash(self.entries)

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0])

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]


def mat(rows) -> Matrix:
    return Matrix(tuple(map(tuple, rows)))


def zeros(c, rows, cols) -> Matrix:
    return mat([[c.zero] * cols for _ in range(rows)])


def identity(c, n) -> Matrix:
    return mat([[c.one if i == j else c.zero for j in range(n)] for i in range(n)])


def mat_add(c, a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("dimension mismatch in add")
    return Matrix(tuple(tuple(map(c.add, ra, rb)) for ra, rb in zip(a.entries, b.entries)))


def mat_mul(c, a: Matrix, b: Matrix) -> Matrix:
    """A B; entry (i, j) adds a[i][k] b[k][j] to zero for k = 0, 1, ... in turn."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in mul")
    add, mul, zero = c.add, c.mul, c.zero
    cols = tuple(zip(*b.entries))
    out = []
    for ra in a.entries:
        row = []
        for cb in cols:
            acc = zero
            for x, y in zip(ra, cb):
                acc = add(acc, mul(x, y))
            row.append(acc)
        out.append(tuple(row))
    return Matrix(tuple(out))


def mat_eq(c, a: Matrix, b: Matrix) -> bool:
    return (a.rows, a.cols) == (b.rows, b.cols) and all(
        map(c.eq, itertools.chain(*a.entries), itertools.chain(*b.entries)))


def mat_show(c, a: Matrix) -> str:
    return "[" + "; ".join(" ".join(c.show(x) for x in row) for row in a.entries) + "]"


def _blocks(m: Matrix, k: int):
    """X, Y, U, V of the square m split after row and column k."""
    _require_square(m)
    if not 1 <= k < m.rows:
        raise ValueError("split must satisfy 1 <= split < n")
    top, bottom = m.entries[:k], m.entries[k:]
    return (Matrix(tuple(r[:k] for r in top)), Matrix(tuple(r[k:] for r in top)),
            Matrix(tuple(r[:k] for r in bottom)), Matrix(tuple(r[k:] for r in bottom)))


def _assemble(x: Matrix, y: Matrix, u: Matrix, v: Matrix) -> Matrix:
    return Matrix(tuple(map(tuple.__add__, x.entries + u.entries, y.entries + v.entries)))


def _require_square(m: Matrix):
    if m.rows != m.cols:
        raise ValueError("square matrix required")


# --- the elimination pass ------------------------------------------------------

def _eliminate(c, m: Matrix, pair: HemimodulePair = None, k=None, with_plus=True):
    """(M^+, omega column accepting rows < k, or None without a pair).

    Gauss-Jordan (Lehmann 1977): rows join a solved block V one at a time,
    k..n-1 first, then k-1 down to 0.  With x, y, u the new diagonal entry,
    row and column and a = x + y V* u, the block formulas at split 1 read
    (x* y = x^+ y + y as in ``core``, so no unit is needed)
        M^+     = [[a^+, a* yV*], [V*u a*, V^+ + V*u a* yV*]]
        M^omega = [top, V*u top + V^omega],  top = a* (y V^omega) + a^omega
    where the column is zero while no row of the block accepts (i >= k).
    O(n^3) carrier operations; entries that are the zero object are skipped.
    Without ``with_plus`` the last step builds no M^+ rows and M^+ is None.
    """
    _require_square(m)
    n = m.rows
    k = n if k is None else k
    e = m.entries
    add, mul, zero = c.add, c.mul, c.zero
    block, vp, col = [], [], []               # rows of V, V^+ and V^omega
    for i in [*range(k, n), *range(k - 1, -1, -1)]:
        y, u = [e[i][b] for b in block], [e[b][i] for b in block]
        vu = list(u)                              # V* u
        for j, w in enumerate(u):
            if w is not zero:
                for r, row in enumerate(vp):
                    p = row[j]
                    if p is not zero:
                        vu[r] = add(vu[r], mul(p, w))
        a = e[i][i]
        for w, g in zip(y, vu):
            if w is not zero and g is not zero:
                a = add(a, mul(w, g))
        ap = c.plus(a)
        if pair is not None:
            col = _omega_step(pair, y, vu, col, a, ap) if i < k else [pair.module.zero] + col
        if not with_plus and len(block) == n - 1:
            block = [i] + block
            break
        yv = list(y)                              # y V*
        for r, w in enumerate(y):
            if w is not zero:
                for j, p in enumerate(vp[r]):
                    if p is not zero:
                        yv[j] = add(yv[j], mul(w, p))
        rows = [[ap] + [add(mul(ap, h), h) if h is not zero else h for h in yv]]  # a* yV*
        yv_nz = [(j, h) for j, h in enumerate(yv, 1) if h is not zero]
        for g, row in zip(vu, vp):
            row = [g] + row
            if g is not zero:
                g = row[0] = add(g, mul(g, ap))   # V*u a*
                for j, h in yv_nz:
                    row[j] = add(row[j], mul(g, h))
            rows.append(row)
        block, vp = [i] + block, rows
    if k < n:                         # V's rows are 0..k-1, n-1..k: back to index order
        at = sorted(range(n), key=block.__getitem__)
        vp = [[vp[p][q] for q in at] for p in at] if with_plus else None
        col = [col[p] for p in at] if pair is not None else None
    plus = Matrix(tuple(map(tuple, vp))) if with_plus else None
    return plus, tuple(col) if pair is not None else None


def _omega_step(pair: HemimodulePair, y, vu, col, a, ap) -> list:
    """The omega column once an accepting row i joins V.  Runs from i return
    to it forever (a^omega) or, after their last return, stay in V
    (a* y V^omega); runs from V reach i (V*u top) or stay in V."""
    V, act = pair.module, pair.act
    top = pair.omega(a)
    if col:
        t = reduce(V.add, map(act, y, col))
        top = V.add(V.add(act(ap, t), t), top)
    return [top] + [V.add(act(g, top), v) for g, v in zip(vu, col)]


def mat_plus(c, m: Matrix, split=None) -> Matrix:
    """Entrywise-lawful matrix plus.

    With ``split=None`` the elimination pass is used; with an explicit
    split point the literal block formula is evaluated at that k.
    """
    if split is None or m.rows == 1:
        return _eliminate(c, m)[0]
    x, y, u, v = _blocks(m, split)
    vp = mat_plus(c, v)
    y_vstar = mat_add(c, y, mat_mul(c, y, vp))          # Y V*
    a = mat_add(c, x, mat_mul(c, y_vstar, u))           # X + Y V* U
    ap = mat_plus(c, a)
    xp = mat_plus(c, x)
    u_xstar = mat_add(c, u, mat_mul(c, u, xp))          # U X*
    b = mat_add(c, v, mat_mul(c, u_xstar, y))           # V + U X* Y
    bp = mat_plus(c, b)
    beta = mat_add(c, mat_mul(c, ap, y_vstar), y_vstar)     # (X+YV*U)* Y V*
    gamma = mat_add(c, mat_mul(c, bp, u_xstar), u_xstar)    # (V+UX*Y)* U X*
    return _assemble(ap, beta, gamma, bp)


# --- star ---------------------------------------------------------------------

def mat_star(c, m: Matrix, split=None) -> Matrix:
    """Matrix star, I + M^+, for carriers with a unit."""
    if split is None or m.rows == 1:
        return Matrix(tuple(r[:i] + (c.add(c.one, r[i]),) + r[i + 1:]
                            for i, r in enumerate(mat_plus(c, m).entries)))
    x, y, u, v = _blocks(m, split)
    vs = mat_star(c, v)
    xs = mat_star(c, x)
    alpha = mat_star(c, mat_add(c, x, mat_mul(c, mat_mul(c, y, vs), u)))
    delta = mat_star(c, mat_add(c, v, mat_mul(c, mat_mul(c, u, xs), y)))
    beta = mat_mul(c, mat_mul(c, alpha, y), vs)
    gamma = mat_mul(c, mat_mul(c, delta, u), xs)
    return _assemble(alpha, beta, gamma, delta)


# --- omega ----------------------------------------------------------------------

def _act_vec(pair: HemimodulePair, m: Matrix, vec) -> tuple:
    """H-matrix acting on a V-column."""
    add, act, zero = pair.module.add, pair.act, pair.module.zero
    out = []
    for row in m.entries:
        acc = zero
        for h, v in zip(row, vec):
            acc = add(acc, act(h, v))
        out.append(acc)
    return tuple(out)


def _vec_add(V, a, b):
    return tuple(map(V.add, a, b))


def mat_omega(pair: HemimodulePair, m: Matrix, split=None) -> tuple:
    """Omega of a square H-matrix as a column over V."""
    H, V = pair.hemiring, pair.module
    if split is None or m.rows == 1:
        return _eliminate(H, m, pair, with_plus=False)[1]
    x, y, u, v = _blocks(m, split)
    vp = mat_plus(H, v)
    xp = mat_plus(H, x)
    y_vstar = mat_add(H, y, mat_mul(H, y, vp))
    u_xstar = mat_add(H, u, mat_mul(H, u, xp))
    a = mat_add(H, x, mat_mul(H, y_vstar, u))
    b = mat_add(H, v, mat_mul(H, u_xstar, y))
    ap, bp = mat_plus(H, a), mat_plus(H, b)
    a_omega, b_omega = mat_omega(pair, a), mat_omega(pair, b)
    y_vomega = _act_vec(pair, y, mat_omega(pair, v))
    u_xomega = _act_vec(pair, u, mat_omega(pair, x))
    top = _vec_add(V, _vec_add(V, _act_vec(pair, ap, y_vomega), y_vomega), a_omega)
    bottom = _vec_add(V, _vec_add(V, _act_vec(pair, bp, u_xomega), u_xomega), b_omega)
    return top + bottom


def mat_omega_k(pair: HemimodulePair, m: Matrix, k: int) -> tuple:
    """Omega with acceptance restricted to the first k rows.

    k = n is the plain matrix omega; k = 0 accepts nothing and yields the
    all-zero column.
    """
    if not 0 <= k <= m.rows:
        raise ValueError("need 0 <= k <= n")
    if k == 0:
        return (pair.module.zero,) * m.rows
    return _eliminate(pair.hemiring, m, pair, k, with_plus=False)[1]


# --- permutations ------------------------------------------------------------------

class PermutationMatrix(Frozen):
    """A permutation by its image list: position i holds pi(i).  Immutable."""

    __slots__ = ("perm",)

    def __init__(self, perm: tuple):
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("not a permutation")
        object.__setattr__(self, "perm", perm)

    @property
    def n(self):
        return len(self.perm)


def permutation_conjugate(m: Matrix, pi: PermutationMatrix) -> Matrix:
    """pi^-1 M pi, computed by index permutation (no multiplications)."""
    p = pi.perm
    if not len(p) == m.rows == m.cols:
        raise ValueError(f"a permutation of size {len(p)} cannot conjugate "
                         f"a {m.rows}x{m.cols} matrix")
    return Matrix(tuple(tuple(map(row.__getitem__, p)) for row in map(m.entries.__getitem__, p)))


def permute_column(vec, pi: PermutationMatrix) -> tuple:
    if len(pi.perm) != len(vec):
        raise ValueError(f"a permutation of size {len(pi.perm)} cannot permute "
                         f"a column of size {len(vec)}")
    return tuple(map(vec.__getitem__, pi.perm))


def permutation_plus_check(c, m: Matrix, pi: PermutationMatrix) -> bool:
    return mat_eq(c, mat_plus(c, permutation_conjugate(m, pi)),
                  permutation_conjugate(mat_plus(c, m), pi))


def permutation_star_check(c, m: Matrix, pi: PermutationMatrix) -> bool:
    return mat_eq(c, mat_star(c, permutation_conjugate(m, pi)),
                  permutation_conjugate(mat_star(c, m), pi))


def permutation_omega_check(pair: HemimodulePair, m: Matrix, pi: PermutationMatrix) -> bool:
    V = pair.module
    lhs = mat_omega(pair, permutation_conjugate(m, pi))
    rhs = permute_column(mat_omega(pair, m), pi)
    return all(V.eq(a, b) for a, b in zip(lhs, rhs))


# --- finite groups ------------------------------------------------------------------

class GroupTable(Frozen):
    """A finite group by its table: table[i][j] = i*j over elements
    0..n-1, with 0 the unit.  Immutable."""

    __slots__ = ("name", "table")

    def __init__(self, name: str, table: tuple):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "table", table)
        n = self.order
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise ValueError(f"{self.name}: element 0 is not a unit")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise ValueError(f"{self.name}: product is not associative")
        for i in range(n):
            if not any(self.table[i][j] == 0 for j in range(n)):
                raise ValueError(f"{self.name}: element {i} has no inverse")

    @property
    def order(self):
        return len(self.table)

    def inverse(self, i):
        for j in range(self.order):
            if self.table[i][j] == 0:
                return j
        raise AssertionError


def cyclic_group(n: int) -> GroupTable:
    return GroupTable(f"Z{n}", tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))


def klein_four() -> GroupTable:
    return GroupTable("V4", tuple(tuple(i ^ j for j in range(4)) for i in range(4)))


def symmetric_group_3() -> GroupTable:
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(3))] for q in perms) for p in perms)
    return GroupTable("S3", table)


def builtin_groups() -> dict:
    groups = {"Z1": cyclic_group(1), "Z2": cyclic_group(2), "Z3": cyclic_group(3),
              "Z4": cyclic_group(4), "V4": klein_four(), "Z5": cyclic_group(5),
              "Z6": cyclic_group(6), "S3": symmetric_group_3()}
    return groups


def groups_up_to(order: int):
    return [g for g in builtin_groups().values() if g.order <= order]


def group_matrix(g: GroupTable, xs) -> Matrix:
    """Matrix whose (i, j) entry is the variable at group element i^-1 · j."""
    if len(xs) != g.order:
        raise ValueError(f"{g.name} needs {g.order} elements, got {len(xs)}")
    return Matrix(tuple(tuple(map(xs.__getitem__, g.table[g.inverse(i)]))
                        for i in range(g.order)))


def group_identity_check(g: GroupTable, c, sampler=None, trials=30, seed=DEFAULT_SEED,
                         pair: HemimodulePair = None) -> LawReport:
    """Row and column sums of the plus (and optionally omega) of the group matrix.

    The plus form requires every row and column of M_G^+ to sum to
    plus(x_1 + ... + x_n); the omega form requires every entry of M_G^omega
    to equal omega(x_1 + ... + x_n).
    """
    rng = random.Random(seed)
    sampler = sampler or c.sample
    report = LawReport(f"group:{g.name}:{c.name}", 0)
    for _ in range(trials):
        xs = [sampler(rng) for _ in range(g.order)]
        total = c.sum(xs)
        m = group_matrix(g, xs)
        mp, col_o = _eliminate(c, m, pair)
        want = c.plus(total)
        report.trials += 1
        for i, column in enumerate(zip(*mp.entries)):
            row = c.sum(mp.entries[i])
            if not c.eq(row, want):
                report.failures.append(LawFailure(
                    "plus_group_row", tuple(c.show(x) for x in xs), c.show(row), c.show(want)))
            col = c.sum(column)
            if not c.eq(col, want):
                report.failures.append(LawFailure(
                    "plus_group_col", tuple(c.show(x) for x in xs), c.show(col), c.show(want)))
        if pair is not None:
            V = pair.module
            want_o = pair.omega(total)
            for entry in col_o:
                if not V.eq(entry, want_o):
                    report.failures.append(LawFailure(
                        "omega_group", tuple(c.show(x) for x in xs),
                        V.show(entry), V.show(want_o)))
        if len(report.failures) >= 20:
            break
    return report


def simulation_check(c, pairs, trials=20, seed=DEFAULT_SEED) -> LawReport:
    """If M Q = Q N then M^+ Q = Q N^+ (checked on supplied (M, N, Q) builders).

    ``pairs`` is an iterable of callables rng -> (M, N, Q) producing matrices
    with M Q = Q N; the premise is verified and the conclusion checked.
    """
    rng = random.Random(seed)

    def draws():
        for build in pairs:
            for _ in range(trials):
                m, n, q = build(rng)
                if mat_eq(c, mat_mul(c, m, q), mat_mul(c, q, n)):  # else the builder missed
                    yield m, n, q

    simulation = ("simulation",
                  lambda m, n, q: (mat_mul(c, mat_plus(c, m), q), mat_mul(c, q, mat_plus(c, n))),
                  lambda m, n, q: (mat_show(c, m), mat_show(c, q)))
    return check_laws(LawReport(f"simulation:{c.name}", 0), [simulation], draws(),
                      lambda a, b: mat_eq(c, a, b), lambda a: mat_show(c, a))


def all_permutations(n: int):
    return [PermutationMatrix(p) for p in itertools.permutations(range(n))]
