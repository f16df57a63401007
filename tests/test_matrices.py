"""Matrix star/plus/omega against path oracles, split independence,
permutation and group identities."""

import math
import random

import pytest

import oracles
from omegalg import core, matrices as M
from omegalg.core import self_pair

INF = math.inf


def rand_mat(carrier, n, rng):
    return M.mat([[carrier.sample(rng) for _ in range(n)] for _ in range(n)])


def test_minplus_star_is_all_pairs_shortest_paths(minplus):
    rng = random.Random(5)
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        weights = [[minplus.sample(rng) for _ in range(n)] for _ in range(n)]
        star = M.mat_star(minplus, M.mat(weights))
        want = oracles.floyd_warshall(weights)
        for i in range(n):
            for j in range(n):
                assert star[i, j] == want[i][j], (weights, i, j)


def test_minplus_plus_is_shortest_nonempty_path(minplus):
    rng = random.Random(6)
    for _ in range(40):
        n = rng.choice((2, 3))
        weights = [[minplus.sample(rng) for _ in range(n)] for _ in range(n)]
        plus = M.mat_plus(minplus, M.mat(weights))
        want = oracles.shortest_nonempty_path(weights)
        for i in range(n):
            for j in range(n):
                assert plus[i, j] == want[i][j]


def test_minplus_worked_example(minplus):
    m = M.mat([[INF, 1], [2, INF]])
    assert M.mat_star(minplus, m).entries == ((0, 1), (2, 0))
    assert M.mat_plus(minplus, m).entries == ((3, 1), (2, 3))


def test_boolean_star_is_transitive_closure(boolean):
    rng = random.Random(7)
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        adj = [[boolean.sample(rng) for _ in range(n)] for _ in range(n)]
        star = M.mat_star(boolean, M.mat(adj))
        plus = M.mat_plus(boolean, M.mat(adj))
        closure = oracles.transitive_closure(adj)
        strict = oracles.nonempty_path_closure(adj)
        for i in range(n):
            for j in range(n):
                assert star[i, j] == closure[i][j]
                assert plus[i, j] == strict[i][j]


def test_boolean_worked_example(boolean):
    m = M.mat([[False, True], [False, False]])
    assert M.mat_star(boolean, m).entries == ((True, True), (False, True))


def test_scalar_base_cases(minplus):
    assert M.mat_star(minplus, M.mat([[4]])).entries == ((0,),)
    assert M.mat_plus(minplus, M.mat([[4]])).entries == ((4,),)


def test_zero_matrix_plus_is_zero(minplus):
    z = M.zeros(minplus, 3, 3)
    assert M.mat_eq(minplus, M.mat_plus(minplus, z), z)


def test_split_independence(boolean, minplus):
    rng = random.Random(8)
    for carrier in (boolean, minplus):
        for n in (3, 4):
            for _ in range(25):
                m = rand_mat(carrier, n, rng)
                star = M.mat_star(carrier, m)
                plus = M.mat_plus(carrier, m)
                for k in range(1, n):
                    assert M.mat_eq(carrier, star, M.mat_star(carrier, m, split=k))
                    assert M.mat_eq(carrier, plus, M.mat_plus(carrier, m, split=k))


def test_split_rejects_bad_split(minplus):
    m = rand_mat(minplus, 3, random.Random(0))
    with pytest.raises(ValueError):
        M.mat_star(minplus, m, split=3)
    with pytest.raises(ValueError):
        M.mat_plus(minplus, m, split=0)


def test_plus_equals_m_times_star(boolean, minplus, lattice):
    rng = random.Random(9)
    for carrier in (boolean, minplus, lattice):
        for _ in range(30):
            m = rand_mat(carrier, rng.choice((2, 3, 4)), rng)
            assert M.mat_eq(carrier, M.mat_plus(carrier, m),
                            M.mat_mul(carrier, m, M.mat_star(carrier, m)))


def test_split_independence_noncommutative(lang6, lang_pair6):
    """Concatenation does not commute, so this exercises the block formulas
    beyond what the numeric carriers can."""
    rng = random.Random(14)
    for _ in range(4):
        m = M.mat([[lang6.sample(rng) for _ in range(3)] for _ in range(3)])
        base = M.mat_plus(lang6, m)
        for k in (1, 2):
            assert M.mat_eq(lang6, base, M.mat_plus(lang6, m, split=k))
        base_o = M.mat_omega(lang_pair6, m)
        for k in (1, 2):
            lit = M.mat_omega(lang_pair6, m, split=k)
            assert all(a == b for a, b in zip(base_o, lit))


def test_omega_split_independence(minplus, boolean):
    rng = random.Random(10)
    for carrier in (boolean, minplus):
        pair = self_pair(carrier)
        for n in (3, 4):
            for _ in range(15):
                m = rand_mat(carrier, n, rng)
                base = M.mat_omega(pair, m)
                for k in range(1, n):
                    lit = M.mat_omega(pair, m, split=k)
                    assert all(carrier.eq(a, b) for a, b in zip(base, lit))


def test_omega_k_boundary_cases(minplus):
    pair = self_pair(minplus)
    rng = random.Random(11)
    m = rand_mat(minplus, 3, rng)
    assert M.mat_omega_k(pair, m, 0) == (INF, INF, INF)
    assert M.mat_omega_k(pair, m, 3) == M.mat_omega(pair, m)


def test_omega_scalar_and_zero(minplus):
    pair = self_pair(minplus)
    assert M.mat_omega(pair, M.mat([[3]])) == (INF,)
    assert M.mat_omega(pair, M.mat([[0]])) == (0,)
    z = M.zeros(minplus, 2, 2)
    assert M.mat_omega(pair, z) == (INF, INF)  # min-plus zero is inf


def test_permutation_identities(boolean, minplus):
    rng = random.Random(12)
    for carrier in (boolean, minplus):
        pair = self_pair(carrier)
        for _ in range(20):
            m = rand_mat(carrier, 3, rng)
            for pi in M.all_permutations(3):
                assert M.permutation_plus_check(carrier, m, pi)
                assert M.permutation_star_check(carrier, m, pi)
                assert M.permutation_omega_check(pair, m, pi)


def test_permutation_identity_on_identity_perm(minplus):
    m = rand_mat(minplus, 3, random.Random(1))
    pi = M.PermutationMatrix((0, 1, 2))
    assert M.permutation_conjugate(m, pi) == m


def test_permutation_validation():
    with pytest.raises(ValueError, match="^not a permutation$"):
        M.PermutationMatrix((0, 0, 2))


@pytest.mark.parametrize("perm", [(1, 0, 3, 2), (0,)])
def test_conjugation_rejects_a_permutation_of_another_size(minplus, perm):
    """A size-4 permutation once conjugated a 2x2 matrix, and the plus check
    on it returned True; a size-1 permutation raised IndexError."""
    m = rand_mat(minplus, 2, random.Random(2))
    pi = M.PermutationMatrix(perm)
    want = f"^a permutation of size {len(perm)} cannot conjugate a 2x2 matrix$"
    with pytest.raises(ValueError, match=want):
        M.permutation_conjugate(m, pi)
    with pytest.raises(ValueError, match=want):
        M.permutation_plus_check(minplus, m, pi)


def test_permute_column_rejects_a_permutation_of_another_size():
    """A size-3 permutation once permuted the column (1, 2) to (2, 1)."""
    with pytest.raises(ValueError,
                       match="^a permutation of size 3 cannot permute a column of size 2$"):
        M.permute_column((1, 2), M.PermutationMatrix((1, 0, 2)))
    assert M.permute_column((1, 2, 3), M.PermutationMatrix((1, 2, 0))) == (2, 3, 1)


def test_group_tables_valid():
    groups = M.builtin_groups()
    assert sorted(groups) == ["S3", "V4", "Z1", "Z2", "Z3", "Z4", "Z5", "Z6"]
    assert [g.order for g in M.groups_up_to(6)] == [1, 2, 3, 4, 4, 5, 6, 6]
    s3 = groups["S3"]
    assert any(s3.table[i][j] != s3.table[j][i]
               for i in range(6) for j in range(6))  # genuinely nonabelian


def test_group_table_rejects_bad_table():
    with pytest.raises(ValueError, match="^bad: element 1 has no inverse$"):
        M.GroupTable("bad", ((0, 1), (1, 1)))
    with pytest.raises(ValueError, match="^bad: element 0 is not a unit$"):
        M.GroupTable("bad", ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="^bad: product is not associative$"):
        M.GroupTable("bad", ((0, 1, 2), (1, 0, 0), (2, 0, 0)))


def test_group_matrix_layout(minplus):
    z2 = M.builtin_groups()["Z2"]
    m = M.group_matrix(z2, [3, 5])
    assert m.entries == ((3, 5), (5, 3))
    z3 = M.builtin_groups()["Z3"]
    m3 = M.group_matrix(z3, ["x1", "x2", "x3"])
    assert m3.entries[1] == ("x3", "x1", "x2")
    trivial = M.builtin_groups()["Z1"]
    assert M.group_matrix(trivial, [7]).entries == ((7,),)


def test_group_matrix_rows_are_permutations():
    z6 = M.builtin_groups()["Z6"]
    xs = list(range(10, 16))
    m = M.group_matrix(z6, xs)
    for row in m.entries:
        assert sorted(row) == sorted(xs)
    for j in range(6):
        assert sorted(m.entries[i][j] for i in range(6)) == sorted(xs)


def test_group_identity_minplus_example(minplus):
    # first row of the plus of the Z2 matrix over (3, 5) sums to plus(min(3,5))
    z2 = M.builtin_groups()["Z2"]
    mp = M.mat_plus(minplus, M.group_matrix(z2, [3, 5]))
    assert min(mp.entries[0]) == 3 == minplus.plus(min(3, 5))


def test_group_identities_all_carriers(boolean, minplus, lattice):
    for g in M.groups_up_to(6):
        for carrier in (boolean, minplus, lattice):
            report = M.group_identity_check(g, carrier, trials=10,
                                            pair=self_pair(carrier))
            assert report.ok, (g.name, carrier.name, report.failures[:1])


def test_matrix_rectangular_validation():
    for rows in ([[1, 2], [3]], [[1], [2, 3]], [], [[]], [[], []]):
        with pytest.raises(ValueError, match="^matrix rows must be nonempty and equal length$"):
            M.mat(rows)
    with pytest.raises(ValueError):
        M.mat_star(None, M.mat([[1, 2]]))


def test_buchi_two_state_omega_k(lang6, lang_pair6):
    """Entry 1 of the omega of the a/b two-cycle contains (ab)^w, entry 2 (ba)^w."""
    from omegalg.series import OmegaWord
    m = M.mat([[lang6.zero, lang6.language("a")],
               [lang6.language("b"), lang6.zero]])
    col = M.mat_omega_k(lang_pair6, m, 1)
    assert OmegaWord("", "ab") in col[0]
    assert OmegaWord("", "ba") in col[1]
    assert OmegaWord("", "a") not in col[0]
    assert M.mat_omega_k(lang_pair6, m, 0) == (lang_pair6.module.zero,) * 2
    assert M.mat_omega_k(lang_pair6, m, 2) == M.mat_omega(lang_pair6, m)


def test_omega_k_matches_block_form(boolean, minplus, lang6, lang_pair6):
    """The pass's omega column, accepting the first k rows, against the
    literal block formula at split k, for every k: bool and min-plus up to
    n = 5, languages up to n = 3 (their DFA operations make n = 4 take
    seconds)."""
    rng = random.Random(15)
    cases = [(self_pair(carrier), carrier, n, 6)
             for carrier in (boolean, minplus) for n in range(1, 6)]
    cases += [(lang_pair6, lang6, n, 2) for n in range(1, 4)]
    for pair, carrier, n, count in cases:
        V = pair.module
        for _ in range(count):
            m = rand_mat(carrier, n, rng)
            for k in range(n + 1):
                got = M.mat_omega_k(pair, m, k)
                want = oracles.omega_k_block(pair, m, k)
                assert len(got) == n and all(V.eq(a, b) for a, b in zip(got, want)), \
                    (carrier.name, M.mat_show(carrier, m), k)



def test_omega_k_against_path_oracles(boolean, minplus):
    """Entry i of the omega column accepting the first k rows: over bool,
    whether a path leads from i to a row j < k on a cycle; over min-plus,
    the shortest path from i to such a row j on a zero-weight cycle."""
    rng = random.Random(16)
    for n in range(1, 6):
        for _ in range(8):
            adj = [[boolean.sample(rng) for _ in range(n)] for _ in range(n)]
            closure = oracles.transitive_closure(adj)
            cyclic = oracles.nonempty_path_closure(adj)
            weights = [[minplus.sample(rng) for _ in range(n)] for _ in range(n)]
            dist = oracles.floyd_warshall(weights)
            zero_cyclic = oracles.nonempty_path_closure(
                [[w == 0 for w in row] for row in weights])
            for k in range(n + 1):
                got = M.mat_omega_k(self_pair(boolean), M.mat(adj), k)
                assert list(got) == [any(closure[i][j] and cyclic[j][j] for j in range(k))
                                     for i in range(n)], (adj, k)
                got = M.mat_omega_k(self_pair(minplus), M.mat(weights), k)
                assert list(got) == [min([dist[i][j] for j in range(k) if zero_cyclic[j][j]],
                                         default=INF) for i in range(n)], (weights, k)

class _CountingCarrier:
    """A carrier view that counts its add, mul, plus and omega calls."""

    def __init__(self, base):
        self._base, self.ops = base, 0
        for op in ("add", "mul", "plus", "omega"):
            setattr(self, op, self._counted(getattr(base, op)))

    def _counted(self, fn):
        def call(*args):
            self.ops += 1
            return fn(*args)
        return call

    def __getattr__(self, item):
        return getattr(self._base, item)


def test_omega_skips_the_last_plus_rows(minplus):
    """Omega discards M^+, so its last elimination step builds no M^+ rows:
    on a dense n = 16 matrix it takes fewer carrier operations than the full
    pass and gives the same column."""
    rng = random.Random(16)
    m = M.mat([[rng.randrange(0, 7) for _ in range(16)] for _ in range(16)])
    full, omega = _CountingCarrier(minplus), _CountingCarrier(minplus)
    want = M._eliminate(full, m, self_pair(full))[1]
    got = M.mat_omega(self_pair(omega), m)
    assert got == want
    assert omega.ops < full.ops, (omega.ops, full.ops)


def test_elimination_skips_zero_by_identity_only(minplus):
    """The elimination pass skips entries that are the zero object
    (``is c.zero``).  An entry equal to the min-plus zero but not that
    object, a fresh ``float("inf")``, is multiplied out instead, to the same
    plus, star, omega and omega_k on sparse matrices."""
    pair = self_pair(minplus)
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(1, 8)
        rows = [[INF if rng.random() < 0.6 else rng.randrange(0, 10) for _ in range(n)]
                for _ in range(n)]
        m = M.mat(rows)
        fresh = M.mat([[float("inf") if x is INF else x for x in row] for row in rows])
        k = rng.randint(1, n)
        for op in (lambda m: M.mat_plus(minplus, m), lambda m: M.mat_star(minplus, m),
                   lambda m: M.mat_omega(pair, m), lambda m: M.mat_omega_k(pair, m, k)):
            assert op(fresh) == op(m), (rows, k)
