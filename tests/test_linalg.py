import random

from posetcoh.linalg import (
    IntMatrix,
    determinant,
    is_unimodular,
    kernel_basis,
    rank_and_torsion,
    snf,
    solve,
)

from oracles import invariant_factors_by_minors, laplace_det, random_matrix


def check_decomposition(M, dec):
    assert dec.U * M * dec.V == dec.D
    assert is_unimodular(dec.U)
    assert is_unimodular(dec.V)
    diag = [dec.D.entries[i][i] for i in range(min(M.rows, M.cols))]
    for i in range(M.rows):
        for j in range(M.cols):
            if i != j:
                assert dec.D.entries[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if b:
            assert a != 0 and b % a == 0


def test_snf_identity():
    M = IntMatrix.identity(2)
    dec = snf(M)
    check_decomposition(M, dec)
    assert dec.invariant_factors() == (1, 1)


def test_snf_zero():
    M = IntMatrix.zero(2, 3)
    dec = snf(M)
    check_decomposition(M, dec)
    assert dec.D.is_zero()
    assert dec.invariant_factors() == ()


def test_snf_frozen_2x2():
    # minors oracle: d1 = gcd of entries = 2, d1*d2 = gcd of 2x2 minors = 8
    M = IntMatrix.from_rows([[2, 4], [6, 8]])
    dec = snf(M)
    check_decomposition(M, dec)
    assert dec.invariant_factors() == (2, 4)


def test_solve_diagonal():
    M = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve(M, (4, 9)) == (2, 3)


def test_solve_parity_obstruction():
    assert solve(IntMatrix.from_rows([[2]]), (3,)) is None
    # every integer combination of the columns has an even first coordinate
    assert solve(IntMatrix.from_rows([[2, 4], [6, 8]]), (1, 0)) is None


def test_solve_round_trip():
    rng = random.Random(7)
    for _ in range(150):
        M = random_matrix(rng, max_dim=5, max_entry=6)
        x0 = [rng.randint(-4, 4) for _ in range(M.cols)]
        b = M.apply(x0)
        x = solve(M, b)
        assert x is not None
        assert M.apply(x) == b


def test_solve_found_solutions_verify():
    rng = random.Random(11)
    found = none_seen = 0
    for _ in range(200):
        M = random_matrix(rng, max_dim=4, max_entry=4)
        b = [rng.randint(-6, 6) for _ in range(M.rows)]
        x = solve(M, b)
        if x is None:
            none_seen += 1
        else:
            found += 1
            assert M.apply(x) == tuple(b)
    assert found and none_seen


def test_kernel_rank_one():
    K = kernel_basis(IntMatrix.from_rows([[1, 1]]))
    assert K.cols == 1
    x = K.column(0)
    assert sorted(x) == [-1, 1]


def test_kernel_trivial_and_full():
    assert kernel_basis(IntMatrix.from_rows([[1, 0], [0, 2]])).cols == 0
    assert kernel_basis(IntMatrix.zero(1, 2)).cols == 2


def test_kernel_contract():
    rng = random.Random(23)
    for _ in range(120):
        M = random_matrix(rng, max_dim=6, max_entry=7)
        K = kernel_basis(M)
        if K.cols:
            assert (M * K).is_zero()
            # primitive basis: the kernel lattice is a direct summand
            assert snf(K).invariant_factors() == (1,) * K.cols
        dec = snf(M)
        assert K.cols == M.cols - dec.rank


def test_snf_random_contract_with_minors_oracle():
    rng = random.Random(101)
    for _ in range(250):
        M = random_matrix(rng, max_dim=6, max_entry=9)
        dec = snf(M)
        check_decomposition(M, dec)
        if max(M.rows, M.cols) <= 4:
            assert dec.invariant_factors() == invariant_factors_by_minors(M)


def test_determinant_matches_laplace():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(0, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        M = IntMatrix.from_rows(rows) if n else IntMatrix.zero(0, 0)
        assert determinant(M) == laplace_det(rows)


def test_matrix_utilities():
    A = IntMatrix.from_rows([[1, 2], [3, 4]])
    B = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert A * B == IntMatrix.from_rows([[2, 1], [4, 3]])
    assert A.apply((1, 0)) == (1, 3)
    assert A.hstack(B).cols == 4
    assert IntMatrix.block_diag([A, B]).rows == 4
    assert (A - A).is_zero()
    assert IntMatrix.from_columns([(1, 3), (2, 4)]) == A


def sparse_columns(M):
    return [{i: M[i, j] for i in range(M.rows) if M[i, j]} for j in range(M.cols)]


def test_rank_and_torsion_edge_cases():
    assert rank_and_torsion([]) == (0, ())
    assert rank_and_torsion([{}, {}]) == (0, ())
    # no unit entry anywhere: everything goes to the residual Smith form
    assert rank_and_torsion(sparse_columns(IntMatrix.from_rows([[2, 4], [6, 8]]))) == (2, (2, 4))
    # a unit pivot whose update leaves the only torsion behind
    assert rank_and_torsion([{0: 1, 1: 1}, {0: 1, 1: -1}]) == (2, (2,))


def test_rank_and_torsion_matches_snf_and_minors():
    rng = random.Random(59)
    for trial in range(400):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        scale = rng.choice([1, 1, 2, 3])
        density = rng.random()
        rows = [
            [scale * rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)
        ]
        M = IntMatrix(m, n, rows)
        factors = snf(M).invariant_factors()
        expected = (len(factors), tuple(d for d in factors if d > 1))
        assert rank_and_torsion(sparse_columns(M)) == expected, rows
        if max(m, n) <= 4:
            assert factors == invariant_factors_by_minors(M)
