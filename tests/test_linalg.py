import random

import pytest

from posetcoh.diagrams import full_complex_truncated, random_diagram
from posetcoh.linalg import IntMatrix, rank_and_torsion, snf
from posetcoh.poset import parse_poset

from oracles import (
    determinant,
    eager_snf,
    invariant_factors_by_minors,
    is_unimodular,
    laplace_det,
    random_matrix,
)


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
    assert snf(M).solve((4, 9)) == (2, 3)


def test_solve_parity_obstruction():
    assert snf(IntMatrix.from_rows([[2]])).solve((3,)) is None
    # every integer combination of the columns has an even first coordinate
    assert snf(IntMatrix.from_rows([[2, 4], [6, 8]])).solve((1, 0)) is None


def test_solve_round_trip():
    rng = random.Random(7)
    for _ in range(150):
        M = random_matrix(rng, max_dim=5, max_entry=6)
        x0 = [rng.randint(-4, 4) for _ in range(M.cols)]
        b = M.apply(x0)
        x = snf(M).solve(b)
        assert x is not None
        assert M.apply(x) == b


def test_solve_found_solutions_verify():
    rng = random.Random(11)
    found = none_seen = 0
    for _ in range(200):
        M = random_matrix(rng, max_dim=4, max_entry=4)
        b = [rng.randint(-6, 6) for _ in range(M.rows)]
        x = snf(M).solve(b)
        if x is None:
            none_seen += 1
        else:
            found += 1
            assert M.apply(x) == tuple(b)
    assert found and none_seen


def test_kernel_rank_one():
    K = snf(IntMatrix.from_rows([[1, 1]])).kernel_basis()
    assert K.cols == 1
    x = K.column(0)
    assert sorted(x) == [-1, 1]


def test_kernel_trivial_and_full():
    assert snf(IntMatrix.from_rows([[1, 0], [0, 2]])).kernel_basis().cols == 0
    assert snf(IntMatrix.zero(1, 2)).kernel_basis().cols == 2


def test_kernel_rows_must_lie_in_the_domain():
    # a cut past the domain would pad the basis with rows that are not there
    dec = snf(IntMatrix.from_rows([[1, 1, 0]]))
    assert dec.kernel_basis(0) == IntMatrix.zero(0, 2)
    assert dec.kernel_basis(3) == dec.kernel_basis()
    for rows in (-1, 4):
        with pytest.raises(ValueError, match="kernel rows %d outside 0..3" % rows):
            dec.kernel_basis(rows)


def test_kernel_contract():
    rng = random.Random(23)
    for _ in range(120):
        M = random_matrix(rng, max_dim=6, max_entry=7)
        K = snf(M).kernel_basis()
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
    # empty shapes keep their dimensions through every derived operation
    assert IntMatrix.zero(0, 3).transpose() == IntMatrix.zero(3, 0)
    assert IntMatrix.zero(2, 0).transpose() == IntMatrix.zero(0, 2)
    assert IntMatrix.zero(2, 0) * IntMatrix.zero(0, 3) == IntMatrix.zero(2, 3)
    assert IntMatrix.zero(0, 2) * A == IntMatrix.zero(0, 2)
    assert A.take_rows([]) == IntMatrix.zero(0, 2)
    assert A.take_rows([1, 1, 0]) == IntMatrix.from_rows([[3, 4], [3, 4], [1, 2]])
    assert IntMatrix.zero(0, 1).hstack(IntMatrix.zero(0, 2)) == IntMatrix.zero(0, 3)
    assert IntMatrix.block_diag([]) == IntMatrix.zero(0, 0)
    assert IntMatrix.block_diag([IntMatrix.zero(1, 0), B, IntMatrix.zero(0, 1)]) == (
        IntMatrix.from_rows([[0, 0, 0], [0, 1, 0], [1, 0, 0]])
    )


def test_public_constructors_check_shapes_and_convert_entries():
    with pytest.raises(ValueError, match="column count"):
        IntMatrix(2, 2, [[1, 2], [3]])
    with pytest.raises(ValueError, match="row count"):
        IntMatrix(3, 2, [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="column count"):
        IntMatrix.from_rows([[1, 2], [3, 4, 5]])
    with pytest.raises(ValueError, match="column 0 has 3 entries, expected 2"):
        IntMatrix.from_columns([(1, 2, 9), (3, 4)], nrows=2)
    with pytest.raises(ValueError, match="column 1 has 1 entries, expected 2"):
        IntMatrix.from_columns([(1, 2), (3,)], nrows=2)
    M = IntMatrix(1, 2, [[True, 3.0]])
    assert M.entries == ((1, 3),)
    assert all(type(a) is int for a in M.entries[0])


def naive_product(A, B, n):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(n)] for i in range(len(A))]


def naive_block_diag(blocks):
    cols = sum(c for _, c in blocks)
    out = []
    c0 = 0
    for rows, c in blocks:
        for row in rows:
            out.append([0] * c0 + list(row) + [0] * (cols - c0 - c))
        c0 += c
    return out


def assert_same_matrix(result, rows, cols, expected):
    """`result` equals, and hashes like, the checked matrix of `expected`."""
    checked = IntMatrix(rows, cols, expected)
    assert (result.rows, result.cols) == (rows, cols)
    assert result == checked and hash(result) == hash(checked)
    assert type(result.entries) is tuple
    for row in result.entries:
        assert type(row) is tuple and len(row) == cols
        assert all(type(a) is int for a in row)


def sparse_random_rows(rng, m, n):
    fill = rng.choice([0.0, 0.1, 0.3, 1.0])
    rows = [[rng.randint(-5, 5) if rng.random() < fill else 0 for _ in range(n)] for _ in range(m)]
    if m and rng.random() < 0.3:
        rows[rng.randrange(m)] = [0] * n
    if n and rng.random() < 0.3:
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    return rows


def test_derived_operations_match_naive_reference():
    rng = random.Random(67)
    for trial in range(300):
        m, k, n = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = sparse_random_rows(rng, m, k)
        b = sparse_random_rows(rng, k, n)
        c = sparse_random_rows(rng, m, k)
        e = sparse_random_rows(rng, m, n)
        A, B, C, E = IntMatrix(m, k, a), IntMatrix(k, n, b), IntMatrix(m, k, c), IntMatrix(m, n, e)
        assert_same_matrix(A * B, m, n, naive_product(a, b, n))
        assert_same_matrix(A + C, m, k, [[x + y for x, y in zip(r, s)] for r, s in zip(a, c)])
        assert_same_matrix(A - C, m, k, [[x - y for x, y in zip(r, s)] for r, s in zip(a, c)])
        assert_same_matrix(-A, m, k, [[-x for x in r] for r in a])
        assert_same_matrix(A.transpose(), k, m, [[a[i][j] for i in range(m)] for j in range(k)])
        assert_same_matrix(A.hstack(E), m, k + n, [r + s for r, s in zip(a, e)])
        picks = [rng.randrange(m) for _ in range(rng.randint(0, 4))] if m else []
        assert_same_matrix(A.take_rows(picks), len(picks), k, [a[i] for i in picks])
        blocks = [(a, k), (b, n), (e, n)]
        assert_same_matrix(
            IntMatrix.block_diag([A, B, E]), m + k + m, k + n + n, naive_block_diag(blocks)
        )
        if k:
            vector = [rng.randint(-3, 3) for _ in range(k)]
            assert A * vector == tuple(r[0] for r in naive_product(a, [[v] for v in vector], 1))


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


def test_batched_solve_matches_column_solves():
    rng = random.Random(71)
    solved = unsolvable = 0
    for trial in range(200):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        scale = rng.choice([1, 1, 2, 3])
        M = IntMatrix(m, n, [[scale * a for a in row] for row in sparse_random_rows(rng, m, n)])
        dec = snf(M)
        columns, images = [], []
        for _ in range(rng.randint(0, 4)):
            image = rng.random() < 0.7
            if image:
                columns.append(M.apply([rng.randint(-4, 4) for _ in range(n)]))
            else:
                columns.append(tuple(rng.randint(-6, 6) for _ in range(m)))
            images.append(image)
        B = IntMatrix.from_columns(columns, nrows=m)
        one_by_one = [dec.solve(b) for b in columns]
        assert all(x is not None for x, image in zip(one_by_one, images) if image)
        X = dec.solve(B)
        if None in one_by_one:
            unsolvable += 1
            assert X is None, trial
        else:
            solved += 1
            assert X == IntMatrix.from_columns(one_by_one, nrows=n), trial
            assert M * X == B
    assert solved > 50 and unsolvable > 20
    with pytest.raises(ValueError, match="2 rows, expected 3"):
        snf(IntMatrix.zero(3, 1)).solve(IntMatrix.zero(2, 1))


def solve_by(U, D, V, B):
    """`SmithDecomposition.solve` on a matrix, from explicit U, D and V."""
    C = U * B
    diagonal = min(D.rows, D.cols)
    Y = []
    for i, row in enumerate(C.entries):
        d = D[i, i] if i < diagonal else 0
        if any(c % d if d else c for c in row):
            return None
        if i < D.cols:
            Y.append([c // d if d else 0 for c in row])
    Y.extend([[0] * B.cols] * (D.cols - len(Y)))
    return V * IntMatrix(D.cols, B.cols, Y)


def sparse_unit_matrices(rng, count):
    """Sparse, rank-deficient +-1 matrices of 20 x 30 up to 60 x 80, either way up.

    A few rows are zero from the start and a quarter are sums or
    differences of two earlier rows, so they become zero during the
    elimination.  One entry in ten is +-2 or +-3 instead, so that some
    pivots are not units and restart on a remainder.
    """
    for _ in range(count):
        m, n = rng.randint(20, 60), rng.randint(30, 80)
        if rng.random() < 0.5:
            m, n = n, m
        fill = rng.uniform(0.02, 0.10)
        entries = (-1, 1) * 18 + (-3, -2, 2, 3)
        rows = [[rng.choice(entries) if rng.random() < fill else 0 for _ in range(n)] for _ in range(m)]
        for i in rng.sample(range(2, m), m // 4):
            a, b = rng.sample(range(i), 2)
            sign = rng.choice((-1, 1))
            rows[i] = [x + sign * y for x, y in zip(rows[a], rows[b])]
        for i in rng.sample(range(m), rng.randint(1, 3)):
            rows[i] = [0] * n
        yield IntMatrix(m, n, rows)


def chain_boundaries():
    """The differentials of the truncated unreduced complex of a random
    diagram on the chain x1 < x3 < x5 < x4 < x0 < x2, each also stacked
    with its target's relators as `_homology` stacks them."""
    chain = ["x1", "x3", "x5", "x4", "x0", "x2"]
    P = parse_poset({"elements": sorted(chain), "relations": [list(p) for p in zip(chain, chain[1:])]})
    F = random_diagram(P, 3, max_generators=2)
    for d in full_complex_truncated(F, 2).diffs:
        yield d.matrix
        yield d.matrix.hstack(d.target.relations)


def restarts(ops):
    """How often a remainder made a new pivot: an addition to a line
    followed at once by the swap of that line with the pivot line."""
    return sum(a[:2] == b[:2] and a[2] and not b[2] for a, b in zip(ops, ops[1:]))


def test_snf_repeats_the_eager_elimination_exactly():
    # U, D and V fix the homology generators, so the logged elimination must
    # reproduce the eager one entry for entry
    rng = random.Random(89)
    matrices = [
        IntMatrix.from_rows([[2, 0], [0, 3]]),  # pivot 2 must be fixed to divide 3
        IntMatrix.from_rows([[-2, 0, 0], [0, -3, 0], [0, 0, 5]]),
        IntMatrix.from_rows([[0, 0], [0, -4], [0, 6]]),
        IntMatrix.zero(3, 2),
        IntMatrix.zero(0, 3),
        IntMatrix.zero(2, 0),
    ]
    for trial in range(450):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        scale = rng.choice([1, 1, 2, 3, 6])
        rows = [[scale * a for a in row] for row in sparse_random_rows(rng, m, n)]
        if trial % 5 == 0:
            # distinct non-unit diagonals mostly need the divisibility fix
            rows = [[rng.choice([-6, -4, 2, 3, 9]) if i == j else 0 for j in range(n)] for i in range(m)]
        matrices.append(IntMatrix(m, n, rows))
    # the elimination skips rows found zero and the pivot row's zero columns
    seen = {"zero at start": 0, "zero later": 0, "restart past a zero row": 0}
    for M in list(sparse_unit_matrices(random.Random(101), 40)) + list(chain_boundaries()):
        matrices.append(M)
        dec = snf(M)
        zero_rows = sum(not any(row) for row in M.entries)
        seen["zero at start"] += zero_rows > 0
        seen["zero later"] += M.rows - zero_rows > dec.rank
        seen["restart past a zero row"] += zero_rows > 0 and restarts(dec._row_ops) + restarts(dec._col_ops) > 0
    assert min(seen.values()) >= 10, seen
    draw = random.Random(103)
    sparse = (0,) * 6 + (-2, -1, 1, 3)
    for M in matrices:
        U, D, V = eager_snf(M)
        dec = snf(M)
        assert (dec.U, dec.D, dec.V) == (U, D, V), M
        assert dec.U is dec.U and dec.V is dec.V
        free = [j for j in range(M.cols) if j >= min(M.rows, M.cols) or D[j, j] == 0]
        kernel = IntMatrix(M.cols, len(free), [[row[j] for j in free] for row in V.entries])
        assert snf(M).kernel_basis() == kernel
        # the sparse rows of the replay at size: kernel cuts, and U and V
        # applied to sparse random matrices, against the eager products
        for r in sorted({0, 1, M.cols // 3, M.cols // 2, M.cols - 1} & set(range(M.cols))):
            assert dec.kernel_basis(r) == kernel.take_rows(range(r)), (M, r)
        k = draw.randint(1, 3)
        C = IntMatrix(M.rows, k, [[draw.choice(sparse) for _ in range(k)] for _ in range(M.rows)])
        assert dec.contains(C) == (solve_by(U, D, V, C) is not None), M
        assert dec.solve(C) == solve_by(U, D, V, C), M
        B = IntMatrix.from_columns(
            [M.apply([rng.randint(-3, 3) for _ in range(M.cols)]) for _ in range(2)]
            + [[rng.randint(-4, 4) for _ in range(M.rows)]],
            nrows=M.rows,
        )
        assert snf(M).solve(B) == solve_by(U, D, V, B)
        for j in range(B.cols):
            b = B.column(j)
            X = solve_by(U, D, V, IntMatrix(M.rows, 1, [[a] for a in b]))
            assert snf(M).solve(b) == (None if X is None else X.column(0))


def test_transforms_applied_from_the_logs_match_explicit_products():
    # U and V here come from the eager elimination, so a log replayed in the
    # wrong order or from the wrong end cannot agree with itself by accident
    rng = random.Random(97)
    shapes = {"no rows": 0, "no columns": 0, "kernel cut": 0}
    for trial in range(5000):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        scale = rng.choice([1, 1, 2, 3])
        M = IntMatrix(m, n, [[scale * a for a in row] for row in sparse_random_rows(rng, m, n)])
        U, D, V = eager_snf(M)
        dec = snf(M)
        assert dec.D == D, M
        k = rng.randint(0, 3)
        B = IntMatrix(m, k, [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)])
        assert dec.contains(B) == (solve_by(U, D, V, B) is not None), M
        assert dec.solve(B) == solve_by(U, D, V, B), M
        kernel = dec.kernel_basis()
        r = rng.randint(0, n)
        assert dec.kernel_basis(r) == kernel.take_rows(range(r)), M
        shapes["no rows"] += m == 0
        shapes["no columns"] += n == 0
        shapes["kernel cut"] += 0 < r < n and kernel.cols > 0
    assert min(shapes.values()) > 300, shapes
    with pytest.raises(ValueError, match="shape mismatch"):
        snf(IntMatrix.zero(2, 3)).contains(IntMatrix.zero(3, 1))
    with pytest.raises(ValueError, match="shape mismatch"):
        snf(IntMatrix.zero(2, 3)).solve(IntMatrix.zero(3, 1))
