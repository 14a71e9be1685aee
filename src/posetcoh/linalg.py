"""Exact integer matrices and Smith normal form with transformation matrices.

Everything downstream (group presentations, homology, derived limits) reduces
to three primitives over the integers: the Smith normal form of a matrix with
unimodular row and column transforms, solving M x = b over the integers, and
computing a lattice basis of a kernel.  Where only the isomorphism class of
a group is wanted, `rank_and_torsion` reads rank and invariant factors off
a sparse matrix without any transforms.  Arbitrary-precision ints
are used throughout; there is no floating point anywhere in this package.
"""

from __future__ import annotations

import heapq


class IntMatrix:
    """An immutable integer matrix stored as one dict {column: nonzero} per row.

    No zero is stored, and no stored row is changed once the matrix is
    built, so matrices may share rows.  Every operation, `snf` included,
    works on these rows; `entries` is the only dense view, for output.
    The one other thing a matrix keeps is its Smith decomposition, which
    `snf` stores on the first call and returns on every later one.

    >>> IntMatrix.from_rows([[1, 2], [3, 4]]).transpose().entries
    ((1, 3), (2, 4))
    """

    __slots__ = ("rows", "cols", "lines", "_smith")

    def __init__(self, rows, cols, entries):
        _check_shape(rows, cols)
        if len(entries) != rows:
            raise ValueError("row count mismatch: %d rows, expected %d" % (len(entries), rows))
        lines = []
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise ValueError(
                    "column count mismatch: row %d has %d entries, expected %d" % (i, len(row), cols)
                )
            lines.append({
                j: a if type(a) is int else checked_int(a, "entry (%d, %d)", i, j)
                for j, a in enumerate(row) if a != 0
            })
        self.rows = rows
        self.cols = cols
        self.lines = lines
        self._smith = None

    @classmethod
    def _trusted(cls, rows, cols, lines):
        """A matrix whose `lines` are already `rows` dicts {column: nonzero int}.

        Results derived from existing matrices are built this way; input
        from outside enters through the checking constructors.
        """
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.lines = lines
        m._smith = None
        return m

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def from_columns(cls, cols, nrows=None):
        cols = [list(c) for c in cols]
        if nrows is None:
            if not cols:
                raise ValueError("row count needed for a matrix with no columns")
            nrows = len(cols[0])
        for k, c in enumerate(cols):
            if len(c) != nrows:
                raise ValueError("column %d has %d entries, expected %d" % (k, len(c), nrows))
        return cls(nrows, len(cols), [[c[i] for c in cols] for i in range(nrows)])

    @classmethod
    def identity(cls, n):
        _check_shape(n, n)
        return cls._trusted(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def zero(cls, rows, cols):
        _check_shape(rows, cols)
        return cls._trusted(rows, cols, [{}] * rows)

    @property
    def entries(self):
        """The rows written out densely, as a tuple of int tuples."""
        zeros = (0,) * self.cols
        return tuple(tuple(map(line.get, range(self.cols), zeros)) for line in self.lines)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.lines == other.lines
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(line.items()) for line in self.lines)))

    def __repr__(self):
        return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols, [list(r) for r in self.entries])

    def __getitem__(self, ij):
        i, j = ij
        return self.lines[i].get(range(self.cols)[j], 0)

    def column(self, j):
        j = range(self.cols)[j]
        return tuple(line.get(j, 0) for line in self.lines)

    def transpose(self):
        lines = [{} for _ in range(self.cols)]
        for i, line in enumerate(self.lines):
            for j, a in line.items():
                lines[j][i] = a
        return IntMatrix._trusted(self.cols, self.rows, lines)

    def __neg__(self):
        return IntMatrix._trusted(
            self.rows, self.cols, [{j: -a for j, a in line.items()} for line in self.lines]
        )

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, q):
        """self + q * other: each row of `other` added onto a copy of the row of `self`."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        lines = [dict(line) for line in self.lines]
        for line, other_line in zip(lines, other.lines):
            _add(line, other_line, q)
        return IntMatrix._trusted(self.rows, self.cols, lines)

    def __mul__(self, other):
        """Matrix product; `other` may also be a vector (sequence of ints).

        Each nonzero entry a in column k of a row of `self` adds a times
        row k of `other` (`_add`), so zero entries on either side cost
        nothing, and the entries that cancel are dropped.
        """
        if isinstance(other, IntMatrix):
            if other.rows != self.cols:
                raise ValueError("shape mismatch: %d rows, expected %d" % (other.rows, self.cols))
            right = other.lines
            lines = []
            for line in self.lines:
                acc = {}
                for k, a in line.items():
                    _add(acc, right[k], a)
                lines.append(acc)
            return IntMatrix._trusted(self.rows, other.cols, lines)
        return self.apply(other)

    def apply(self, vector):
        """Image of an integer vector under this matrix."""
        vector = list(vector)
        if len(vector) != self.cols:
            raise ValueError("vector length %d, expected %d" % (len(vector), self.cols))
        return tuple(sum(a * vector[j] for j, a in line.items()) for line in self.lines)

    def hstack(self, other):
        """Columns of self followed by columns of other; self when other has
        none, which then shares self's Smith decomposition."""
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        if not other.cols:
            return self
        lines = [dict(la) if lb else la for la, lb in zip(self.lines, other.lines)]
        for line, lb in zip(lines, other.lines):
            for j, b in lb.items():
                line[self.cols + j] = b
        return IntMatrix._trusted(self.rows, self.cols + other.cols, lines)

    def take_rows(self, indices):
        lines = [self.lines[i] for i in indices]
        return IntMatrix._trusted(len(lines), self.cols, lines)

    def is_zero(self):
        return not any(self.lines)

    @classmethod
    def block_diag(cls, blocks):
        lines = []
        c0 = 0
        for b in blocks:
            lines.extend({c0 + j: a for j, a in line.items()} for line in b.lines)
            c0 += b.cols
        return cls._trusted(len(lines), c0, lines)


def _check_shape(rows, cols):
    for count in (rows, cols):
        if type(count) is not int:
            raise ValueError("matrix shape %r is not an int" % (count,))
    if rows < 0 or cols < 0:
        raise ValueError("negative matrix shape %d x %d" % (rows, cols))


def checked_int(x, what, *args):
    """x as an int, or a ValueError naming `what % args` unless int(x) == x."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x:
        raise ValueError("%s is not an integer: %r" % (what % args, x))
    return n


class SmithDecomposition:
    """Factorization U * M * V = D with U, V unimodular and D in Smith form.

    The diagonal of D is nonnegative and each entry divides the next; the
    nonzero diagonal entries are the invariant factors of M.  The decomposition
    also answers lattice questions: it is the single factored object reused
    for `contains`, `solve` and `kernel_basis`.  U and V are kept as the
    row and column logs of the elimination, both as `_replay` runs them: U
    is the row log run forward, V the column log last operation first, on
    copies of the rows of each operand; U and V themselves are built when
    read.  M is not kept: D has its shape, and M keeps the decomposition.
    """

    __slots__ = ("D", "rank", "_row_ops", "_col_ops", "_U", "_V")

    def __init__(self, D, rank, row_ops, col_ops):
        self.D = D
        self.rank = rank
        self._row_ops = row_ops
        self._col_ops = col_ops
        self._U = None
        self._V = None

    @property
    def U(self):
        if self._U is None:
            m = self.D.rows
            self._U = IntMatrix._trusted(m, m, _replay([{i: 1} for i in range(m)], self._row_ops))
        return self._U

    @property
    def V(self):
        if self._V is None:
            n = self.D.cols
            identity = [{i: 1} for i in range(n)]
            self._V = IntMatrix._trusted(n, n, _replay(identity, reversed(self._col_ops)))
        return self._V

    def invariant_factors(self):
        return tuple(self.D.lines[i][i] for i in range(self.rank))

    def _quotient(self, B):
        """The leading `rank` rows of U B divided by the diagonal of D, as dict
        rows, or None when a row of U B past the rank is nonzero or a row is
        not divisible by its invariant factor."""
        r = self.rank
        if B.rows != self.D.rows:
            raise ValueError("shape mismatch: %d rows, expected %d" % (B.rows, self.D.rows))
        rows = _replay([dict(line) for line in B.lines], self._row_ops)
        factors = self.invariant_factors()
        if any(rows[r:]) or any(c % d for row, d in zip(rows, factors) for c in row.values()):
            return None
        return [{j: c // d for j, c in row.items()} for row, d in zip(rows, factors)]

    def contains(self, B):
        """Whether every column of B lies in the column lattice of M."""
        return self._quotient(B) is not None

    def solve(self, b):
        """Some integer X with M X = B, or None when a column has no solution.

        B is a matrix, whose columns are solved together: the quotient of
        `contains`, then V times it, with the rows kept sparse throughout.
        A vector is solved as a one-column matrix and its solution comes
        back as a tuple.
        """
        m, n = self.D.rows, self.D.cols
        vector = not isinstance(b, IntMatrix)
        if vector:
            b = IntMatrix.from_columns([b], nrows=m)
        Y = self._quotient(b)
        if Y is None:
            return None
        lines = _replay(Y + [{} for _ in range(n - self.rank)], reversed(self._col_ops))
        X = IntMatrix._trusted(n, b.cols, lines)
        return X.column(0) if vector else X

    def kernel_basis(self, rows=None):
        """Columns forming a lattice basis of {x : M x = 0}: V times the identity
        columns past the rank, or only the leading `rows` rows of that.

        A whole basis K = V[:, r:] arrives with its Smith decomposition, so
        `snf(K)` never eliminates it.  V⁻¹ K = [0; I_k]: the column log run
        forward with negated multipliers inverts V, and the swaps (i, r + i, 0)
        (none of them moves a row when r = 0) lift I_k to the top, leaving
        D = [I_k; 0] and no column operation.  K has full column rank, so
        every `solve` against it has the one answer an elimination of K gives.
        """
        n, r = self.D.cols, self.rank
        rows = n if rows is None else rows
        if type(rows) is not int or not 0 <= rows <= n:
            raise ValueError("kernel rows %r outside 0..%d" % (rows, n))
        k = n - r
        lines = _replay([{} for _ in range(r)] + [{i: 1} for i in range(k)], reversed(self._col_ops))
        K = IntMatrix._trusted(rows, k, lines[:rows])
        if rows == n:
            inverse = [(s, d, -q) for s, d, q in self._col_ops]
            lift = [(i, r + i, 0) for i in range(k)]
            top = IntMatrix._trusted(n, k, [{i: 1} for i in range(k)] + [{}] * r)
            K._smith = SmithDecomposition(top, k, inverse + lift, [])
        return K


def _replay(rows, ops):
    """The dict rows `rows`, {column: nonzero}, after the row operations `ops`.

    (src, dst, q) adds q times row src to row dst (`_add`); q == 0 swaps the
    two rows instead, so (t, t, 0) does nothing, and (t, t, -1) negates row t.
    """
    for src, dst, q in ops:
        if not q:
            rows[src], rows[dst] = rows[dst], rows[src]
        elif src == dst:
            rows[dst] = {j: -a for j, a in rows[dst].items()}
        else:
            _add(rows[dst], rows[src], q)
    return rows


def _add(row, other, q):
    """Add q != 0 times the dict row `other` to the dict row `row` in place,
    dropping the entries that cancel: the one row operation of `linalg`, run
    by the elimination, every replay, the matrix product, sum and difference."""
    for j, a in other.items():
        c = row.get(j, 0) + q * a
        if c:
            row[j] = c
        else:
            del row[j]


def snf(M):
    """Smith normal form of M with unimodular transforms, kept on M.

    The first call eliminates M (`_eliminate`) and stores the decomposition
    on M, and every later call returns it: a matrix never changes once built.
    A whole `kernel_basis` arrives with its decomposition and is never
    eliminated.

    >>> M = IntMatrix.from_rows([[2, 4], [6, 8]])
    >>> snf(M).invariant_factors(), snf(M) is snf(M)
    ((2, 4), True)
    """
    if M._smith is None:
        M._smith = _eliminate(M)
    return M._smith


def _eliminate(M):
    """The Smith decomposition of M.  Row and column eliminations use a
    pivot of minimal absolute value, which keeps intermediate entries small
    in practice.  Each pivot step clears column t, then row t, and goes
    round again in three ways: a remainder left in column t or in row t
    becomes the new pivot, and a live row with an entry the pivot does not
    divide is added to row t, so the divisibility chain on the diagonal
    holds by construction.  Only M is eliminated; each row and
    column operation is logged as the row operation that `_replay` runs
    for it, and U and V are replayed from the logs when first read.

    The work runs on copies of M's dict rows and follows the live block: a
    row that a pivot search found empty is never visited again, a column
    swap exchanges two keys of the pivot row and the rows below it, and a
    row operation (`_add`) reads only the nonzeros of the pivot row.  What
    is skipped cannot change, so the pivots and the logs are those of the
    full dense sweep.
    """
    m, n = M.rows, M.cols
    A = [dict(line) for line in M.lines]
    row_ops = []  # (src, dst, q) as `_replay` reads them
    # column j += q * column t is logged (j, t, q): V on the left of a matrix
    # runs it as row t += q * row j, last operation first
    col_ops = []

    def swap_cols(t, k):
        # above t a row is zero outside its own pivot column
        for i in (t, *live):
            row = A[i]
            if t in row or k in row:
                a, b = row.pop(t, 0), row.pop(k, 0)
                if a:
                    row[k] = a
                if b:
                    row[t] = b
        col_ops.append((k, t, 0))

    # the rows from the pivot down that no pivot search found empty; the
    # pivot row leaves once it is chosen
    live = list(range(m))
    t = 0  # the pivots so far, and at the end the rank
    while t < min(m, n):
        # The first entry of least absolute value, row by row (a tie in a
        # dict row goes to the lower column), so the first row with a unit
        # settles it.  An empty row leaves `live`: no row operation or swap
        # ever picks an empty row, so it stays empty and in place.
        best, where = 0, None
        empty = []
        for i in live:
            row = A[i]
            if not row:
                empty.append(i)
                continue
            for j, a in row.items():
                if a < 0:
                    a = -a
                if not best or a < best or (a == best and i == where[0] and j < where[1]):
                    best = a
                    where = (i, j)
            if best == 1:
                break
        for i in empty:
            live.remove(i)
        if where is None:
            break
        i0, j0 = where
        if i0 != t:
            A[t], A[i0] = A[i0], A[t]
            row_ops.append((t, i0, 0))
        if live[0] == t:
            del live[0]
        if j0 != t:
            swap_cols(t, j0)
        while True:
            # Euclidean elimination in column t, then row t.  A remainder
            # becomes the new, strictly smaller pivot, so this terminates.
            At = A[t]
            p = At[t]
            for i in live:
                Ai = A[i]
                if t in Ai:
                    q = Ai[t] // p
                    if q:
                        _add(Ai, At, -q)
                        row_ops.append((t, i, -q))
                    if t in Ai:
                        A[t], A[i] = Ai, At
                        row_ops.append((t, i, 0))
                        break
            else:
                # column t is now zero off the diagonal, so subtracting it from
                # column j changes A[t][j] alone; row t holds t and columns past it
                for j in sorted(At)[1:]:
                    q = At[j] // p
                    if q:
                        At[j] -= q * p
                        col_ops.append((j, t, -q))
                    if At[j]:
                        swap_cols(t, j)
                        break
                    del At[j]
                else:
                    # pivot must divide the rest of the submatrix, the live rows
                    # past column t, before we move on; a unit divides everything
                    if p == 1 or p == -1:
                        break
                    offender = next((i for i in live if any(a % p for a in A[i].values())), None)
                    if offender is None:
                        break
                    _add(At, A[offender], 1)
                    row_ops.append((offender, t, 1))
        if At[t] < 0:
            # the passes above left row t zero outside column t
            At[t] = -At[t]
            row_ops.append((t, t, -1))
        t += 1

    D = IntMatrix._trusted(m, n, [{i: A[i][i]} for i in range(t)] + [{}] * (m - t))
    return SmithDecomposition(D, t, row_ops, col_ops)


def rank_and_torsion(columns):
    """Rank and invariant factors > 1 of a matrix given as sparse columns.

    Each column is a dict {row: nonzero int}.  Pivots equal to +1 or -1 are
    eliminated first: the pivot row is one with the fewest nonzeros among
    rows holding a unit, taken off a heap of (count, row), and the pivot
    column is the shortest column with a unit there, so the column updates
    (and their fill-in) stay small.  A unit pivot splits off an invariant
    factor 1 without changing the others, so the rest, once no unit entry is
    left (usually nothing), goes transposed to `snf` for its factors.  No
    transforms are kept.

    >>> rank_and_torsion([{0: 2, 1: 1}, {0: 4, 1: 2}])
    (1, ())
    >>> rank_and_torsion([{0: 2}, {1: 3}])
    (2, (6,))
    """
    cols = [dict(c) for c in columns if c]
    row_cols = {}
    for k, col in enumerate(cols):
        for i in col:
            row_cols.setdefault(i, set()).add(k)
    # rows by nonzero count; an entry goes stale when its row changes and is
    # pushed again with its new count
    heap = [(len(ks), i) for i, ks in row_cols.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        count, r = heapq.heappop(heap)
        ks = row_cols.get(r)
        if ks is None or len(ks) != count:
            continue
        units = [(len(cols[k]), k) for k in ks if cols[k][r] in (1, -1)]
        if not units:
            continue  # filed again if a later update touches it
        c = min(units)[1]
        pivot = cols[c]
        cols[c] = None
        sign = pivot[r]
        # clear row r from every other column; only pivot rows change
        for k in ks:
            if k == c:
                continue
            col = cols[k]
            f = col[r] * sign
            for i, v in pivot.items():
                w = col.get(i, 0) - f * v
                if w:
                    if i not in col:
                        row_cols[i].add(k)
                    col[i] = w
                else:
                    del col[i]
                    if i != r:
                        row_cols[i].discard(k)
        del row_cols[r]
        rank += 1
        for i in pivot:
            if i == r:
                continue
            ks_i = row_cols[i]
            ks_i.discard(c)
            if ks_i:
                heapq.heappush(heap, (len(ks_i), i))
            else:
                del row_cols[i]
    residual = [c for c in cols if c]
    if not residual:
        return rank, ()
    number = {i: k for k, i in enumerate(sorted(row_cols))}
    lines = [{number[i]: v for i, v in col.items()} for col in residual]
    factors = snf(IntMatrix._trusted(len(lines), len(number), lines)).invariant_factors()
    return rank + len(factors), tuple(d for d in factors if d > 1)

