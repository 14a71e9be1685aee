"""Exact integer matrices and Smith normal form with transformation matrices.

Everything downstream (group presentations, homology, derived limits) reduces
to three primitives over the integers: the Smith normal form of a matrix with
unimodular row and column transforms, solving M x = b over the integers, and
computing a lattice basis of a kernel.  Where only the isomorphism class of
a homology group is wanted, `rank_and_torsion` reads rank and invariant
factors off a sparse matrix without any transforms.  Arbitrary-precision ints
are used throughout; there is no floating point anywhere in this package.
"""

from __future__ import annotations

from itertools import compress


class IntMatrix:
    """An immutable integer matrix stored as a tuple of row tuples.

    >>> IntMatrix.from_rows([[1, 2], [3, 4]]).transpose().entries
    ((1, 3), (2, 4))
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        if len(entries) != rows:
            raise ValueError("row count mismatch")
        ents = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("column count mismatch")
            ents.append(tuple(int(a) for a in row))
        self.rows = rows
        self.cols = cols
        self.entries = tuple(ents)

    @classmethod
    def _trusted(cls, rows, cols, entries):
        """A matrix whose `entries` are already a tuple of `cols`-long int tuples.

        Results derived from existing matrices are built this way; input
        from outside enters through the checking constructors.
        """
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
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
        return cls._trusted(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, rows, cols):
        return cls._trusted(rows, cols, ((0,) * cols,) * rows)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols, [list(r) for r in self.entries])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def transpose(self):
        entries = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return IntMatrix._trusted(self.cols, self.rows, entries)

    def __neg__(self):
        return IntMatrix._trusted(
            self.rows, self.cols, tuple(tuple(-a for a in r) for r in self.entries)
        )

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return IntMatrix._trusted(
            self.rows,
            self.cols,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Matrix product; `other` may also be a vector (sequence of ints).

        Each row of `other` is listed once by its nonzero entries, and each
        nonzero entry of a row of `self` adds one scaled sparse row, so zero
        entries on either side cost nothing.
        """
        if isinstance(other, IntMatrix):
            n = other.cols
            sparse = _sparse_rows(other, self.cols)
            data = []
            for row in self.entries:
                acc = [0] * n
                for a, terms in zip(row, sparse):
                    if a:
                        for j, b in terms.items():
                            acc[j] += a * b
                data.append(tuple(acc))
            return IntMatrix._trusted(self.rows, n, tuple(data))
        return self.apply(other)

    def apply(self, vector):
        """Image of an integer vector under this matrix."""
        vector = list(vector)
        if len(vector) != self.cols:
            raise ValueError("vector length %d, expected %d" % (len(vector), self.cols))
        return tuple(sum(a * b for a, b in zip(row, vector)) for row in self.entries)

    def hstack(self, other):
        """Columns of self followed by columns of other."""
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return IntMatrix._trusted(
            self.rows,
            self.cols + other.cols,
            tuple(ra + rb for ra, rb in zip(self.entries, other.entries)),
        )

    def take_rows(self, indices):
        entries = tuple(self.entries[i] for i in indices)
        return IntMatrix._trusted(len(entries), self.cols, entries)

    def is_zero(self):
        return all(a == 0 for row in self.entries for a in row)

    @classmethod
    def block_diag(cls, blocks):
        cols = sum(b.cols for b in blocks)
        data = []
        c0 = 0
        for b in blocks:
            left, right = (0,) * c0, (0,) * (cols - c0 - b.cols)
            data.extend(left + row + right for row in b.entries)
            c0 += b.cols
        return cls._trusted(len(data), cols, tuple(data))


class SmithDecomposition:
    """Factorization U * M * V = D with U, V unimodular and D in Smith form.

    The diagonal of D is nonnegative and each entry divides the next; the
    nonzero diagonal entries are the invariant factors of M.  The decomposition
    also answers lattice questions: it is the single factored object reused
    for `contains`, `solve` and `kernel_basis`.  U and V are kept as the
    logged row and column operations of the elimination, replayed on the
    sparse rows of each operand; U and V themselves are built when read.
    """

    __slots__ = ("matrix", "D", "rank", "_row_ops", "_col_ops", "_U", "_V")

    def __init__(self, matrix, D, rank, row_ops, col_ops):
        self.matrix = matrix
        self.D = D
        self.rank = rank
        self._row_ops = row_ops
        self._col_ops = col_ops
        self._U = None
        self._V = None

    @property
    def U(self):
        if self._U is None:
            m = self.matrix.rows
            self._U = _dense(_replay([{i: 1} for i in range(m)], self._row_ops), m)
        return self._U

    @property
    def V(self):
        if self._V is None:
            n = self.matrix.cols
            self._V = _dense(self._replay_columns([{i: 1} for i in range(n)]), n)
        return self._V

    def _replay_columns(self, rows):
        """V * rows: the column log last first; (src, dst, q) adds q times row dst to row src."""
        return _replay(rows, [(d, s, q) for s, d, q in reversed(self._col_ops)])

    def invariant_factors(self):
        return tuple(self.D.entries[i][i] for i in range(self.rank))

    def _quotient(self, B):
        """The leading `rank` rows of U B divided by the diagonal of D, as dict
        rows, or None when a row of U B past the rank is nonzero or a row is
        not divisible by its invariant factor."""
        r = self.rank
        rows = _replay(_sparse_rows(B, self.matrix.rows), self._row_ops)
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
        M = self.matrix
        vector = not isinstance(b, IntMatrix)
        if vector:
            b = IntMatrix.from_columns([b], nrows=M.rows)
        Y = self._quotient(b)
        if Y is None:
            return None
        X = _dense(self._replay_columns(Y + [{} for _ in range(M.cols - self.rank)]), b.cols)
        return X.column(0) if vector else X

    def kernel_basis(self, rows=None):
        """Columns forming a lattice basis of {x : M x = 0}: V times the identity
        columns past the rank, or only the leading `rows` rows of that."""
        n, r = self.matrix.cols, self.rank
        rows = n if rows is None else rows
        if not 0 <= rows <= n:
            raise ValueError("kernel rows %d outside 0..%d" % (rows, n))
        lines = self._replay_columns([{} for _ in range(r)] + [{k: 1} for k in range(n - r)])
        return _dense(lines[:rows], n - r)


def _sparse_rows(M, nrows):
    """The rows of M, which must number `nrows`, as dicts {column: nonzero}."""
    if M.rows != nrows:
        raise ValueError("shape mismatch: %d rows, expected %d" % (M.rows, nrows))
    return [{j: a for j, a in enumerate(row) if a} for row in M.entries]


def _dense(rows, cols):
    """The matrix whose rows are the dicts `rows`, each built once from its nonzeros."""
    entries = []
    for row in rows:
        line = [0] * cols
        for j, a in row.items():
            line[j] = a
        entries.append(tuple(line))
    return IntMatrix._trusted(len(entries), cols, tuple(entries))


def _replay(rows, ops):
    """The dict rows `rows`, {column: nonzero}, after the row operations `ops`.

    (src, dst, q) adds q times row src to row dst, dropping the entries that
    cancel; q == 0 swaps the two rows instead, and (t, t, -1) negates row t.
    """
    for src, dst, q in ops:
        if src == dst:
            rows[dst] = {j: -a for j, a in rows[dst].items()}
        elif q:
            row = rows[dst]
            for j, a in rows[src].items():
                c = row.get(j, 0) + q * a
                if c:
                    row[j] = c
                else:
                    del row[j]
        else:
            rows[src], rows[dst] = rows[dst], rows[src]
    return rows


def snf(M):
    """Smith normal form of M with unimodular transforms.

    Row and column eliminations use a pivot of minimal absolute value, which
    keeps intermediate entries small in practice.  Before a pivot is accepted,
    it is made to divide every remaining entry of the working submatrix, so
    the divisibility chain on the diagonal holds by construction.  Only M is
    eliminated; each row and column operation is logged, and U and V are
    replayed from the logs when first read.

    The work follows the live block: a row that a pivot search found zero
    is never visited again, a column swap touches only the pivot row and
    the rows below it, and a row operation only the nonzero columns of the
    pivot row.  What is skipped cannot change, so the pivots and the logs
    are those of the full sweep.

    >>> snf(IntMatrix.from_rows([[2, 4], [6, 8]])).invariant_factors()
    (2, 4)
    """
    m, n = M.rows, M.cols
    if not m or not n:
        return SmithDecomposition(M, M, 0, [], [])
    A = [list(r) for r in M.entries]
    row_ops = []  # (src, dst, q) as `_replay` reads them
    col_ops = []

    def find_pivot(t):
        # The first entry of least absolute value, row by row, so the first
        # unit settles it.  Rows at or below t are zero left of column t.  A
        # row found zero leaves `live`: no row operation or swap ever picks
        # a zero row, so it stays zero and in place.
        best = where = None
        zero = set()
        for i in live:
            Ai = A[i]
            if not any(Ai):
                zero.add(i)
                continue
            for j in range(t, n):
                a = Ai[j]
                if a:
                    a = -a if a < 0 else a
                    if best is None or a < best:
                        best = a
                        where = (i, j)
                        if a == 1:
                            break
            if best == 1:
                break
        if zero:
            live[:] = [i for i in live if i not in zero]
        return where

    def swap_cols(t, k):
        # above t a row is zero outside its own pivot column
        row = A[t]
        row[t], row[k] = row[k], row[t]
        for i in live:
            row = A[i]
            row[t], row[k] = row[k], row[t]
        col_ops.append((t, k, 0))

    # the rows from the pivot down that no pivot search found zero; the
    # pivot row leaves once it is chosen
    live = list(range(m))
    t = 0  # the pivots so far, and at the end the rank
    while t < min(m, n):
        where = find_pivot(t)
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
            support = list(compress(range(n), At))  # starts with t
            restart = False
            for i in live:
                Ai = A[i]
                if Ai[t]:
                    q = Ai[t] // p
                    if q:
                        for j in support:
                            Ai[j] -= q * At[j]
                        row_ops.append((t, i, -q))
                    if Ai[t]:
                        A[t], A[i] = Ai, At
                        row_ops.append((t, i, 0))
                        restart = True
                        break
            if restart:
                continue
            # column t is now zero off the diagonal, so subtracting it from
            # column j changes A[t][j] alone
            for j in support[1:]:
                q = At[j] // p
                if q:
                    At[j] -= q * p
                    col_ops.append((t, j, -q))
                if At[j]:
                    swap_cols(t, j)
                    restart = True
                    break
            if restart:
                continue
            # pivot must divide the rest of the submatrix before we move on;
            # a unit divides everything
            if p == 1 or p == -1:
                break
            offender = None
            for i in live:
                Ai = A[i]
                for j in range(t + 1, n):
                    if Ai[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            A[t] = [a + b for a, b in zip(At, A[offender])]
            row_ops.append((offender, t, 1))
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            row_ops.append((t, t, -1))
        t += 1

    D = IntMatrix._trusted(m, n, tuple(map(tuple, A)))
    return SmithDecomposition(M, D, t, row_ops, col_ops)


def rank_and_torsion(columns):
    """Rank and invariant factors > 1 of a matrix given as sparse columns.

    Each column is a dict {row: nonzero int}.  Pivots equal to +1 or -1 are
    eliminated first: the pivot row is one with the fewest nonzeros among
    rows holding a unit, so the column updates (and their fill-in) stay
    small.  A unit pivot splits off an invariant factor 1 without changing
    the others, so whatever remains once no unit entry is left -- usually
    nothing -- goes to `snf` for its factors.  No transforms are kept.

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
    # filed again under its new count
    waiting = [[] for _ in range(len(cols) + 1)]
    for i, ks in row_cols.items():
        waiting[len(ks)].append(i)
    count = 1
    rank = 0
    while count < len(waiting):
        if not waiting[count]:
            count += 1
            continue
        r = waiting[count].pop()
        ks = row_cols.get(r)
        if ks is None or len(ks) != count:
            continue
        units = [k for k in ks if cols[k][r] in (1, -1)]
        if not units:
            continue  # filed again if a later update touches it
        c = min(units, key=lambda k: (len(cols[k]), k))
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
                waiting[len(ks_i)].append(i)
                count = min(count, len(ks_i))
            else:
                del row_cols[i]
    residual = [c for c in cols if c]
    if not residual:
        return rank, ()
    rows = sorted(row_cols)
    dense = [[col.get(i, 0) for i in rows] for col in residual]
    factors = snf(IntMatrix.from_columns(dense, nrows=len(rows))).invariant_factors()
    return rank + len(factors), tuple(d for d in factors if d > 1)

