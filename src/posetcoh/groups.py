"""Finitely generated abelian groups by presentation, and their maps.

A group is the cokernel of an integer relation matrix: generators index rows,
each column is one relator.  Homomorphisms are integer matrices on generators;
two matrices present the same map when they agree columnwise modulo the target
relation lattice.  The canonical form (free rank plus invariant factors) is
how every cohomology group in this package is reported.
"""

from __future__ import annotations

from .linalg import IntMatrix, checked_int, rank_and_torsion, snf


def _checked_rank(rank):
    """`rank` as an int, checked as torsion orders are, so 2.0 reads as 2;
    True, 1.5, "1" and a negative rank raise a ValueError naming it."""
    if type(rank) is bool:
        raise ValueError("rank is not an integer: %r" % (rank,))
    rank = checked_int(rank, "rank")
    if rank < 0:
        raise ValueError("negative rank: %r" % (rank,))
    return rank


def _checked_order(d):
    """A torsion order as an int, so 2.0 reads as 2; True, 2.5 and an order
    below 2 raise a ValueError naming it."""
    order = checked_int(d, "torsion order")
    if type(d) is bool or order < 2:
        raise ValueError("torsion order must be at least 2: %r" % (d,))
    return order


class PresentedAbGroup:
    """Z^generators modulo the column lattice of `relations`."""

    __slots__ = ("generators", "relations", "_canonical")

    def __init__(self, generators, relations=None):
        if type(generators) is not int or generators < 0:
            raise ValueError("generator count must be a nonnegative integer: %r" % (generators,))
        if relations is None:
            relations = IntMatrix.zero(generators, 0)
        if relations.rows != generators:
            raise ValueError(
                "relation matrix has %d rows for %d generators"
                % (relations.rows, generators)
            )
        self.generators = generators
        self.relations = relations
        self._canonical = None

    @classmethod
    def free(cls, rank):
        return cls(rank)

    @classmethod
    def zero(cls):
        return cls(0)

    @classmethod
    def trivial(cls, generators):
        """Z^generators modulo the identity: the zero group on `generators`
        generators, whose canonical form is kept from the start.

        >>> canonical_form(PresentedAbGroup.trivial(3)).is_trivial()
        True
        """
        group = cls(generators)  # checks the count
        group.relations = IntMatrix.identity(generators)
        group._canonical = CanonicalGroup(0)
        return group

    @classmethod
    def from_invariants(cls, rank, torsion):
        """The group Z^rank + Z/d_1 + ... with one generator per summand,
        rank and orders checked as `CanonicalGroup` checks them."""
        rank = _checked_rank(rank)
        torsion = list(torsion)
        gens = rank + len(torsion)
        cols = []
        for k, d in enumerate(torsion):
            col = [0] * gens
            col[rank + k] = _checked_order(d)
            cols.append(col)
        rel = IntMatrix.from_columns(cols, nrows=gens) if cols else None
        return cls(gens, rel)

    def in_relation_lattice(self, vectors):
        """Whether every column of the matrix `vectors` is zero in the group.

        The Smith decomposition of the relations answers it (`contains`),
        and a zero matrix needs no decomposition at all.

        >>> g = PresentedAbGroup.from_invariants(1, (2,))
        >>> g.in_relation_lattice(IntMatrix.from_rows([[0, 0], [2, -4]]))
        True
        >>> g.in_relation_lattice(IntMatrix.from_rows([[0, 0], [2, 1]]))
        False
        """
        return vectors.is_zero() or snf(self.relations).contains(vectors)

    def __eq__(self, other):
        return (
            isinstance(other, PresentedAbGroup)
            and self.generators == other.generators
            and self.relations == other.relations
        )

    def __hash__(self):
        return hash((self.generators, self.relations))

    def __repr__(self):
        return "PresentedAbGroup(%d, relators=%d)" % (self.generators, self.relations.cols)


class CanonicalGroup:
    """Isomorphism class of a finitely generated abelian group.

    >>> CanonicalGroup(1, (2, 4)).render()
    'Z ⊕ Z/2 ⊕ Z/4'
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank, torsion=()):
        rank = _checked_rank(rank)
        torsion = tuple(map(_checked_order, torsion))
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisibility chain")
        self.rank = rank
        self.torsion = torsion

    def is_trivial(self):
        return self.rank == 0 and not self.torsion

    def __eq__(self, other):
        return (
            isinstance(other, CanonicalGroup)
            and self.rank == other.rank
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def render(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append("Z^%d" % self.rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"

    def __repr__(self):
        return "CanonicalGroup(%d, %r)" % (self.rank, list(self.torsion))


def canonical_form(group):
    """Free rank and invariant factors by `rank_and_torsion`, kept on the group."""
    if group._canonical is None:
        rank, torsion = rank_and_torsion(group.relations.transpose().lines)
        group._canonical = CanonicalGroup(group.generators - rank, torsion)
    return group._canonical


class GroupHom:
    """A homomorphism candidate given by an integer matrix on generators.

    The matrix shape is (target generators) x (source generators).  Nothing is
    checked beyond shapes at construction time; `hom_well_defined` answers
    whether the matrix actually descends to the quotients.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if matrix.rows != target.generators or matrix.cols != source.generators:
            raise ValueError(
                "matrix is %dx%d, expected %dx%d"
                % (matrix.rows, matrix.cols, target.generators, source.generators)
            )
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def identity(cls, group):
        return cls(group, group, IntMatrix.identity(group.generators))

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, IntMatrix.zero(target.generators, source.generators))

    def apply(self, vector):
        return self.matrix.apply(vector)

    def compose(self, inner):
        """self after inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise ValueError("composition endpoint mismatch")
        return GroupHom(inner.source, self.target, self.matrix * inner.matrix)

    def __repr__(self):
        return "GroupHom(%r -> %r)" % (self.source, self.target)


def hom_well_defined(hom):
    """Whether every source relator is sent into the target relation lattice."""
    return hom.target.in_relation_lattice(hom.matrix * hom.source.relations)


def homs_equal(h1, h2):
    """Whether two matrices present the same homomorphism."""
    if h1.source.generators != h2.source.generators or h1.target != h2.target:
        return False
    return h1.target.in_relation_lattice(h1.matrix - h2.matrix)


def is_zero_hom(hom):
    return hom.target.in_relation_lattice(hom.matrix)


def is_isomorphism(hom):
    """Whether a well-defined homomorphism has trivial kernel and cokernel.

    Source and target must have the same canonical form, and a map between
    two trivial groups is one.  Otherwise it is an isomorphism iff it is
    onto, since finitely generated abelian groups are Hopfian; the cokernel
    is presented by the map's columns joined with the target relators, so
    it is trivial iff they have full rank and no invariant factor above 1.
    """
    form = canonical_form(hom.source)
    if form != canonical_form(hom.target):
        return False
    if form.is_trivial():
        return True
    combined = hom.matrix.hstack(hom.target.relations)
    return rank_and_torsion(combined.transpose().lines) == (hom.target.generators, ())
