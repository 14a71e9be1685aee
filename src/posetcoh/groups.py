"""Finitely generated abelian groups by presentation, and their maps.

A group is the cokernel of an integer relation matrix: generators index rows,
each column is one relator.  Homomorphisms are integer matrices on generators;
two matrices present the same map when they agree columnwise modulo the target
relation lattice.  The canonical form (free rank plus invariant factors) is
how every cohomology group in this package is reported.
"""

from __future__ import annotations

from .linalg import IntMatrix, snf


class PresentedAbGroup:
    """Z^generators modulo the column lattice of `relations`."""

    __slots__ = ("generators", "relations", "_dec", "_canonical")

    def __init__(self, generators, relations=None):
        if generators < 0:
            raise ValueError("generator count must be nonnegative")
        if relations is None:
            relations = IntMatrix.zero(generators, 0)
        if relations.rows != generators:
            raise ValueError(
                "relation matrix has %d rows for %d generators"
                % (relations.rows, generators)
            )
        self.generators = generators
        self.relations = relations
        self._dec = None
        self._canonical = None

    @classmethod
    def free(cls, rank):
        return cls(rank)

    @classmethod
    def zero(cls):
        return cls(0)

    @classmethod
    def from_invariants(cls, rank, torsion):
        """The group Z^rank + Z/d_1 + ... with one generator per summand."""
        torsion = list(torsion)
        gens = rank + len(torsion)
        cols = []
        for k, d in enumerate(torsion):
            col = [0] * gens
            col[rank + k] = d
            cols.append(col)
        rel = IntMatrix.from_columns(cols, nrows=gens) if cols else None
        return cls(gens, rel)

    def relation_dec(self):
        if self._dec is None:
            self._dec = snf(self.relations)
        return self._dec

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
        return vectors.is_zero() or self.relation_dec().contains(vectors)

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
        torsion = tuple(int(d) for d in torsion)
        if rank < 0:
            raise ValueError("negative rank")
        for d in torsion:
            if d < 2:
                raise ValueError("torsion coefficients must be >= 2")
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
    """Free rank and invariant factors of a presented group, kept on the group."""
    if group._canonical is None:
        factors = group.relation_dec().invariant_factors()
        rank = group.generators - len(factors)
        torsion = tuple(d for d in factors if d > 1)
        group._canonical = CanonicalGroup(rank, torsion)
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

    def __add__(self, other):
        return GroupHom(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other):
        return GroupHom(self.source, self.target, self.matrix - other.matrix)

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

    The cokernel is presented by the map's columns joined with the target
    relators, so it is trivial iff all their invariant factors are 1.  A
    surjection between isomorphic finitely generated abelian groups is
    injective, since such groups are Hopfian, so once the map is onto it is
    an isomorphism iff source and target have the same canonical form.
    """
    combined = hom.matrix.hstack(hom.target.relations)
    if snf(combined).invariant_factors() != (1,) * hom.target.generators:
        return False
    return canonical_form(hom.source) == canonical_form(hom.target)
