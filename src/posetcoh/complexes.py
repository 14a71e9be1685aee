"""Cochain complexes of presented groups and homology with lift data.

Homology at a middle group B = Z^g / relations is presented in three steps:
the cycle lattice {x : d_out(x) lies in the target relation lattice} is the
projection of an explicit kernel, its generating columns become the homology
generators, and their relation lattice is solved against those columns.  The
generator-to-cycle matrix is kept, so cocycles can be expressed in homology
coordinates and homology classes lifted back; that is exactly what an induced
map between two complexes needs.  In a degree where a complex's homology is
known to vanish, the third step is left out.

Order complexes are complexes of free groups with +1/-1 boundary entries and
need no lifts, so their homology is read off the rank and torsion of each
sparse boundary matrix (`rank_and_torsion`) instead.
"""

from __future__ import annotations

from .groups import (
    CanonicalGroup,
    GroupHom,
    PresentedAbGroup,
    canonical_form,
    hom_well_defined,
    homs_equal,
    is_zero_hom,
)
from .linalg import IntMatrix, rank_and_torsion, snf
from .poset import PosetError, _components, _core, _mask, chains, induced_subposet


class ComplexError(ValueError):
    """Raised when data fails to form a complex or a chain map."""


class ProductGroup:
    """A finite product of presented groups, one factor per coordinate."""

    __slots__ = ("factors", "offsets", "group")

    def __init__(self, factors):
        factors = tuple(factors)
        offsets = []
        total = 0
        for f in factors:
            offsets.append(total)
            total += f.generators
        self.factors = factors
        self.offsets = tuple(offsets)
        relations = [f.relations for f in factors]
        rel = IntMatrix.block_diag(relations) if any(r.cols for r in relations) else None
        self.group = PresentedAbGroup(total, rel)

    def __len__(self):
        return len(self.factors)

    def hom_from_rows(self, target, lines):
        """The homomorphism to `target` on the dict rows `lines`, zeros dropped."""
        for i, line in enumerate(lines):
            if 0 in line.values():
                lines[i] = {j: a for j, a in line.items() if a}
        matrix = IntMatrix._trusted(target.group.generators, self.group.generators, lines)
        return GroupHom(self.group, target.group, matrix)


class Complex:
    """C^0 -> C^1 -> ... -> C^N with d(n+1) after d(n) equal to zero.

    `groups[n]` is a ProductGroup and `diffs[n]` maps degree n to degree n+1.
    Construction checks shapes and `verify` the algebra, which holds for every
    complex built from a functor, as `Diagram.verify` checks a diagram is.
    `support` is a set of degrees outside which the homology is known to
    vanish, or None when nothing is known; `homology` trusts it unchecked.
    """

    __slots__ = ("groups", "diffs", "support")

    def __init__(self, groups, diffs, support=None):
        self.groups = list(groups)
        self.diffs = list(diffs)
        self.support = support
        if len(self.diffs) != max(len(self.groups) - 1, 0):
            raise ComplexError("need one differential between consecutive degrees")
        for n, d in enumerate(self.diffs):
            if d.source != self.groups[n].group or d.target != self.groups[n + 1].group:
                raise ComplexError("differential %d endpoint mismatch" % n)

    def verify(self):
        """Check that every differential is well defined and d after d is zero."""
        for n, d in enumerate(self.diffs):
            if not hom_well_defined(d):
                raise ComplexError("differential %d is not well defined" % n)
        for n in range(len(self.diffs) - 1):
            if not is_zero_hom(self.diffs[n + 1].compose(self.diffs[n])):
                raise ComplexError("composite of differentials %d and %d is nonzero" % (n, n + 1))

    def top_degree(self):
        return len(self.groups) - 1

    def product(self, n):
        """The product in degree n; above the top degree it has no factors."""
        if n < 0:
            raise ComplexError("degree %d outside the built range" % n)
        return self.groups[n] if n < len(self.groups) else ProductGroup(())

    def incoming(self, n):
        if 1 <= n <= len(self.diffs):
            return self.diffs[n - 1]
        return GroupHom.zero(PresentedAbGroup.zero(), self.product(n).group)

    def outgoing(self, n):
        if 0 <= n < len(self.diffs):
            return self.diffs[n]
        return GroupHom.zero(self.product(n).group, PresentedAbGroup.zero())

    def homology(self, n):
        """Homology in degree n of a complex, whose d after d is zero.

        Outside a known `support` the cycles are computed as in every other
        degree, so maps induced on homology are written on the same
        generators, but the group is presented as zero on them
        (`PresentedAbGroup.trivial`), and the relation lattice is not computed.
        """
        if self.support is None or n in self.support:
            return _homology(self.incoming(n), self.outgoing(n), "degree %d" % n)
        cycles = _cycles(self.outgoing(n))
        return HomologyData(PresentedAbGroup.trivial(cycles.cols), cycles)

    def homology_group(self, n):
        return canonical_form(self.homology(n).group)


class HomologyData:
    """A homology presentation together with its cycle-lift matrix.

    Column j of `cycles` is a middle-group vector representing generator j;
    `coordinates` inverts that correspondence for arbitrary cycles, with the
    Smith decomposition that `cycles` keeps, the one the relations were
    solved with.  When the next degree has no relators, `cycles` is a whole
    kernel basis and arrives with it, so the degree eliminates only d_out.
    """

    __slots__ = ("group", "cycles")

    def __init__(self, group, cycles):
        self.group = group
        self.cycles = cycles

    def coordinates(self, cycles):
        """Express middle-group cycles on homology generators.

        `cycles` is a vector, or a matrix whose columns are all solved
        in one pass.
        """
        y = snf(self.cycles).solve(cycles)
        if y is None:
            raise ComplexError("vector is not a cycle of this homology computation")
        return y


def homology_at(d_in, d_out):
    """Homology ker(d_out)/im(d_in) at the shared middle group.

    The cycles are the kernel of d_out augmented with the target relations,
    projected back to the leading block; the relations among them are the
    boundaries and middle relations solved against them, with their kernel.
    """
    if d_in.target != d_out.source:
        raise ComplexError("homology needs a shared middle group")
    if not is_zero_hom(d_out.compose(d_in)):
        raise ComplexError("differentials do not compose to zero")
    return _homology(d_in, d_out)


def _homology(d_in, d_out, where="the middle group"):
    """`homology_at` for differentials already known to compose to zero: with
    the cycle matrix Z, H = Z^k / Z⁻¹(B + R), and Z⁻¹(B + R) is ker Z joined
    with the lifts of B + R, so one decomposition of Z answers both.  When Z
    is injective its kernel basis has no columns, and the join is the lifts."""
    cycles = _cycles(d_out)
    dec = snf(cycles)
    relations = dec.solve(d_in.matrix.hstack(d_out.source.relations))
    if relations is None:
        raise ComplexError("boundaries or relations at %s are not cycles" % where)
    return HomologyData(PresentedAbGroup(cycles.cols, relations.hstack(dec.kernel_basis())), cycles)


def _cycles(d_out):
    """Generators of the lattice of middle vectors that `d_out` sends to relations."""
    out_combined = d_out.matrix.hstack(d_out.target.relations)
    return snf(out_combined).kernel_basis(d_out.source.generators)


class ChainMap:
    """Degreewise homomorphisms between two complexes; `verify` checks commutation."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source, target, maps):
        self.source = source
        self.target = target
        self.maps = list(maps)
        if len(self.maps) != len(source.groups):
            raise ComplexError("need one map per source degree")

    def verify(self):
        """Check commutation with the differentials, naming the bad degree."""
        for n, d in enumerate(self.source.diffs):
            left = self.target.outgoing(n).compose(self.maps[n])
            right = self.maps[n + 1].compose(d)
            if not homs_equal(left, right):
                raise ComplexError("chain map does not commute at degree %d" % n)


def induced_on_homology(chain_map, n):
    """The map on degree-n homology along a chain map of well-defined maps.

    It is well defined with no check, since cycles go to cycles and boundaries
    to boundaries.  Above the source's top degree it leaves the empty
    `Complex.product(n)`, so its matrix has no columns.
    """
    src, tgt = chain_map.source.homology(n), chain_map.target.homology(n)
    maps = chain_map.maps
    images = maps[n].matrix * src.cycles if n < len(maps) else IntMatrix.zero(tgt.cycles.rows, 0)
    return GroupHom(src.group, tgt.group, tgt.coordinates(images))


def simplicial_homology(chain_sets, n):
    """H_n of the chain complex of free groups on strict chains.

    `chain_sets` lists the chains of an order complex by degree; boundaries
    are alternating sums of face deletions.  Each call sweeps from degree 0
    up to n afresh, and a degree outside the list is 0;
    `order_complex_homology` reads every degree from one sweep.
    """
    for degree, group in order_complex_homology(chain_sets.__getitem__, len(chain_sets) - 1):
        if degree == n:
            return group
    return CanonicalGroup(0)


def order_complex_homology(chain_set, top):
    """Yield (n, H_n) for n = 0, ..., top, reducing each boundary once.

    `chain_set(k)` gives the chains of degree k, for 0 <= k <= top; the sweep
    calls it once per degree, when it reaches that degree.  With c_n chains
    in degree n, H_n = Z^(c_n - rk d_n - rk d_(n+1)) plus the torsion of
    d_(n+1), the boundary into degree n: column k of it is {face index:
    sign} for the k-th chain of degree n + 1, and the faces of a strict chain
    are distinct, so every entry is +1 or -1.  Yielding H_n needs the chains
    of degree n + 1 and no more, so a caller that stops early never
    enumerates or reduces the higher ones.
    """
    lower = chain_set(0) if top >= 0 else ()
    rank_out = 0
    for n in range(top + 1):
        upper = chain_set(n + 1) if n < top else ()
        below = {chain: k for k, chain in enumerate(lower)}
        columns = [
            {below[chain[:i] + chain[i + 1 :]]: (-1) ** i for i in range(len(chain))}
            for chain in upper
        ]
        rank_in, torsion = rank_and_torsion(columns) if columns else (0, ())
        yield n, CanonicalGroup(len(lower) - rank_out - rank_in, torsion)
        lower, rank_out = upper, rank_in


class AcyclicityVerdict:
    """Either acyclic, or the first failing degree with its homology group."""

    __slots__ = ("acyclic", "degree", "group", "via")

    def __init__(self, acyclic, degree=None, group=None, via="homology"):
        self.acyclic = acyclic
        self.degree = degree
        self.group = group
        self.via = via

    def __bool__(self):
        return self.acyclic

    def __repr__(self):
        if self.acyclic:
            return "AcyclicityVerdict(acyclic, via=%s)" % self.via
        return "AcyclicityVerdict(fails at degree %d with %s)" % (
            self.degree,
            self.group.render(),
        )


def subposet_homology(poset, members=None):
    """The degrees in which the subposet on `members` differs from a point.

    `members` is a nonempty subset of the elements, a collection of element
    indices or an int bit mask (default: every element).  Yields (n, H_n)
    lowest degree first: degree 0 with Z^c when there are c > 1
    components, then each degree n >= 1 with H_n nonzero, all read off the
    core, which has the same homology and usually far fewer chains.  The
    core is taken first, and a one-point core returns at once.  Otherwise
    its components are counted: a beat point's neighbours stay joined
    through its one cover, so removing it keeps every component.  A core
    with one point per component has nothing above degree 0; a larger one is
    built as a poset when it leaves out some element, and swept up to its
    height by `order_complex_homology`, whose nonzero degrees n >= 1 are
    passed on as the sweep reaches them, so a caller that stops early
    enumerates and reduces no more.
    """
    mask = _mask(poset, members)
    if not mask:
        raise PosetError("homology needs a nonempty set of elements")
    kept = _core(poset, mask)
    size = kept.bit_count()
    if size == 1:
        return
    parts = len(_components(poset, kept))
    if parts > 1:
        yield 0, CanonicalGroup(parts)
    if size == parts:
        return
    if size < len(poset.elements):
        poset = induced_subposet(poset, kept)
    for n, group in order_complex_homology(lambda k: chains(poset, k), poset.height()):
        if n and not group.is_trivial():
            yield n, group


def acyclicity_check(poset, members=None):
    """Whether the order complex has the homology of a point.

    `members` is the subset of the elements to work within, a collection of
    element indices or an int bit mask (default: every element), whose
    induced subposet is never built itself.  The first
    degree `subposet_homology` yields fails, via the components at degree 0;
    with none, it is acyclic.
    """
    for degree, group in subposet_homology(poset, members):
        return AcyclicityVerdict(False, degree, group, via="homology" if degree else "components")
    return AcyclicityVerdict(True, via="homology")
