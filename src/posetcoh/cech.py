"""Cech and topos cohomology of presheaves on a finite Alexandrov space.

A presheaf is stored by its values on the intersection poset of the minimal
basic opens; both cohomology theories in scope depend on nothing else.  The
Cech groups are derived limits over that node poset, the topos groups are
derived limits of the diagram pulled back to the underlying poset along the
principal-open assignment, and the comparison map is induced by the cochain
map that evaluates a node cochain on chains of principal opens.  An ordered
Cech complex over the nerve of the covering provides a second, independent
route to the Cech groups.
"""

from __future__ import annotations

from .complexes import ChainMap, induced_on_homology
from .diagrams import (
    Diagram,
    DiagramError,
    _cell_complex,
    _check_degree,
    cohomology_support,
    derived_limit,
    random_diagram,
    sheafify_value,
)
from .groups import GroupHom, canonical_form, is_isomorphism
from .poset import IntersectionPoset, _mask, chains


class Presheaf:
    """Abelian groups on the intersection poset, restriction on reverse inclusion."""

    __slots__ = ("intersection", "diagram", "_pulled", "_rho")

    def __init__(self, intersection, diagram):
        nodes = intersection.poset
        if diagram.base != nodes:
            raise DiagramError("presheaf diagram must live on the intersection poset")
        self.intersection = intersection
        self.diagram = diagram
        self._pulled = None
        self._rho = None

    @property
    def space(self):
        return self.intersection.base

    def pulled_diagram(self):
        """The diagram on the base poset with value(i) = presheaf(basic open of i)."""
        if self._pulled is None:
            lam = self.intersection.lambda_map
            values = [self.diagram.value(lam[i]) for i in range(len(self.space))]
            maps = {
                (high, low): self.diagram.map(lam[high], lam[low])
                for low, high in self.space.covers()
            }
            self._pulled = Diagram(self.space, values, maps)
        return self._pulled

    def cech_complex(self):
        return self.diagram.reduced_complex()

    def topos_complex(self):
        return self.pulled_diagram().reduced_complex()

    def comparison_chain_map(self):
        """The cochain map from node cochains to principal-chain cochains.

        A cochain on strictly decreasing node chains is read off on the chains
        of principal opens; every block is an identity because the coordinate
        groups agree, so row t of a base chain's factor is a 1 at column t of
        its image's factor.  The chain sets are the ones both complexes were
        built on, kept on their base posets by `chains`; above the base's top
        degree there are no principal chains and the map goes to the empty
        product of `Complex.product`.  λ takes each face of a base chain to
        the same face of its image, so ρ commutes with both differentials by
        construction; `ChainMap.verify` checks it on request.
        """
        if self._rho is None:
            source = self.cech_complex()
            target = self.topos_complex()
            lam = self.intersection.lambda_map
            maps = []
            for n, src in enumerate(source.groups):
                position = {c: k for k, c in enumerate(chains(self.diagram.base, n))}
                product = target.product(n)
                lines = [
                    {src.offsets[position[tuple(lam[i] for i in chain)]] + t: 1}
                    for chain, value in zip(chains(self.space, n), product.factors)
                    for t in range(value.generators)
                ]
                maps.append(src.hom_from_rows(product, lines))
            self._rho = ChainMap(source, target, maps)
        return self._rho


def cech_cohomology(presheaf, n):
    """H^n of the covering by all minimal basic opens."""
    return derived_limit(presheaf.diagram, n)


def topos_cohomology(presheaf, n):
    """H^n of the generated sheaf, as a derived limit over the base poset."""
    return derived_limit(presheaf.pulled_diagram(), n)


def comparison_map(presheaf, n):
    """The canonical homomorphism from degree-n Cech to topos cohomology."""
    _check_degree(n)
    return induced_on_homology(presheaf.comparison_chain_map(), n)


def cech_ordered_complex(presheaf, order=None):
    """The alternating Cech complex over the nerve of the covering.

    `order` is a total order on the base elements (a sequence of names); the
    default is the element order of the base poset.  A cell is a tuple of basic
    opens increasing in that order, grown as `chains` grows chains: by each later
    one whose down-set meets its intersection mask, so no empty intersection is
    formed.  It carries the presheaf value at the node of its intersection.  The
    cohomology must agree with `cech_cohomology` in every order.
    """
    space = presheaf.space
    if order is None:
        sequence = list(range(len(space)))
    else:
        unknown = [name for name in order if name not in space.index]
        if unknown:
            raise DiagramError("order names unknown element %r" % (unknown[0],))
        sequence = [space.index[name] for name in order]
        if sorted(sequence) != list(range(len(space))):
            raise DiagramError("order must list every element exactly once")
    down = [space._down[i] for i in sequence]
    node_at = {_mask(space, node): k for k, node in enumerate(presheaf.intersection.nodes)}
    node_of = {}
    cells = []
    level = [((i,), down[p], p) for p, i in enumerate(sequence)]
    while level:
        cells.append([cell for cell, _, _ in level])
        node_of.update((cell, node_at[common]) for cell, common, _ in level)
        level = [
            (cell + (sequence[q],), common & down[q], q)
            for cell, common, p in level
            for q in range(p + 1, len(sequence))
            if common & down[q]
        ]
    return _cell_complex(presheaf.diagram, cells, node_of.__getitem__)


class ComparisonRow:
    """One degree of the comparison: both groups, the map, and the verdict."""

    __slots__ = ("degree", "cech", "topos", "map", "iso")

    def __init__(self, degree, hom):
        self.degree = degree
        self.cech = canonical_form(hom.source)
        self.topos = canonical_form(hom.target)
        self.map = hom
        self.iso = is_isomorphism(hom)


class ComparisonReport:
    """Per-degree comparison rows."""

    __slots__ = ("rows", "all_iso")

    def __init__(self, rows):
        self.rows = list(rows)
        self.all_iso = all(row.iso for row in self.rows)


def cohomology_top(presheaf):
    """The last degree with nonzero Cech cohomology, or the base height if higher.

    Above the base height the topos groups vanish, but the Cech complex
    lives on the node poset, which can be taller, and its groups there need
    not vanish: the face poset of a tetrahedron's boundary gives H^2 = Z
    over a base of height 1.  Degrees outside the Čech `cohomology_support`
    are skipped, so the complex is built only when one above the height is
    in it.
    """
    height = presheaf.space.height()
    diagram = presheaf.diagram
    for n in sorted(cohomology_support(diagram.base, diagram.values), reverse=True):
        if n <= height:
            break
        if not presheaf.cech_complex().homology_group(n).is_trivial():
            return n
    return height


def compare_report(presheaf, degrees=None):
    """Comparison rows in the given degrees, by default 0 to `cohomology_top`."""
    if degrees is None:
        degrees = range(cohomology_top(presheaf) + 1)
    return ComparisonReport(ComparisonRow(n, comparison_map(presheaf, n)) for n in degrees)


def random_presheaf(intersection, seed, **options):
    """A reproducible random presheaf on the given intersection poset.

    `options` are those of `random_diagram`, with its defaults.
    """
    return Presheaf(intersection, random_diagram(intersection.poset, seed, **options))


def sheaf_presheaf(F):
    """The presheaf of the sheaf generated by a diagram on the base poset.

    Every node of the intersection poset receives the sections of the
    generated sheaf over it (the compatible-thread limit); restriction between
    nested nodes forgets the coordinates outside the smaller node.
    """
    intersection = IntersectionPoset(F.base)
    nodes = intersection.nodes
    cones = [sheafify_value(F, node) for node in nodes]
    values = [cone.group for cone in cones]
    # the element that owns each row of a node's cycles, as `sheafify_value` lays them
    owners = [[i for i in sorted(node) for _ in range(F.value(i).generators)] for node in nodes]
    maps = {}
    for low, high in intersection.poset.covers():
        rows = [r for r, i in enumerate(owners[high]) if i in nodes[low]]
        matrix = cones[low].coordinates(cones[high].cycles.take_rows(rows))
        maps[(high, low)] = GroupHom(values[high], values[low], matrix)
    diagram = Diagram(intersection.poset, values, maps)
    return Presheaf(intersection, diagram)
