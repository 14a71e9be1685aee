"""Diagrams of abelian groups on a finite poset and derived (co)limits.

A diagram assigns a presented group to every element and a homomorphism to
every Hasse cover a > b (the arrow a -> b of the opposite category); composite
maps are derived on demand, and `Diagram.verify` checks path independence.
Derived limits are cohomology of the cochain complex over strictly decreasing
chains; the unreduced complex over weakly decreasing chains is kept as an
independent route; derived colimits are homology of the chain complex
with coefficients at the chain's first element.  These complexes, the
ordered Cech complex of `cech` and the map whose kernel is the sections of
the generated sheaf (a degree-0 differential over covers) differ only in
their cells and in the node whose value a cell carries; one face builder,
`_cell_complex`, makes them all.
`cohomology_support` bounds the degrees a derived limit can carry from the
homology of small link posets, without building the complex.
"""

from __future__ import annotations

import random
from operator import itemgetter

from .complexes import Complex, HomologyData, ProductGroup, _cycles, subposet_homology
from .groups import (
    CanonicalGroup,
    GroupHom,
    PresentedAbGroup,
    hom_well_defined,
    homs_equal,
)
from .linalg import IntMatrix, snf
from .poset import _indices, _mask, chains


class DiagramError(ValueError):
    """Raised for non-functorial or structurally invalid diagram data."""


def _check_degree(n, what="degree"):
    """Refuse a degree that is not a nonnegative int, True and 1.5 among them."""
    if type(n) is not int or n < 0:
        raise DiagramError("%s %r must be a nonnegative int" % (what, n))


class Diagram:
    """A functor from a poset's opposite category to abelian groups.

    Construction checks shapes: one group per element and one map per cover,
    between the right values.  `verify` checks the functor laws, which hold by
    construction in every diagram the package derives; documents call it at
    load, and `--oracle` on the diagrams it reads.
    """

    __slots__ = ("base", "values", "edge_maps", "_out", "_comp", "_reduced")

    def __init__(self, base, values, edge_maps):
        self.base = base
        self.values = tuple(values)
        if len(self.values) != len(base.elements):
            raise DiagramError("need one group per element")
        covers = {(j, i) for i, j in base.covers()}  # (high, low), arrow high -> low
        given = set(edge_maps)
        if given != covers:
            wrong = (("missing map %s", covers - given), ("map %s is not a cover", given - covers))
            raise DiagramError("; ".join(text % self._arrow(*min(k)) for text, k in wrong if k))
        self.edge_maps = dict(edge_maps)
        self._out = {}
        for (a, b), h in self.edge_maps.items():
            if h.source != self.values[a] or h.target != self.values[b]:
                raise DiagramError("map %s has wrong endpoints" % self._arrow(a, b))
            self._out.setdefault(a, []).append((b, h))
        self._comp = dict(self.edge_maps)
        self._reduced = None

    def _arrow(self, a, b):
        return "%s->%s" % (self.base.elements[a], self.base.elements[b])

    def _routes(self, a, b):
        """The covers c of a with b <= c and their maps a -> c, as listed."""
        return [(c, edge) for c, edge in self._out[a] if self.base._down[c] >> b & 1]

    def verify(self):
        """Check that every map respects relations and every diamond commutes.

        For a in a linear extension and b below a, the route through each
        cover of a must agree with `map(a, b)`, the route through the first.
        """
        for (a, b), h in self.edge_maps.items():
            if not hom_well_defined(h):
                raise DiagramError("map %s does not respect relations" % self._arrow(a, b))
        for a in self.base.linear_extension():
            for b in self.base.down[a]:
                if b == a:
                    continue
                (first, _), *others = self._routes(a, b)
                for via, edge in others:
                    if not homs_equal(self.map(a, b), self.map(via, b).compose(edge)):
                        raise DiagramError(
                            "functoriality fails from %s to %s: routes via %s and %s differ"
                            % tuple(self.base.elements[x] for x in (a, b, first, via))
                        )

    def map(self, a, b):
        """The composite value(a) -> value(b) for a >= b, built on first use
        through the first listed cover of a above b.  A cover's composite is
        its edge map itself: b is then the only cover of a above b.  A cached
        composite already proves b <= a; otherwise `leq` range-checks both.  A
        bool or other non-int is refused first: the key (True, 0) equals (1, 0)."""
        if type(a) is not int or type(b) is not int:
            self.base.leq(b, a)  # raises, naming the index that is not an int
        if 0 <= a == b < len(self.values):
            return GroupHom.identity(self.values[a])
        comp = self._comp.get((a, b))
        if comp is None:
            if not self.base.leq(b, a):
                raise DiagramError("no arrow %s" % self._arrow(a, b))
            via, edge = self._routes(a, b)[0]
            comp = self._comp[a, b] = self.map(via, b).compose(edge)
        return comp

    def value(self, a):
        return self.values[a]

    def reduced_complex(self):
        if self._reduced is None:
            self._reduced = reduced_complex(self)
        return self._reduced


def _cell_complex(F, cells, node, colimit=False, support=None):
    """The complex of products over `cells[n]`, one cell list per degree.

    A cell is a tuple of element indices; the product of degree n has one
    factor per cell of `cells[n]`, in that order: the value of F at
    `node(cell)`.
    The differentials are alternating sums of faces, added straight into
    dict rows: face i of a cell drops entry i, and its block is (-1)^i times
    the identity when the face keeps the node, times the structure map
    between the two nodes otherwise.  A cochain complex maps faces to cells,
    restricting from the face's node to the cell's.  With `colimit` the
    blocks are transposed: the boundary maps cells to faces along the map
    from the cell's node, and the degrees are listed top degree first.  A
    cell whose value has no generators has no block and composes no map.
    `support` goes to the complex as it is.
    """
    nodes = [[node(c) for c in level] for level in cells]
    groups = [ProductGroup([F.value(a) for a in level]) for level in nodes]
    diffs = []
    for n in range(len(cells) - 1):
        lower, upper = groups[n], groups[n + 1]
        position = {cell: k for k, cell in enumerate(cells[n])}
        source, target = (upper, lower) if colimit else (lower, upper)
        lines = [{} for _ in range(target.group.generators)]
        for c, (cell, top) in enumerate(zip(cells[n + 1], nodes[n + 1])):
            size, start = upper.factors[c].generators, upper.offsets[c]
            if not size:
                continue
            for i in range(len(cell)):
                f = position[cell[:i] + cell[i + 1 :]]
                face, sign = nodes[n][f], -1 if i & 1 else 1
                row0, col0 = (lower.offsets[f], start) if colimit else (start, lower.offsets[f])
                if face == top:
                    for t in range(size):
                        line = lines[row0 + t]
                        line[col0 + t] = line.get(col0 + t, 0) + sign
                    continue
                matrix = (F.map(top, face) if colimit else F.map(face, top)).matrix
                for r, entries in enumerate(matrix.lines, row0):
                    line = lines[r]
                    for j, a in entries.items():
                        line[col0 + j] = line.get(col0 + j, 0) + sign * a
        diffs.append(source.hom_from_rows(target, lines))
    if colimit:
        groups.reverse()
        diffs.reverse()
    return Complex(groups, diffs, support)


def reduced_complex(F):
    """The cochain complex over strictly decreasing chains of the base,
    carrying `cohomology_support` as the degrees where it may have homology."""
    cells = [chains(F.base, n) for n in range(F.base.height() + 1)]
    return _cell_complex(F, cells, itemgetter(-1), support=cohomology_support(F.base, F.values))


def full_complex_truncated(F, N):
    """The unreduced complex through degree N+1 (trustworthy through N).

    Chains here are weakly decreasing tuples that may repeat elements; a
    repeated element contributes the identity structure map, which is why
    this complex does not terminate at the poset height and must be
    truncated.
    """
    _check_degree(N, "degree cap")
    below = [_indices(down) for down in F.base._down]
    cells = [[(i,) for i in range(len(below))]]
    for _ in range(N + 1):
        cells.append([c + (j,) for c in cells[-1] for j in below[c[-1]]])
    return _cell_complex(F, cells, itemgetter(-1))


def cohomology_support(base, values):
    """The degrees in which a diagram with these values may have derived limits.

    Filtering the reduced complex by the last element m of a chain gives a
    first page ⊕_m H̃^(n-1)(Δ(base_{>m}); values[m]) in degree n, so by the
    universal coefficients degree n can be nonzero only if some m with a
    nonzero value has an empty link (n = 0), H̃_(n-1) of its link nonzero,
    or torsion in H̃_(n-2).  A value with generators counts as nonzero.
    Each element's degrees depend on the base alone and are kept on it.
    """
    support = set()
    up = base._up
    for m, value in enumerate(values):
        if value.generators:
            if m not in base._links:
                base._links[m] = _link_degrees(base, up[m] ^ (1 << m))
            support |= base._links[m]
    return support


def _link_degrees(base, link):
    """{d + 1 : H̃_d(link) ≠ 0} ∪ {d + 2 : H̃_d(link) has torsion}, with H̃_(-1) of
    the empty link Z.  H̃_d differs from H_d only at degree 0, where it is
    nonzero exactly when H_0 is not Z, so the degrees `subposet_homology`
    yields are those with H̃_d nonzero."""
    if not link:
        return frozenset([0])
    degrees = set()
    for d, group in subposet_homology(base, link):
        degrees.add(d + 1)
        if group.torsion:
            degrees.add(d + 2)
    return frozenset(degrees)


def derived_limit(F, n):
    """The n-th derived limit of the diagram, as a canonical group; 0 without
    building the complex outside `cohomology_support`."""
    _check_degree(n)
    if n not in cohomology_support(F.base, F.values):
        return CanonicalGroup(0)
    return F.reduced_complex().homology_group(n)


def colimit_complex(F):
    """The chain complex over strictly decreasing chains, top degree first.

    A chain carries the value at its first element; dropping that element
    applies the structure map of the first arrow.  Entry k of the complex
    is degree height - k.
    """
    cells = [chains(F.base, n) for n in range(F.base.height() + 1)]
    return _cell_complex(F, cells, itemgetter(0), colimit=True)


def derived_colimit(F, n):
    """The n-th derived colimit (homology of the base category with
    coefficients in the diagram)."""
    _check_degree(n)
    height = F.base.height()
    if n > height:
        return CanonicalGroup(0)
    return colimit_complex(F).homology_group(height - n)


def sheafify_value(F, subset):
    """Sections of the generated sheaf over a downward closed subset.

    The value is the limit of the diagram restricted to the subset: the
    subgroup of the product of values whose coordinates agree along every
    cover inside the subset.  That is H^0 of the restricted diagram, the
    kernel of the degree-0 differential of `_cell_complex` on the cells (i,)
    of the subset and the covers (low, high) inside it.  A cover carries the
    value at low and has the faces (high,), with +F(high -> low), and (low,),
    with minus the identity.  Returned as the kernel's `HomologyData`: the
    rows of `cycles` are the product's coordinates, element by element in
    index order, so an element's rows are its projection, well defined since
    the cycles send cone relations to block-diagonal ones.  Its relators,
    which become the node groups' relations and so reach printed maps, are
    the kernel of [cycles | relations] cut to its leading block.

    >>> from posetcoh.groups import canonical_form
    >>> from posetcoh.poset import parse_poset
    >>> P = parse_poset({"elements": ["a", "b"], "relations": [["a", "b"]]})
    >>> z = PresentedAbGroup.free(1)
    >>> F = Diagram(P, [z, z], {(1, 0): GroupHom(z, z, IntMatrix.from_rows([[2]]))})
    >>> sections = sheafify_value(F, [0, 1])
    >>> sections.cycles.entries, canonical_form(sections.group).render()
    (((2,), (1,)), 'Z')
    """
    mask = _mask(F.base, subset)
    if not mask:
        raise DiagramError("sections need a nonempty open")
    indices = _indices(mask)
    for i in indices:
        if F.base._down[i] & ~mask:
            raise DiagramError("subset is not downward closed at %s" % F.base.elements[i])
    # the subset is downward closed, so it holds a cover's low end with its high end
    covers = [(low, high) for low, high in F.base.covers() if mask >> high & 1]
    d0 = _cell_complex(F, [[(i,) for i in indices], covers], itemgetter(0)).diffs[0]
    cycles = _cycles(d0)
    relations = snf(cycles.hstack(d0.source.relations)).kernel_basis(cycles.cols)
    return HomologyData(PresentedAbGroup(cycles.cols, relations), cycles)


def constant_diagram(poset):
    """The constant diagram Z on every element, with identity maps.

    >>> from posetcoh.poset import parse_poset
    >>> F = constant_diagram(parse_poset({"elements": ["a", "b"], "relations": [["a", "b"]]}))
    >>> sorted(F.edge_maps), [derived_limit(F, n).render() for n in (0, 1)]
    ([(1, 0)], ['Z', '0'])
    """
    z = PresentedAbGroup.free(1)
    maps = {(j, i): GroupHom.identity(z) for i, j in poset.covers()}
    return Diagram(poset, [z] * len(poset.elements), maps)


def random_diagram(poset, seed, max_generators=3, max_relators=2):
    """A reproducible random diagram, functorial by construction.

    Each generator lives below a position q (value Z on the down-set of q,
    zero outside, identity maps inside); relators are combinations with
    coefficients in [-3, 3] attached below a position r, constrained to
    generators visible there.  Values are the cokernels and edge maps the
    induced 0/1 coordinate maps, so the result is a functor no matter what
    the random choices are.  Raises DiagramError naming `max_generators` or
    `max_relators` when it is not an int (a bool is not one) or is below 1
    or 0 respectively.
    """
    for name, bound, least in (
        ("max_generators", max_generators, 1),
        ("max_relators", max_relators, 0),
    ):
        if type(bound) is not int or bound < least:
            raise DiagramError("%s must be an int of at least %d, got %r" % (name, least, bound))
    n = len(poset.elements)
    down = poset._down
    rng = random.Random(seed)
    gen_pos = [rng.randrange(n) for _ in range(rng.randint(1, max_generators))]
    rel_pos = [rng.randrange(n) for _ in range(rng.randint(0, max_relators))]
    # visible[c]: the generators whose position lies at or above c, ascending
    visible = [[i for i, q in enumerate(gen_pos) if down[q] >> c & 1] for c in range(n)]
    coeffs = [[rng.randint(-3, 3) if down[q] >> r & 1 else 0 for q in gen_pos] for r in rel_pos]
    values = []
    for c, act in enumerate(visible):
        cols = [[row[i] for i in act] for r, row in zip(rel_pos, coeffs) if down[r] >> c & 1]
        rel = IntMatrix.from_columns(cols, nrows=len(act)) if cols else None
        values.append(PresentedAbGroup(len(act), rel))
    maps = {}
    for low, high in poset.covers():
        rows = [[int(i == j) for j in visible[high]] for i in visible[low]]
        matrix = IntMatrix(len(visible[low]), len(visible[high]), rows)
        maps[(high, low)] = GroupHom(values[high], values[low], matrix)
    return Diagram(poset, values, maps)
