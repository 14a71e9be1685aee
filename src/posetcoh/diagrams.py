"""Diagrams of abelian groups on a finite poset and derived (co)limits.

A diagram assigns a presented group to every element and a homomorphism to
every Hasse cover a > b (the arrow a -> b of the opposite category); composite
maps are derived and path independence is validated, so diagrams are honest
functors.  Derived limits are cohomology of the cochain complex over strictly
decreasing chains; the unreduced complex over weakly decreasing chains is kept
as an independent route; derived colimits are homology of the chain complex
with coefficients at the chain's first element.
"""

from __future__ import annotations

import random

from .complexes import Complex, HomologyData, ProductGroup, homology_at
from .groups import (
    CanonicalGroup,
    GroupHom,
    PresentedAbGroup,
    canonical_form,
    hom_well_defined,
    homs_equal,
)
from .linalg import IntMatrix
from .poset import PosetError, Subset, chains


class DiagramError(ValueError):
    """Raised for non-functorial or structurally invalid diagram data."""


class Diagram:
    """A functor from a poset's opposite category to abelian groups."""

    __slots__ = ("base", "values", "edge_maps", "_comp", "_reduced")

    def __init__(self, base, values, edge_maps):
        self.base = base
        self.values = tuple(values)
        if len(self.values) != len(base.elements):
            raise DiagramError("need one group per element")
        covers = {(j, i) for i, j in base.covers()}  # (high, low), arrow high -> low
        given = set(edge_maps)
        if given != covers:
            missing = covers - given
            extra = given - covers
            parts = []
            if missing:
                a, b = sorted(missing)[0]
                parts.append("missing map %s->%s" % (base.elements[a], base.elements[b]))
            if extra:
                a, b = sorted(extra)[0]
                parts.append("map %s->%s is not a cover" % (base.elements[a], base.elements[b]))
            raise DiagramError("; ".join(parts))
        self.edge_maps = dict(edge_maps)
        for (a, b), h in self.edge_maps.items():
            if h.source != self.values[a] or h.target != self.values[b]:
                raise DiagramError(
                    "map %s->%s has wrong endpoints" % (base.elements[a], base.elements[b])
                )
            if not hom_well_defined(h):
                raise DiagramError(
                    "map %s->%s does not respect relations"
                    % (base.elements[a], base.elements[b])
                )
        self._comp = {}
        self._reduced = None
        self._validate_functoriality()

    def _validate_functoriality(self):
        """All composites along covers must agree; checked on every diamond."""
        base = self.base
        for a in base.linear_extension():
            for b in base.down[a]:
                if b == a:
                    continue
                candidates = []
                for (x, c), edge in self.edge_maps.items():
                    if x == a and base.leq(b, c):
                        candidates.append((c, self.map(c, b).compose(edge)))
                first_via, first = candidates[0]
                for via, other in candidates[1:]:
                    if not homs_equal(first, other):
                        raise DiagramError(
                            "functoriality fails from %s to %s: routes via %s and %s differ"
                            % (
                                base.elements[a],
                                base.elements[b],
                                base.elements[first_via],
                                base.elements[via],
                            )
                        )
                self._comp[(a, b)] = first

    def map(self, a, b):
        """The composite homomorphism value(a) -> value(b) for a >= b."""
        if a == b:
            return GroupHom.identity(self.values[a])
        if not self.base.leq(b, a):
            raise DiagramError(
                "no arrow %s->%s" % (self.base.elements[a], self.base.elements[b])
            )
        return self._comp[(a, b)]

    def value(self, a):
        return self.values[a]

    def reduced_complex(self):
        if self._reduced is None:
            self._reduced = reduced_complex(self)
        return self._reduced


def _coboundary(F, lower, upper):
    """Blocks of the differential from chains `lower` to chains `upper`.

    Faces 0..n of a target chain drop one element and contribute the sign
    alone (the coefficient group is attached to the last element, which
    survives); the last face truncates the chain and applies the structure
    map of the final arrow.
    """
    pos = {chain: k for k, chain in enumerate(lower.chains)}
    n = lower.degree
    for row, e in enumerate(upper.chains):
        for i in range(n + 1):
            yield row, pos[e[:i] + e[i + 1 :]], (-1) ** i, None
        yield row, pos[e[:-1]], (-1) ** (n + 1), F.map(e[-2], e[-1]).matrix


class _WeakChainSet:
    """Weakly decreasing (n+1)-tuples; the index set of the unreduced complex."""

    def __init__(self, poset, degree):
        self.poset = poset
        self.degree = degree
        out = []

        def extend(prefix, last):
            if len(prefix) == degree + 1:
                out.append(tuple(prefix))
                return
            for j in sorted(poset.down[last]):
                prefix.append(j)
                extend(prefix, j)
                prefix.pop()

        for c0 in range(len(poset.elements)):
            extend([c0], c0)
        self.chains = tuple(out)

    def __len__(self):
        return len(self.chains)

    def name(self, chain):
        return ">=".join(self.poset.elements[i] for i in chain)


def _chain_product(F, chain_set, at=-1):
    """The product over chains of the value at each chain's element `at`."""
    names = [chain_set.name(c) for c in chain_set.chains]
    factors = [F.value(c[at]) for c in chain_set.chains]
    return ProductGroup(names, factors)


def _cochain_complex(F, chain_sets):
    """The cochain complex with one chain set per degree, from degree 0."""
    groups = [_chain_product(F, cs) for cs in chain_sets]
    diffs = [
        groups[n].hom_to(groups[n + 1], _coboundary(F, chain_sets[n], chain_sets[n + 1]))
        for n in range(len(chain_sets) - 1)
    ]
    return Complex(groups, diffs)


def reduced_complex(F):
    """The cochain complex over strictly decreasing chains of the base."""
    return _cochain_complex(F, [chains(F.base, n) for n in range(F.base.height() + 1)])


def full_complex_truncated(F, N):
    """The unreduced complex through degree N+1 (trustworthy through N).

    Chains here may repeat elements; a repeated element contributes the
    identity structure map, which is why this complex does not terminate at
    the poset height and must be truncated.
    """
    if N < 0:
        raise DiagramError("degree cap must be nonnegative")
    return _cochain_complex(F, [_WeakChainSet(F.base, n) for n in range(N + 2)])


def derived_limit(F, n):
    """The n-th derived limit of the diagram, as a canonical group."""
    if n < 0:
        raise DiagramError("degree must be nonnegative")
    return F.reduced_complex().homology_group(n)


def _boundary(F, upper, lower):
    """Chain-complex boundary from degree n to n-1 for the derived colimit."""
    pos = {chain: k for k, chain in enumerate(lower.chains)}

    def blocks():
        for col, c in enumerate(upper.chains):
            yield pos[c[1:]], col, 1, F.map(c[0], c[1]).matrix
            for i in range(1, upper.degree + 1):
                yield pos[c[:i] + c[i + 1 :]], col, (-1) ** i, None

    return _chain_product(F, upper, at=0).hom_to(_chain_product(F, lower, at=0), blocks())


def derived_colimit(F, n):
    """The n-th derived colimit (homology of the base category with
    coefficients in the diagram)."""
    if n < 0:
        raise DiagramError("degree must be nonnegative")
    height = F.base.height()
    if n > height:
        return CanonicalGroup(0)
    here = chains(F.base, n)
    middle = _chain_product(F, here, at=0)
    if n == 0:
        d_out = GroupHom.zero(middle.group, PresentedAbGroup.zero())
    else:
        d_out = _boundary(F, here, chains(F.base, n - 1))
    if n + 1 > height:
        d_in = GroupHom.zero(PresentedAbGroup.zero(), middle.group)
    else:
        d_in = _boundary(F, chains(F.base, n + 1), here)
    return canonical_form(homology_at(d_in, d_out).group)


class LimitCone:
    """A limit group with its projections to the diagram values."""

    __slots__ = ("group", "projections", "data")

    def __init__(self, group, projections, data):
        self.group = group
        self.projections = projections
        self.data = data


def sheafify_value(F, subset):
    """Sections of the generated sheaf over a downward closed subset.

    The value is the limit of the diagram restricted to the subset: the
    subgroup of the product of values whose coordinates agree along every
    cover inside the subset.  Returned with one projection per element.
    """
    indices = sorted(subset.indices if isinstance(subset, Subset) else subset)
    if not indices:
        raise DiagramError("sections need a nonempty open")
    index_set = set(indices)
    for i in indices:
        if not F.base.down[i] <= index_set:
            raise DiagramError(
                "subset is not downward closed at %s" % F.base.elements[i]
            )
    product = ProductGroup(
        [F.base.elements[i] for i in indices], [F.value(i) for i in indices]
    )
    edges = [
        (a, b)
        for (a, b) in ((j, i) for i, j in F.base.covers())
        if a in index_set and b in index_set
    ]
    target = ProductGroup(
        ["%s>%s" % (F.base.elements[a], F.base.elements[b]) for a, b in edges],
        [F.value(b) for a, b in edges],
    )
    pos = {i: k for k, i in enumerate(indices)}
    blocks = []
    for k, (a, b) in enumerate(edges):
        blocks.append((k, pos[a], 1, F.map(a, b).matrix))
        blocks.append((k, pos[b], -1, None))
    difference = product.hom_to(target, blocks)
    cone = homology_at(
        GroupHom.zero(PresentedAbGroup.zero(), product.group), difference
    )
    projections = {}
    for i in indices:
        rows = cone.cycles.take_rows(list(product.coordinate_range(pos[i])))
        projections[i] = GroupHom(cone.group, F.value(i), rows)
        if not hom_well_defined(projections[i]):
            raise DiagramError(
                "section projection to %s is not well defined" % F.base.elements[i]
            )
    return LimitCone(cone.group, projections, cone)


def random_diagram(
    poset,
    seed,
    max_generators=3,
    max_relators=2,
    max_coefficient=3,
    constant=False,
):
    """A reproducible random diagram, functorial by construction.

    Each generator lives below a position q (value Z on the down-set of q,
    zero outside, identity maps inside); relators are integer combinations
    attached below a position r, constrained to generators visible there.
    Values are the cokernels and edge maps the induced 0/1 coordinate maps,
    so the result is a functor no matter what the random choices are.
    """
    n = len(poset.elements)
    if constant:
        z = PresentedAbGroup.free(1)
        values = [z] * n
        maps = {
            (j, i): GroupHom.identity(z) for i, j in poset.covers()
        }
        return Diagram(poset, values, maps)
    rng = random.Random(seed)
    g = rng.randint(1, max_generators)
    gen_pos = [rng.randrange(n) for _ in range(g)]
    k = rng.randint(0, max_relators)
    rel_pos = [rng.randrange(n) for _ in range(k)]
    coeffs = []
    for j in range(k):
        coeffs.append(
            [
                rng.randint(-max_coefficient, max_coefficient)
                if poset.leq(rel_pos[j], gen_pos[i])
                else 0
                for i in range(g)
            ]
        )

    def active(c):
        return [i for i in range(g) if poset.leq(c, gen_pos[i])]

    def value_at(c):
        act = active(c)
        cols = [
            [coeffs[j][i] for i in act]
            for j in range(k)
            if poset.leq(c, rel_pos[j])
        ]
        rel = IntMatrix.from_columns(cols, nrows=len(act)) if cols else None
        return PresentedAbGroup(len(act), rel)

    values = [value_at(c) for c in range(n)]
    maps = {}
    for low, high in poset.covers():
        rows = [[1 if i == j else 0 for j in active(high)] for i in active(low)]
        matrix = IntMatrix(len(active(low)), len(active(high)), rows)
        maps[(high, low)] = GroupHom(values[high], values[low], matrix)
    return Diagram(poset, values, maps)
