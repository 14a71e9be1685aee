import random
import re

import pytest

from posetcoh import cech, complexes, diagrams
from posetcoh.cech import (
    Presheaf,
    cech_cohomology,
    cech_ordered_complex,
    cohomology_top,
    compare_report,
    comparison_map,
    random_presheaf,
    sheaf_presheaf,
    topos_cohomology,
)
from posetcoh.complexes import Complex, ProductGroup
from posetcoh.diagrams import DiagramError, constant_diagram, random_diagram, sheafify_value
from posetcoh.documents import load_presheaf
from posetcoh.groups import (
    CanonicalGroup,
    GroupHom,
    PresentedAbGroup,
    canonical_form,
    is_isomorphism,
)
from posetcoh.linalg import IntMatrix, snf
from posetcoh.poset import IntersectionPoset, random_poset

import builders
from oracles import cech_ordered_by_combinations, posets_up_to_isomorphism


def presheaf_over(P, seed, **params):
    return random_presheaf(IntersectionPoset(P), seed, **params)


def test_skyscraper_comparison_fails_at_degree_zero():
    ps = load_presheaf(builders.SKYSCRAPER_DOC)
    assert cech_cohomology(ps, 0) == CanonicalGroup(1)
    assert topos_cohomology(ps, 0) == CanonicalGroup(2)
    lam = comparison_map(ps, 0)
    assert canonical_form(lam.source) == CanonicalGroup(1)
    assert canonical_form(lam.target) == CanonicalGroup(2)
    assert not is_isomorphism(lam)
    assert sorted(abs(row[0]) for row in lam.matrix.entries) == [1, 1]
    report = compare_report(ps)
    assert not report.all_iso
    assert [(row.degree, row.iso) for row in report.rows] == [(0, False), (1, True)]


def test_constant_square_comparison_fails_at_degree_one():
    ps = load_presheaf(builders.CONSTANT_SQUARE_DOC)
    assert cech_cohomology(ps, 0) == CanonicalGroup(1)
    assert cech_cohomology(ps, 1) == CanonicalGroup(0)
    assert topos_cohomology(ps, 1) == CanonicalGroup(1)
    assert is_isomorphism(comparison_map(ps, 0))
    lam = comparison_map(ps, 1)
    assert canonical_form(lam.source) == CanonicalGroup(0)
    assert canonical_form(lam.target) == CanonicalGroup(1)
    assert not is_isomorphism(lam)
    report = compare_report(ps, range(4))
    assert [row.iso for row in report.rows] == [True, False, True, True]
    assert not report.all_iso


def test_sphere_sheaf_mode_splits_at_degree_two():
    ps = load_presheaf(builders.CONSTANT_SPHERE_DIAGRAM_DOC)
    assert cech_cohomology(ps, 0) == CanonicalGroup(1)
    assert cech_cohomology(ps, 1) == CanonicalGroup(0)
    assert cech_cohomology(ps, 2) == CanonicalGroup(0)
    assert cech_cohomology(ps, 3) == CanonicalGroup(0)
    assert topos_cohomology(ps, 2) == CanonicalGroup(1)
    report = compare_report(ps)
    assert [(row.degree, row.iso) for row in report.rows] == [(0, True), (1, True), (2, False)]
    assert report.rows[2].cech == CanonicalGroup(0)
    assert report.rows[2].topos == CanonicalGroup(1)


def test_sheaf_mode_pulled_values_recover_the_diagram():
    ps = load_presheaf(builders.CONSTANT_SPHERE_DIAGRAM_DOC)
    pulled = ps.pulled_diagram()
    for i in range(len(ps.space)):
        assert canonical_form(pulled.value(i)) == CanonicalGroup(1)
    for hom in pulled.edge_maps.values():
        assert is_isomorphism(hom)


def test_node_values_of_sheaf_presheaf_match_section_limits():
    rng = random.Random(17)
    for trial in range(8):
        P = random_poset(rng.randint(1, 5), rng.random(), seed=4000 + trial)
        F = random_diagram(P, seed=trial)
        ps = sheaf_presheaf(F)
        lam = ps.intersection.lambda_map
        for i in range(len(P)):
            assert canonical_form(ps.diagram.value(lam[i])) == canonical_form(F.value(i))
        for k, node in enumerate(ps.intersection.nodes):
            cone = sheafify_value(F, node)
            assert canonical_form(ps.diagram.value(k)) == canonical_form(cone.group)


def test_ordered_complex_matches_derived_limit_route():
    rng = random.Random(23)
    for trial in range(10):
        P = random_poset(rng.randint(1, 5), rng.random(), seed=4100 + trial)
        ps = presheaf_over(P, seed=trial)
        names = list(P.elements)
        shuffled = names[:]
        rng.shuffle(shuffled)
        for order in (None, shuffled):
            cx = cech_ordered_complex(ps, order)
            for n in range(max(cx.top_degree(), ps.cech_complex().top_degree()) + 2):
                assert cx.homology_group(n) == cech_cohomology(ps, n)


def test_ordered_complex_matches_the_combinations_route():
    # the nerve grown from the intersection masks has the cells, in the
    # same order, of the route that filters every increasing tuple.  That
    # route visits 2^n tuples and more, so the 31- and 105-element
    # builders are left out
    posets = [P for n in range(1, 6) for P in posets_up_to_isomorphism(n)]
    posets += [P for P in (build() for build in builders.BUILT) if len(P) < 10]
    for P in posets:
        names = list(P.elements)
        shuffled = names[:]
        random.Random(len(names)).shuffle(shuffled)
        for seed in (0, 1):
            ps = presheaf_over(P, seed)
            for order in (None, names[::-1], shuffled):
                grown = cech_ordered_complex(ps, order)
                listed = cech_ordered_by_combinations(ps, order)
                assert [g.group.generators for g in grown.groups] == [
                    g.group.generators for g in listed.groups
                ], (P, seed, order)
                assert [d.matrix for d in grown.diffs] == [d.matrix for d in listed.diffs]


def test_ordered_complex_point_and_validation():
    ps = presheaf_over(builders.point(), seed=3)
    cx = cech_ordered_complex(ps)
    assert cx.top_degree() == 0
    assert cx.homology_group(0) == cech_cohomology(ps, 0)
    with pytest.raises(DiagramError, match="every element exactly once"):
        cech_ordered_complex(ps, ["a", "a"])
    with pytest.raises(DiagramError, match="order names unknown element 'zz'"):
        cech_ordered_complex(ps, ["zz"])


def test_point_comparison_all_iso():
    ps = presheaf_over(builders.point(), seed=11)
    report = compare_report(ps)
    assert [row.degree for row in report.rows] == [0]
    assert report.all_iso


def test_zigzag_always_iso():
    P = builders.zigzag()
    U = IntersectionPoset(P)
    for seed in range(10):
        report = compare_report(random_presheaf(U, seed))
        assert report.all_iso
        for row in report.rows:
            assert row.cech == row.topos


def test_comparison_above_every_chain_is_between_zero_groups():
    ps = load_presheaf(builders.CONSTANT_SQUARE_DOC)
    lam = comparison_map(ps, 9)
    assert canonical_form(lam.source) == CanonicalGroup(0)
    assert canonical_form(lam.target) == CanonicalGroup(0)
    assert is_isomorphism(lam)
    # every degree entry point refuses a degree that is not a nonnegative
    # int, naming it
    routes = {
        "degree": (
            lambda n: comparison_map(ps, n),
            lambda n: cech_cohomology(ps, n),
            lambda n: topos_cohomology(ps, n),
            lambda n: diagrams.derived_limit(ps.diagram, n),
            lambda n: diagrams.derived_colimit(ps.diagram, n),
        ),
        "degree cap": (lambda n: diagrams.full_complex_truncated(ps.diagram, n),),
    }
    for what, calls in routes.items():
        for route in calls:
            for bad in (-1, True, 1.0, 1.5, "1"):
                message = "%s %r must be a nonnegative int" % (what, bad)
                with pytest.raises(DiagramError, match="^%s$" % re.escape(message)):
                    route(bad)


def test_cech_vanishes_above_the_default_cap():
    # the Cech complex lives on the node poset, which is taller than the
    # base on these two crowns; its groups above the base height vanish on
    # these two, though not on every poset (see the tetrahedron test below)
    for P in (builders.square(), builders.crown3()):
        U = IntersectionPoset(P)
        above = range(P.height() + 1, U.poset.height() + 1)
        assert list(above) == [2]
        presheaves = [random_presheaf(U, seed) for seed in range(60)]
        presheaves.append(Presheaf(U, constant_diagram(U.poset)))
        for ps in presheaves:
            for n in above:
                assert cech_cohomology(ps, n).is_trivial()


def test_compare_report_reaches_cech_cohomology_above_the_base_height(monkeypatch):
    built = Presheaf.cech_complex

    def one_degree_more(self):
        cx = built(self)
        extra = ProductGroup([PresentedAbGroup.free(1)])
        top = cx.groups[-1].group
        return Complex(cx.groups + [extra], cx.diffs + [GroupHom.zero(top, extra.group)])

    monkeypatch.setattr(Presheaf, "cech_complex", one_degree_more)
    # the extra degree lies above the node poset, so no link certifies it
    support = cech.cohomology_support
    monkeypatch.setattr(
        cech, "cohomology_support", lambda base, values: support(base, values) | {3}
    )
    ps = load_presheaf(builders.CONSTANT_SQUARE_DOC)
    assert (ps.space.height(), built(ps).top_degree()) == (1, 2)
    rows = compare_report(ps).rows
    assert [row.degree for row in rows] == [0, 1, 2, 3]
    assert (rows[3].cech, rows[3].topos, rows[3].iso) == (CanonicalGroup(1), CanonicalGroup(0), False)
    # an explicit window is computed as given, whatever lies above it
    report = compare_report(load_presheaf(builders.CONSTANT_SQUARE_DOC), range(1))
    assert [row.degree for row in report.rows] == [0]


def test_tetrahedron_cech_cohomology_above_the_base_height():
    # the node poset strips to the face poset of a tetrahedron's boundary
    ps = load_presheaf(builders.CONSTANT_TETRAHEDRON_DOC)
    assert (ps.space.height(), ps.intersection.poset.height()) == (1, 2)
    assert cohomology_top(ps) == 2
    assert cech_cohomology(ps, 2) == CanonicalGroup(1)
    assert cech_ordered_complex(ps).homology_group(2) == CanonicalGroup(1)
    rows = [(row.degree, row.cech, row.topos, row.iso) for row in compare_report(ps).rows]
    Z, Z5, zero = CanonicalGroup(1), CanonicalGroup(5), CanonicalGroup(0)
    assert rows == [(0, Z, Z, True), (1, zero, Z5, False), (2, Z, zero, False)]


def per_column_solves(data, vectors, rows):
    """The coordinates of each vector on `data`'s homology generators, solved one by one."""
    dec = snf(data.cycles)
    cols = [dec.solve(v) for v in vectors]
    assert None not in cols
    return IntMatrix.from_columns(cols, nrows=rows) if cols else IntMatrix.zero(rows, 0)


def test_comparison_map_matches_per_generator_solves():
    for P in (builders.vee(), builders.square(), builders.crown3(), builders.sphere()):
        U = IntersectionPoset(P)
        for seed in range(6):
            ps = random_presheaf(U, seed)
            rho = ps.comparison_chain_map()
            for n in range(min(rho.source.top_degree(), rho.target.top_degree()) + 1):
                src, tgt = rho.source.homology(n), rho.target.homology(n)
                images = [rho.maps[n].apply(src.cycles.column(j)) for j in range(src.group.generators)]
                expected = per_column_solves(tgt, images, tgt.group.generators)
                assert comparison_map(ps, n).matrix == expected, (P, seed, n)


def test_sheaf_presheaf_restrictions_match_per_column_solves():
    for P in (builders.vee(), builders.square(), builders.crown3(), builders.zigzag()):
        for seed in range(4):
            F = random_diagram(P, seed)
            ps = sheaf_presheaf(F)
            nodes = ps.intersection.nodes
            cones = [sheafify_value(F, node) for node in nodes]
            for (high, low), hom in ps.diagram.edge_maps.items():
                at, start = 0, {}
                for i in sorted(nodes[high]):
                    start[i] = at
                    at += F.value(i).generators
                restricted = [
                    [
                        cones[high].cycles.column(j)[start[i] + k]
                        for i in sorted(nodes[low])
                        for k in range(F.value(i).generators)
                    ]
                    for j in range(cones[high].group.generators)
                ]
                expected = per_column_solves(cones[low], restricted, cones[low].group.generators)
                assert hom.matrix == expected, (P, seed, high, low)


def test_random_presheaf_determinism():
    U = IntersectionPoset(builders.pass7())
    a = random_presheaf(U, seed=21)
    b = random_presheaf(U, seed=21)
    assert [canonical_form(v) for v in a.diagram.values] == [
        canonical_form(v) for v in b.diagram.values
    ]
    for key in a.diagram.edge_maps:
        assert a.diagram.edge_maps[key].matrix == b.diagram.edge_maps[key].matrix
    c = Presheaf(U, constant_diagram(U.poset))
    assert all(canonical_form(v) == CanonicalGroup(1) for v in c.diagram.values)


def test_presheaf_requires_the_node_poset():
    P = builders.square()
    U = IntersectionPoset(P)
    with pytest.raises(DiagramError, match="intersection poset"):
        Presheaf(U, random_diagram(P, seed=1))


def assert_same_complex(a, b):
    assert [g.factors for g in a.groups] == [g.factors for g in b.groups]
    assert [d.matrix for d in a.diffs] == [d.matrix for d in b.diffs]


def test_topos_complex_is_the_pulled_diagrams_complex():
    # on an identity λ, a permuted one and a non-principal one, the topos
    # complex is the one kept on the pulled diagram; the random, pulled and
    # sheaf diagrams are functors, both complexes and the comparison chain
    # map pass their algebra checks, and the topos groups, derived limits
    # of the pulled diagram, are the topos complex's
    rng = random.Random(31)
    kinds = {"identity": 0, "permuted": 0, "non-principal": 0}
    fixed = [builders.square(), builders.crown3(), builders.pass7(), builders.capped_square()]
    presheaves = []
    for trial in range(216):
        P = fixed[trial % 4] if trial % 3 == 0 else random_poset(rng.randint(1, 6), rng.random(), seed=4200 + trial)
        ps = presheaf_over(P, seed=trial, max_generators=2)
        lam = ps.intersection.lambda_map
        if len(lam) != len(ps.intersection):
            kinds["non-principal"] += 1
        else:
            kinds["identity" if lam == tuple(range(len(lam))) else "permuted"] += 1
        presheaves.append(ps)
    for trial in range(24):
        P = random_poset(rng.randint(1, 5), rng.random(), seed=4500 + trial)
        presheaves.append(sheaf_presheaf(random_diagram(P, seed=trial)))
    assert min(kinds.values()) >= 20, kinds
    for ps in presheaves:
        assert ps.topos_complex() is ps.pulled_diagram().reduced_complex()
        assert ps.comparison_chain_map().target is ps.topos_complex()
        ps.diagram.verify()
        ps.pulled_diagram().verify()
        ps.cech_complex().verify()
        ps.topos_complex().verify()
        ps.comparison_chain_map().verify()
        # the topos complex agrees with what `topos` prints
        for n in range(ps.space.height() + 2):
            assert topos_cohomology(ps, n) == ps.topos_complex().homology_group(n)


def diamond_doc(left_first):
    """A presheaf on the diamond bot < left, right < top whose two composites
    from top to bot, 1 via left and 3 via right, differ by 2 in Z/2.

    The base lists its elements top first, so λ permutes the indices; the
    edge maps out of the top node come left first or right first.
    """
    top_maps = [("{bot,left}", [[1]]), ("{bot,right}", [[1]])]
    if not left_first:
        top_maps.reverse()
    maps = {"{bot,left,right,top}->%s" % low: rows for low, rows in top_maps}
    maps["{bot,left}->{bot}"] = [[1]]
    maps["{bot,right}->{bot}"] = [[3]]
    return {
        "base": {
            "elements": ["top", "left", "right", "bot"],
            "relations": [["bot", "left"], ["bot", "right"], ["left", "top"], ["right", "top"]],
        },
        "mode": "presheaf",
        "groups": {
            "{bot}": {"rank": 0, "torsion": [2]},
            "{bot,left}": {"rank": 1},
            "{bot,right}": {"rank": 1},
            "{bot,left,right,top}": {"rank": 1},
        },
        "maps": maps,
    }


def test_topos_complex_keeps_the_pulled_composites_on_a_diamond():
    for left_first in (True, False):
        ps = load_presheaf(diamond_doc(left_first))
        lam = ps.intersection.lambda_map
        assert lam == (3, 1, 2, 0)
        top, bot = lam[0], lam[3]
        assert ps.diagram.map(top, bot).matrix == IntMatrix.from_rows([[1 if left_first else 3]])
        assert_same_complex(ps.topos_complex(), ps.pulled_diagram().reduced_complex())
        assert ps.pulled_diagram().map(0, 3).matrix == IntMatrix.from_rows([[1]])
        assert compare_report(ps).all_iso


def _certified_presheaves():
    posets = [P for n in range(1, 6) for P in posets_up_to_isomorphism(n)]
    posets += [builders.tetrahedron(), builders.projective_plane(), builders.dunce_hat(), builders.sphere()]
    for k, P in enumerate(posets):
        for seed in range(3):
            yield presheaf_over(P, seed)
        yield sheaf_presheaf(random_diagram(P, k))


def _rows(ps):
    return [
        (row.degree, row.cech, row.topos, row.map.matrix.entries, row.iso)
        for row in compare_report(ps).rows
    ]


def test_degrees_outside_the_support_keep_their_cycles_and_skip_the_relations(monkeypatch):
    new = []

    def counting(M):
        new.append(M._smith is None)
        return snf(M)

    monkeypatch.setattr(complexes, "snf", counting)
    outside = shared = 0
    for ps in _certified_presheaves():
        rows = _rows(ps)
        rho = ps.comparison_chain_map()
        for c in (rho.source, rho.target):
            assert c.support is not None
            for n in range(len(c.groups)):
                got = c.homology(n)
                full = complexes._homology(c.incoming(n), c.outgoing(n))
                assert got.cycles.entries == full.cycles.entries
                assert canonical_form(got.group) == canonical_form(full.group)
                if n not in c.support:
                    outside += 1
                    assert canonical_form(full.group).is_trivial()
        # the same rows from the relation lattice in every degree
        rho.source.support = rho.target.support = None
        assert _rows(ps) == rows
        # a fresh complex: the cycles are its only new decomposition outside
        # the support; in the support the relations are solved against the
        # cycles' own decomposition, which is none when they are a whole
        # kernel basis, since that arrives with its decomposition
        fresh = diagrams.reduced_complex(ps.pulled_diagram())
        for n in range(len(fresh.groups)):
            del new[:]
            fresh.homology(n)
            whole = not fresh.product(n + 1).group.relations.cols
            if n in fresh.support and whole:
                shared += 1
            assert sum(new) == (2 if n in fresh.support and not whole else 1), n
    assert outside > 0
    assert shared > 0
