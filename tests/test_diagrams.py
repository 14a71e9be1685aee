import itertools
import random
import re

import pytest

from posetcoh import cech, diagrams
from posetcoh.cech import Presheaf, cech_ordered_complex, random_presheaf, sheaf_presheaf
from posetcoh.complexes import acyclicity_check, simplicial_homology
from posetcoh.diagrams import (
    Diagram,
    DiagramError,
    colimit_complex,
    constant_diagram,
    derived_colimit,
    derived_limit,
    full_complex_truncated,
    random_diagram,
    sheafify_value,
)
from posetcoh.groups import (
    CanonicalGroup,
    GroupHom,
    PresentedAbGroup,
    canonical_form,
    homs_equal,
    is_isomorphism,
)
from posetcoh.linalg import IntMatrix
from posetcoh.poset import (
    IntersectionPoset,
    PosetError,
    bounds,
    chains,
    parse_poset,
    random_poset,
)

import builders
from oracles import (
    cell_complex_by_blocks,
    eager_composites,
    posets_up_to_isomorphism,
    random_diagram_by_leq,
    rho_by_blocks,
    section_map_by_blocks,
)

Z = PresentedAbGroup.free(1)
Z2 = PresentedAbGroup.from_invariants(0, [2])


def diagram_on(P, values_by_name, maps_by_names):
    values = [values_by_name[name] for name in P.elements]
    maps = {}
    for (a, b), matrix in maps_by_names.items():
        ia, ib = P.index[a], P.index[b]
        maps[(ia, ib)] = GroupHom(
            values[ia],
            values[ib],
            IntMatrix(values[ib].generators, values[ia].generators, matrix),
        )
    return Diagram(P, values, maps)


def vee_diagram(m0_rows, m1_rows, groups=(Z, Z, Z)):
    P = builders.vee()
    g0, g1, g2 = groups
    return diagram_on(
        P,
        {"p0": g0, "p1": g1, "p2": g2},
        {("p0", "p2"): m0_rows, ("p1", "p2"): m1_rows},
    )


def test_point_diagram_limits():
    P = builders.point()
    A = PresentedAbGroup.from_invariants(1, (4,))
    F = Diagram(P, [A], {})
    assert derived_limit(F, 0) == canonical_form(A)
    for n in range(1, 5):
        assert derived_limit(F, n) == CanonicalGroup(0)


def test_point_full_complex_alternates():
    P = builders.point()
    A = PresentedAbGroup.free(1)
    F = Diagram(P, [A], {})
    cx = full_complex_truncated(F, 3)
    assert [g.group.generators for g in cx.groups] == [1] * 5
    mats = [d.matrix.entries for d in cx.diffs]
    assert mats == [((0,),), ((1,),), ((0,),), ((1,),)]
    assert cx.homology_group(0) == CanonicalGroup(1)
    for n in range(1, 3):
        assert cx.homology_group(n) == CanonicalGroup(0)


def test_vee_zero_maps_first_derived_limit():
    F = vee_diagram([[0]], [[0]])
    assert derived_limit(F, 1) == CanonicalGroup(1)
    assert derived_limit(F, 0) == CanonicalGroup(2)
    assert derived_limit(F, 2) == CanonicalGroup(0)


def test_vee_coboundary_matrix_layout():
    # chains p0>p2 and p1>p2; columns ordered p0, p1, p2
    F = vee_diagram([[3]], [[5]])
    i = F.base.index
    assert chains(F.base, 0) == ((i["p0"],), (i["p1"],), (i["p2"],))
    assert chains(F.base, 1) == ((i["p0"], i["p2"]), (i["p1"], i["p2"]))
    cx = F.reduced_complex()
    assert [len(g) for g in cx.groups] == [3, 2]
    assert cx.diffs[0].matrix.entries == ((-3, 0, 1), (0, -5, 1))


def test_vee_chain_indexed_block_layouts():
    # the same vee, read through every other chain-indexed block matrix
    F = vee_diagram([[3]], [[5]])
    P = F.base
    # derived-colimit boundary: rows p0, p1, p2; columns p0>p2, p1>p2
    assert colimit_complex(F).diffs[0].matrix.entries == (
        (-1, 0),
        (0, -1),
        (3, 5),
    )
    # the whole-poset section lattice is generated by the thread (-5, -3, -15)
    assert sheafify_value(F, range(len(P))).cycles.entries == ((-5,), (-3,), (-15,))

    I = IntersectionPoset(P)
    D = diagram_on(
        I.poset,
        {name: Z for name in I.poset.elements},
        {("{p0,p2}", "{p2}"): [[3]], ("{p1,p2}", "{p2}"): [[5]]},
    )
    ps = Presheaf(I, D)
    ordered = cech_ordered_complex(ps)
    # rows p0&p1, p0&p2, p1&p2; columns p0, p1, p2
    assert [len(g) for g in ordered.groups] == [3, 3, 1]
    assert ordered.diffs[0].matrix.entries == ((-3, 5, 0), (-3, 0, 1), (0, -5, 1))
    # node chains {p2}, {p0,p2}, {p1,p2} read on principal chains p0, p1, p2
    rho = ps.comparison_chain_map()
    assert rho.maps[0].matrix.entries == ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    assert rho.maps[1].matrix.entries == ((1, 0), (0, 1))


def test_vee_general_maps_match_direct_cokernel():
    rng = random.Random(71)
    for _ in range(25):
        g2 = rng.randint(1, 2)
        g0, g1 = rng.randint(0, 2), rng.randint(0, 2)
        m0 = [[rng.randint(-4, 4) for _ in range(g0)] for _ in range(g2)]
        m1 = [[rng.randint(-4, 4) for _ in range(g1)] for _ in range(g2)]
        F = vee_diagram(
            m0,
            m1,
            groups=(
                PresentedAbGroup.free(g0),
                PresentedAbGroup.free(g1),
                PresentedAbGroup.free(g2),
            ),
        )
        images = IntMatrix(g2, g0, m0).hstack(IntMatrix(g2, g1, m1))
        direct = canonical_form(PresentedAbGroup(g2, images))
        assert derived_limit(F, 1) == direct


def test_square_constant_diagram():
    F = constant_diagram(builders.square())
    assert derived_limit(F, 0) == CanonicalGroup(1)
    assert derived_limit(F, 1) == CanonicalGroup(1)
    assert derived_limit(F, 2) == CanonicalGroup(0)
    assert derived_colimit(F, 0) == CanonicalGroup(1)


def test_square_random_diagrams_limit_vs_colimit():
    P = builders.square()
    for seed in range(30):
        F = random_diagram(P, seed=seed)
        assert derived_limit(F, 1) == derived_colimit(F, 0)
        for n in (2, 3):
            assert derived_limit(F, n) == CanonicalGroup(0)


DIAMOND = parse_poset(builders.DIAMOND_DOC)
DIAMOND_EDGES = [("top", "left"), ("top", "right"), ("left", "bot"), ("right", "bot")]


def diamond_diagram(bottom, scale):
    """Z on top, left and right, identities out of top, 1 and `scale` into `bottom`."""
    maps = dict.fromkeys(DIAMOND_EDGES, [[1]])
    maps[("right", "bot")] = [[scale]]
    return diagram_on(DIAMOND, {"top": Z, "left": Z, "right": Z, "bot": bottom}, maps)


def test_diagram_validation_errors():
    # construction checks shapes; the functor laws wait for verify()
    P = builders.square()
    values = [Z] * 4
    with pytest.raises(DiagramError, match="missing map"):
        Diagram(P, values, {})
    with pytest.raises(DiagramError, match="^missing map p0->p2; map p2->p0 is not a cover$"):
        Diagram(P, values, {(2, 0): GroupHom.identity(Z)})
    diamond_diagram(Z, 1).verify()
    diverging = diamond_diagram(Z, 2)
    with pytest.raises(DiagramError, match="from top to bot: routes via left and right differ"):
        diverging.verify()
    maps = dict.fromkeys(DIAMOND_EDGES, [[1]])
    broken = diagram_on(DIAMOND, {"top": Z2, "left": Z, "right": Z, "bot": Z}, maps)
    with pytest.raises(DiagramError, match="^map top->left does not respect relations$"):
        broken.verify()
    with pytest.raises(DiagramError, match="^map top->left has wrong endpoints$"):
        Diagram(DIAMOND, [Z] * 4, broken.edge_maps)


def twisted(F, rng):
    """F with every edge matrix moved by a random combination of the target's
    relators: the same functor, whose routes may differ as matrices."""
    maps = {}
    for key, h in F.edge_maps.items():
        R, M = h.target.relations, h.matrix
        shift = [[rng.randint(-2, 2) for _ in range(M.cols)] for _ in range(R.cols)]
        rows = [
            [M.entries[i][j] + sum(R.entries[i][k] * shift[k][j] for k in range(R.cols))
             for j in range(M.cols)]
            for i in range(M.rows)
        ]
        maps[key] = GroupHom(h.source, h.target, IntMatrix(M.rows, M.cols, rows))
    return Diagram(F.base, F.values, maps)


def test_diagram_composite_maps():
    chain = parse_poset(
        {"elements": ["a", "b", "c"], "relations": [["c", "b"], ["b", "a"]]}
    )
    F = diagram_on(
        chain,
        {"a": Z, "b": Z, "c": Z},
        {("a", "b"): [[2]], ("b", "c"): [[3]]},
    )
    assert F.map(chain.index["a"], chain.index["c"]).matrix.entries == ((6,),)
    assert F.map(0, 0).matrix == IntMatrix.identity(1)
    # an index outside the poset is refused by name: map(-2, 0) used to
    # raise a bare KeyError, and map(-1, -1) gave the last value's identity
    for a, b, bad in ((-2, 0, -2), (0, 3, 3), (-1, -1, -1), (3, 3, 3)):
        with pytest.raises(PosetError, match="^element index %d out of range$" % bad):
            F.map(a, b)
    # a bool is no index: map(True, 2) used to return the cached edge map of
    # (1, 2), and map(True, True) the identity of value 1
    for a, b, bad in ((True, 2, "True"), (0, True, "True"), (True, True, "True"), (1.0, 2, "1.0")):
        with pytest.raises(PosetError, match="^element index %s out of range$" % re.escape(bad)):
            F.map(a, b)
    # in Z/2 the routes 1 and 3 agree, and the composite is the first listed
    diagrams = [diamond_diagram(Z2, 3)]
    diagrams[0].verify()
    top, bot = DIAMOND.index["top"], DIAMOND.index["bot"]
    assert diagrams[0].map(top, bot).matrix.entries == ((1,),)
    # map() builds each composite on first use, asked here top pair first, and
    # must give the matrix of the eager table the construction-time check
    # filled; twisted diagrams make the first listed route differ from others
    rng = random.Random(7)
    for trial in range(60):
        P = random_poset(rng.randint(1, 7), rng.random(), seed=9100 + trial)
        F = random_diagram(P, seed=trial, max_generators=4)
        diagrams.append(F)
        diagrams.append(twisted(F, rng))
        diagrams[-1].verify()
        if trial % 2 == 0:
            diagrams.append(sheaf_presheaf(F).diagram)
    composites = 0
    for F in diagrams:
        table = eager_composites(F)
        for a, b in reversed(list(table)):
            assert F.map(a, b).matrix == table[(a, b)], (F.base.elements, a, b)
        composites += len(table)
    assert composites > 300, composites


def _map_through_identities(F, a, b, table):
    """`Diagram.map` as it was built when a cover's composite was the identity
    of its lower value after the edge: the first listed route, recursively."""
    if a == b:
        return GroupHom.identity(F.value(a))
    if (a, b) not in table:
        via, edge = F._routes(a, b)[0]
        table[(a, b)] = _map_through_identities(F, via, b, table).compose(edge)
    return table[(a, b)]


def test_a_cover_map_is_its_edge_map():
    # on the census up to six elements: random diagrams of seeds 0 and 1 and
    # the presheaves of the sheaves they generate
    composites = covers = 0
    for n in range(1, 7):
        for P in posets_up_to_isomorphism(n):
            for seed in (0, 1):
                F = random_diagram(P, seed)
                for G in (F, sheaf_presheaf(F).diagram):
                    for edge, h in G.edge_maps.items():
                        assert G.map(*edge) is h
                        covers += 1
                    table = {}
                    for a in range(len(G.base)):
                        for b in G.base.down[a]:
                            old = _map_through_identities(G, a, b, table)
                            new = G.map(a, b)
                            assert new.matrix.lines == old.matrix.lines, (P.elements, a, b)
                            assert (new.source, new.target) == (old.source, old.target)
                            composites += 1
    assert covers > 1000 and composites > 3000, (covers, composites)


def face_differential(F, lower, upper, node, colimit=False):
    """The differential between two degrees, entry by entry from the face formula.

    Face i of a cell drops entry i with sign (-1)^i and contributes the
    structure map between the face's node and the cell's node (the identity
    when they agree).  A cochain differential maps the faces `lower` to the
    cells `upper`; the colimit boundary maps `upper` to `lower`.
    """

    def offsets(cells):
        out, total = [], 0
        for cell in cells:
            out.append(total)
            total += F.value(node(cell)).generators
        return out, total

    (low_at, low_total), (up_at, up_total) = offsets(lower), offsets(upper)
    rows, cols = (low_total, up_total) if colimit else (up_total, low_total)
    dense = [[0] * cols for _ in range(rows)]
    for u, cell in enumerate(upper):
        for i in range(len(cell)):
            face = cell[:i] + cell[i + 1 :]
            k = lower.index(face)
            if colimit:
                block, row0, col0 = F.map(node(cell), node(face)), low_at[k], up_at[u]
            else:
                block, row0, col0 = F.map(node(face), node(cell)), up_at[u], low_at[k]
            for p, line in enumerate(block.matrix.entries):
                for q, a in enumerate(line):
                    dense[row0 + p][col0 + q] += (-1) ** i * a
    return tuple(map(tuple, dense))


def test_chain_indexed_complexes_match_entrywise_faces():
    posets = [
        builders.vee(),
        builders.square(),
        builders.crown3(),
        random_poset(5, 0.5, seed=41),
        random_poset(6, 0.4, seed=42),
    ]
    rng = random.Random(43)
    for seed, P in enumerate(posets):
        n = len(P)

        def tuples(length, keep):
            return [c for c in itertools.product(range(n), repeat=length) if keep(c)]

        def descending(strict):
            return lambda c: all(
                P.leq(b, a) and (a != b or not strict) for a, b in zip(c, c[1:])
            )

        strict = [tuples(k + 1, descending(True)) for k in range(P.height() + 1)]
        weak = [tuples(k + 1, descending(False)) for k in range(4)]
        F = random_diagram(P, seed=seed)

        def first(cell):
            return cell[0]

        def last(cell):
            return cell[-1]

        def factors(cells, node, diagram=F):
            return tuple(diagram.value(node(c)) for c in cells)

        # the cells of every degree are the chains, in the order `chains` lists
        assert [chains(P, k) for k in range(P.height() + 1)] == [tuple(c) for c in strict]
        reduced = F.reduced_complex()
        assert [g.factors for g in reduced.groups] == [factors(c, last) for c in strict]
        for k, d in enumerate(reduced.diffs):
            assert d.matrix.entries == face_differential(F, strict[k], strict[k + 1], last)
        unreduced = full_complex_truncated(F, 2)
        assert [g.factors for g in unreduced.groups] == [factors(c, last) for c in weak]
        for k, d in enumerate(unreduced.diffs):
            assert d.matrix.entries == face_differential(F, weak[k], weak[k + 1], last)
        # listed top degree first: differential k is the boundary out of degree height - k
        colimit = colimit_complex(F)
        assert [g.factors for g in colimit.groups] == [factors(c, first) for c in strict[::-1]]
        for k, d in enumerate(colimit.diffs):
            top = P.height() - k
            expected = face_differential(F, strict[top - 1], strict[top], first, colimit=True)
            assert d.matrix.entries == expected

        I = IntersectionPoset(P)
        ps = random_presheaf(I, seed=100 + seed)
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        for order in (None, shuffled):
            sequence = list(range(n)) if order is None else order
            node_of = {}
            levels = []
            for k in range(n):
                here = []
                for c in itertools.combinations(sequence, k + 1):
                    common = frozenset.intersection(*(P.down[i] for i in c))
                    if common:
                        node_of[c] = I.nodes.index(common)
                        here.append(c)
                if here:
                    levels.append(here)
            names = None if order is None else [P.elements[i] for i in order]
            ordered = cech_ordered_complex(ps, names)
            assert [g.factors for g in ordered.groups] == [
                factors(c, node_of.__getitem__, ps.diagram) for c in levels
            ]
            for k, d in enumerate(ordered.diffs):
                expected = face_differential(
                    ps.diagram, levels[k], levels[k + 1], node_of.__getitem__
                )
                assert d.matrix.entries == expected


def test_differentials_match_the_block_builder(monkeypatch):
    # every complex the package builds from cells, built again by the
    # one-entry-per-face route and compared matrix by matrix
    built = []
    cell_complex = diagrams._cell_complex

    def both(*args, **options):
        complex_ = cell_complex(*args, **options)
        built.append((complex_, cell_complex_by_blocks(*args, **options)))
        return complex_

    monkeypatch.setattr(diagrams, "_cell_complex", both)
    monkeypatch.setattr(cech, "_cell_complex", both)
    relators = 0
    for n in range(1, 6):
        for P in posets_up_to_isomorphism(n):
            I = IntersectionPoset(P)
            for seed in (0, 1):
                F = random_diagram(P, seed)
                relators += any(v.relations.cols for v in F.values)
                diagrams.reduced_complex(F)
                full_complex_truncated(F, 2)
                colimit_complex(F)
                cech_ordered_complex(random_presheaf(I, seed))
    assert len(built) == 87 * 2 * 4 and relators > 50
    for new, old in built:
        assert new.support == old.support
        assert [g.group for g in new.groups] == [g.group for g in old.groups]
        assert [d.matrix for d in new.diffs] == [d.matrix for d in old.diffs]


def test_section_maps_and_rho_match_the_block_builder(monkeypatch):
    # the generated sheaf's section maps, degree-0 differentials of the face
    # builder, and ρ, written row by row, against the maps the block writer
    # builds from one (row, column, sign, block) entry per cover end or chain
    kernels = []
    cycles = diagrams._cycles

    def recorded(d):
        kernels.append(d)
        return cycles(d)

    def parts(homs):
        return [(h.source, h.target, h.matrix) for h in homs]

    monkeypatch.setattr(diagrams, "_cycles", recorded)
    posets = [P for n in range(1, 6) for P in posets_up_to_isomorphism(n)]
    posets += [build() for build in builders.BUILT]
    sections = rhos = 0
    for P in posets:
        I = IntersectionPoset(P)
        presheaves = [random_presheaf(I, seed) for seed in (0, 1)]
        for seed in range(3):
            F = random_diagram(P, seed)
            kernels.clear()
            presheaves.append(sheaf_presheaf(F))
            assert parts(kernels) == parts(section_map_by_blocks(F, node) for node in I.nodes)
            sections += len(kernels)
        for ps in presheaves:
            maps = ps.comparison_chain_map().maps
            assert parts(maps) == parts(rho_by_blocks(ps))
            rhos += len(maps)
    assert (sections, rhos) == (1866, 1420)


def test_full_complex_matches_reduced_on_samples():
    rng = random.Random(97)
    for trial in range(12):
        P = random_poset(rng.randint(1, 4), rng.random(), seed=7000 + trial)
        F = random_diagram(P, seed=trial, max_generators=2, max_relators=1)
        cap = P.height()
        full = full_complex_truncated(F, cap)
        for n in range(cap + 1):
            assert full.homology_group(n) == derived_limit(F, n)


def test_colimit_of_constant_diagram_is_order_complex_homology():
    rng = random.Random(113)
    for trial in range(15):
        P = random_poset(rng.randint(1, 6), rng.random(), seed=8000 + trial)
        F = constant_diagram(P)
        K = [chains(P, k) for k in range(P.height() + 1)]
        for n in range(P.height() + 2):
            assert derived_colimit(F, n) == simplicial_homology(K, n)


def test_colimit_point_and_square_identity():
    F = constant_diagram(builders.point())
    assert derived_colimit(F, 0) == CanonicalGroup(1)
    assert derived_colimit(F, 1) == CanonicalGroup(0)
    G = constant_diagram(builders.square())
    assert derived_colimit(G, 1) == CanonicalGroup(1)  # order complex is a circle


def projection(F, sections, subset, i):
    """The projection of the sections over `subset` to F(i): the rows of
    their cycles that hold the coordinates of i, after those of every
    element of `subset` with a smaller index."""
    start = sum(F.value(j).generators for j in subset if j < i)
    rows = sections.cycles.take_rows(range(start, start + F.value(i).generators))
    return GroupHom(sections.group, F.value(i), rows)


def test_sheafify_principal_open_collapses():
    P = builders.pass8()
    F = random_diagram(P, seed=5)
    for i in range(len(P)):
        cone = sheafify_value(F, P.down[i])
        assert canonical_form(cone.group) == canonical_form(F.value(i))
        assert is_isomorphism(projection(F, cone, P.down[i], i))


def test_sheafify_projections_commute_with_every_cover_inside_the_open():
    # the projections read off the rows of the cycles form a cone: along a
    # cover a > b inside a node, F(a -> b) after the projection to a is the
    # projection to b
    posets = [P for n in range(1, 6) for P in posets_up_to_isomorphism(n)]
    posets += [P for P in (build() for build in builders.BUILT) if len(P) < 10]
    for P in posets:
        for seed in range(3):
            F = random_diagram(P, seed)
            for node in IntersectionPoset(P).nodes:
                cone = sheafify_value(F, node)
                for b, a in P.covers():
                    if a in node:
                        left = F.map(a, b).compose(projection(F, cone, node, a))
                        right = projection(F, cone, node, b)
                        assert homs_equal(left, right), (P, seed, sorted(node), a, b)


def test_sheafify_constant_counts_components():
    P = builders.sphere()
    F = constant_diagram(P)
    whole = sheafify_value(F, range(len(P)))
    assert canonical_form(whole.group) == CanonicalGroup(1)
    two = sheafify_value(F, {P.index["4"], P.index["5"]})
    assert canonical_form(two.group) == CanonicalGroup(2)


def test_sheafify_rejects_non_open():
    P = builders.sphere()
    F = constant_diagram(P)
    with pytest.raises(DiagramError, match="downward closed"):
        sheafify_value(F, {P.index["0"]})


def test_sheafify_equals_degree_zero_limit():
    rng = random.Random(131)
    for trial in range(10):
        P = random_poset(rng.randint(1, 6), rng.random(), seed=9000 + trial)
        F = random_diagram(P, seed=100 + trial)
        cone = sheafify_value(F, range(len(P)))
        assert canonical_form(cone.group) == derived_limit(F, 0)


def test_random_diagram_contract():
    P = builders.pass8()
    a = random_diagram(P, seed=9)
    b = random_diagram(P, seed=9)
    assert [canonical_form(v) for v in a.values] == [canonical_form(v) for v in b.values]
    for key in a.edge_maps:
        assert a.edge_maps[key].matrix == b.edge_maps[key].matrix
    c = constant_diagram(P)
    assert all(canonical_form(v) == CanonicalGroup(1) for v in c.values)
    for options, named in (
        ({"max_generators": 0}, "max_generators must be an int of at least 1, got 0"),
        ({"max_generators": True}, "max_generators must be an int of at least 1, got True"),
        ({"max_generators": 2.5}, "max_generators must be an int of at least 1, got 2.5"),
        ({"max_relators": -1}, "max_relators must be an int of at least 0, got -1"),
        ({"max_relators": False}, "max_relators must be an int of at least 0, got False"),
        ({"max_relators": "1"}, "max_relators must be an int of at least 0, got '1'"),
    ):
        with pytest.raises(DiagramError, match="^%s$" % re.escape(named)):
            random_diagram(P, 9, **options)


def test_random_diagram_matches_the_leq_route():
    # the visible generators read once off the down-set masks give the
    # draws, values and cover maps of the route that re-derives them by `leq`
    posets = [P for n in range(1, 6) for P in posets_up_to_isomorphism(n)]
    posets += [build() for build in builders.BUILT]
    for P in posets:
        for seed in range(6):
            for caps in ((), (2, 1), (4, 0)):  # the defaults, then (max_generators, max_relators)
                F = random_diagram(P, seed, *caps)
                G = random_diagram_by_leq(P, seed, *caps)
                assert [v.relations for v in F.values] == [v.relations for v in G.values], (P, seed)
                assert F.edge_maps.keys() == G.edge_maps.keys()
                for key, h in F.edge_maps.items():
                    assert h.matrix == G.edge_maps[key].matrix, (P, seed, key)
