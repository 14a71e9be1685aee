import random
import re

import pytest

from posetcoh.complexes import (
    AcyclicityVerdict,
    ChainMap,
    Complex,
    ComplexError,
    HomologyData,
    ProductGroup,
    _cycles,
    acyclicity_check,
    homology_at,
    induced_on_homology,
    simplicial_homology,
    subposet_homology,
)
from posetcoh.cuts import criterion, enumerate_cuts
from posetcoh.diagrams import (
    Diagram,
    DiagramError,
    constant_diagram,
    full_complex_truncated,
    random_diagram,
    sheafify_value,
)
from posetcoh.groups import (
    CanonicalGroup,
    GroupHom,
    PresentedAbGroup,
    canonical_form,
    is_isomorphism,
)
from posetcoh.linalg import IntMatrix, snf
from posetcoh.poset import (
    Poset,
    PosetError,
    bounds,
    chains,
    components,
    core,
    induced_subposet,
    parse_poset,
    random_poset,
)

import builders
from oracles import brute_force_homology, hom_by_blocks, homology_by_stack


Z = PresentedAbGroup.free(1)
ZERO = PresentedAbGroup.zero()


def hom(source, target, rows):
    return GroupHom(source, target, IntMatrix(target.generators, source.generators, rows))


def order_complex(P):
    return [chains(P, k) for k in range(P.height() + 1)]


def test_homology_of_multiplication_by_two():
    d_in = hom(Z, Z, [[2]])
    d_out = GroupHom.zero(Z, ZERO)
    h = homology_at(d_in, d_out)
    assert canonical_form(h.group) == CanonicalGroup(0, (2,))


def test_homology_of_exact_complex_vanishes():
    d_in = hom(Z, Z, [[1]])
    d_out = GroupHom.zero(Z, ZERO)
    assert canonical_form(homology_at(d_in, d_out).group).is_trivial()


def test_homology_rejects_nonzero_composite():
    d_in = hom(Z, Z, [[1]])
    d_out = hom(Z, Z, [[1]])
    with pytest.raises(ComplexError, match="zero"):
        homology_at(d_in, d_out)


def test_homology_of_square_order_complex_is_circle():
    K = order_complex(builders.square())
    assert simplicial_homology(K, 0) == CanonicalGroup(1)
    assert simplicial_homology(K, 1) == CanonicalGroup(1)
    assert simplicial_homology(K, 2) == CanonicalGroup(0)


def test_homology_of_sphere_order_complex():
    K = order_complex(builders.sphere())
    assert simplicial_homology(K, 0) == CanonicalGroup(1)
    assert simplicial_homology(K, 1) == CanonicalGroup(0)
    assert simplicial_homology(K, 2) == CanonicalGroup(1)
    # a degree outside the list, and any degree of the empty list, is 0
    for n in (-1, len(K), 10):
        assert simplicial_homology(K, n) == CanonicalGroup(0), n
    assert simplicial_homology([], 0) == CanonicalGroup(0)


def test_homology_of_projective_plane_has_torsion():
    K = order_complex(builders.projective_plane())
    assert [len(c) for c in K] == [31, 90, 60]
    assert simplicial_homology(K, 0) == CanonicalGroup(1)
    assert simplicial_homology(K, 1) == CanonicalGroup(0, (2,))
    assert simplicial_homology(K, 2) == CanonicalGroup(0)


def test_simplicial_homology_matches_dense_homology_at_route():
    rng = random.Random(53)
    for trial in range(12):
        P = random_poset(rng.randint(1, 6), rng.random(), seed=7000 + trial)
        K = order_complex(P)
        for n in range(len(K)):
            dense = homology_at(dense_boundary(K, n + 1), dense_boundary(K, n))
            assert simplicial_homology(K, n) == canonical_form(dense.group), (trial, n)


def test_homology_of_antichain():
    P = parse_poset({"elements": ["a", "b"], "relations": []})
    K = order_complex(P)
    assert simplicial_homology(K, 0) == CanonicalGroup(2)


def dense_boundary(K, n):
    """The boundary from degree n to n-1 as a GroupHom on free groups.

    Built entry by entry from face deletions, independently of the sparse
    columns the package reduces; degree 0 maps to the zero group and an
    absent degree n contributes a map from the zero group.
    """
    if n >= len(K) or len(K[n]) == 0:
        return GroupHom.zero(ZERO, PresentedAbGroup.free(len(K[n - 1])))
    source = PresentedAbGroup.free(len(K[n]))
    if n == 0:
        return GroupHom.zero(source, ZERO)
    below = {chain: k for k, chain in enumerate(K[n - 1])}
    data = [[0] * len(K[n]) for _ in range(len(K[n - 1]))]
    for col, chain in enumerate(K[n]):
        for i in range(n + 1):
            data[below[chain[:i] + chain[i + 1 :]]][col] += (-1) ** i
    target = PresentedAbGroup.free(len(K[n - 1]))
    return GroupHom(source, target, IntMatrix(len(K[n - 1]), len(K[n]), data))


def test_cycle_lift_round_trip():
    K = order_complex(builders.square())
    # homology at degree 1 of the 4-cycle: lift a generator and read it back
    d_out = dense_boundary(K, 1)
    d_in = dense_boundary(K, 2)
    h = homology_at(d_in, d_out)
    assert canonical_form(h.group) == CanonicalGroup(1)
    free_part = [j for j in range(h.group.generators)]
    for j in free_part:
        z = h.cycles.column(j)
        assert d_out.apply(z) == (0,) * d_out.target.generators
        assert h.coordinates(z) is not None


def test_homology_without_boundaries_or_relations_never_eliminates_its_cycles(monkeypatch):
    # the target has no relators, so `cycles` is a whole kernel basis and
    # arrives with its decomposition; the boundaries are solved against it,
    # so only d_out is eliminated, with boundaries or without
    import posetcoh.linalg

    eliminated = []
    eliminate = posetcoh.linalg._eliminate

    def counting(M):
        eliminated.append(M)
        return eliminate(M)

    monkeypatch.setattr(posetcoh.linalg, "_eliminate", counting)
    plane = PresentedAbGroup.free(3)
    for d_in in (GroupHom.zero(ZERO, plane), hom(Z, plane, [[2], [2], [0]])):
        eliminated.clear()
        h = homology_at(d_in, hom(plane, Z, [[1, -1, 0]]))
        y = IntMatrix.from_rows([[1, 0], [2, 1]])
        assert h.coordinates(h.cycles * y) == y
        assert h.coordinates(h.cycles.column(1)) == (0, 1)
        assert h.coordinates(IntMatrix.zero(3, 0)) == IntMatrix.zero(2, 0)
        assert len(eliminated) == 1, d_in
        assert sum(M is h.cycles for M in eliminated) == 0, d_in


def test_brute_force_oracle_on_torsion_quotients():
    rng = random.Random(37)
    trials = 0
    while trials < 60:
        g = rng.randint(1, 3)
        R_B = IntMatrix(
            g, g, [[rng.randint(-3, 3) for _ in range(g)] for _ in range(g)]
        )
        from posetcoh.linalg import snf as _snf

        if len(_snf(R_B).invariant_factors()) < g:
            continue  # infinite middle group, oracle does not apply
        B = PresentedAbGroup(g, R_B)
        extra_cols = [
            [rng.randint(-3, 3) for _ in range(g)] for _ in range(rng.randint(0, 2))
        ]
        full = R_B.hstack(IntMatrix.from_columns(extra_cols, nrows=g)) if extra_cols else R_B
        C = PresentedAbGroup(g, full)
        d_out = GroupHom(B, C, IntMatrix.identity(g))
        a = rng.randint(0, 2)
        mix = [
            full.apply([rng.randint(-2, 2) for _ in range(full.cols)]) for _ in range(a)
        ]
        A = PresentedAbGroup.free(a)
        d_in = GroupHom(A, B, IntMatrix.from_columns(mix, nrows=g) if mix else IntMatrix.zero(g, 0))
        h = canonical_form(homology_at(d_in, d_out).group)
        oracle = brute_force_homology(d_in.matrix, R_B, d_out.matrix, C.relations)
        assert oracle is not None
        assert (h.rank, tuple(sorted(h.torsion))) == oracle
        trials += 1


def random_middle(rng):
    """d_in: Z^a -> B and d_out: B -> C composing to zero, B and C presented.

    C repeats its relators, so the cycle matrix is not injective; d_out
    sends the relators of B among those of C, and d_in takes combinations
    of the cycles and of the relators of B.
    """

    def draw(rows, cols):
        return IntMatrix(rows, cols, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])

    g, h, a = rng.randint(1, 4), rng.randint(0, 3), rng.randint(0, 3)
    R_B, d_out = draw(g, rng.randint(0, g + 1)), draw(h, g)
    R_C = (d_out * R_B).hstack(draw(h, rng.randint(0, 2)))
    B, C = PresentedAbGroup(g, R_B), PresentedAbGroup(h, R_C.hstack(R_C))
    out = GroupHom(B, C, d_out)
    cycles = _cycles(out)
    d_in = cycles * draw(cycles.cols, a) + R_B * draw(R_B.cols, a)
    return GroupHom(PresentedAbGroup.free(a), B, d_in), out


def test_relations_solved_against_the_cycles_give_the_stack_lattice():
    # the same lattice: each route's relations lie in the other's, so the
    # groups agree, also with the brute-force oracle on a finite middle group
    def same(d_in, d_out):
        new, old = homology_at(d_in, d_out), homology_by_stack(d_in, d_out)
        assert new.cycles == old.cycles
        assert snf(new.group.relations).contains(old.group.relations)
        assert snf(old.group.relations).contains(new.group.relations)
        assert canonical_form(new.group) == canonical_form(old.group)
        return canonical_form(new.group), new.cycles

    rng = random.Random(52)
    counts = dict.fromkeys(["torsion", "not_injective", "finite"], 0)
    for _ in range(300):
        d_in, d_out = random_middle(rng)
        group, cycles = same(d_in, d_out)
        counts["torsion"] += bool(group.torsion)
        counts["not_injective"] += snf(cycles).rank < cycles.cols
        R_B = d_in.target.relations
        if len(snf(R_B).invariant_factors()) == R_B.rows:
            counts["finite"] += 1
            oracle = brute_force_homology(d_in.matrix, R_B, d_out.matrix, d_out.target.relations)
            assert (group.rank, tuple(sorted(group.torsion))) == oracle
    assert min(counts.values()) > 10, counts
    P = builders.projective_plane()
    rendered = []
    for F in (constant_diagram(P), random_diagram(P, 0), random_diagram(P, 1)):
        cx = full_complex_truncated(F, 2)
        rendered.append([same(cx.incoming(n), cx.outgoing(n))[0].render() for n in range(3)])
    assert rendered[0] == ["Z", "0", "Z/2"]


def build_complex(groups, matrices):
    prods = [ProductGroup((g,)) for g in groups]
    diffs = [
        GroupHom(prods[k].group, prods[k + 1].group, m) for k, m in enumerate(matrices)
    ]
    return Complex(prods, diffs)


def test_complex_build_rejects_bad_composite():
    cx = build_complex([Z, Z, Z], [IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])])
    with pytest.raises(ComplexError, match="composite"):
        cx.verify()
    two = PresentedAbGroup.from_invariants(0, (2,))
    with pytest.raises(ComplexError, match="differential 0 is not well defined"):
        build_complex([two, Z], [IntMatrix.from_rows([[1]])]).verify()
    # homology trusts d after d, and names the degree where the boundaries
    # are not cycles
    with pytest.raises(ComplexError, match="at degree 1 are not cycles"):
        cx.homology(1)


def test_product_blocks_must_fit_their_factors():
    # an identity block needs factors of one size, and a matrix block the
    # shape row factor x column factor; nothing spills into a neighbour
    one, two = ProductGroup([Z]), ProductGroup([Z, Z])
    plane = ProductGroup([PresentedAbGroup.free(2)])
    assert hom_by_blocks(one, one, [(0, 0, -1, None)]).matrix.entries == ((-1,),)
    for source, target, block in (
        (one, plane, None),  # Z -> Z^2 ran past the last column
        (two, plane, None),  # Z + Z -> Z^2 wrote into the second factor
        (two, plane, IntMatrix.from_rows([[1, 1], [0, 1]])),
        (plane, one, IntMatrix.from_rows([[1]])),
    ):
        with pytest.raises(ComplexError, match="^block of factors 0 and 0 has the wrong shape$"):
            hom_by_blocks(source, target, [(0, 0, 1, block)])
    block = IntMatrix.from_rows([[1], [2]])
    assert hom_by_blocks(two, plane, [(0, 1, 1, block)]).matrix.entries == ((0, 1), (0, 2))


Z2 = PresentedAbGroup.free(2)
ANTICHAIN = parse_poset({"elements": ["a", "b"]})
ONE, TWO = IntMatrix.identity(1), IntMatrix.identity(2)
POINT_COMPLEX = Complex([ProductGroup([Z])], [])

# one call per shape or data check the package's own routes never fail:
# (call, exception, the whole message)
SHAPE_CHECKS = {
    "complex differential count": (
        lambda: Complex([ProductGroup([Z])], [GroupHom.identity(Z)]),
        ComplexError,
        "need one differential between consecutive degrees",
    ),
    "complex endpoints": (
        lambda: Complex([ProductGroup([Z])] * 2, [GroupHom.identity(Z2)]),
        ComplexError,
        "differential 0 endpoint mismatch",
    ),
    "coordinates of a non-cycle": (
        lambda: HomologyData(Z, IntMatrix.from_rows([[2]])).coordinates((1,)),
        ComplexError,
        "vector is not a cycle of this homology computation",
    ),
    "homology middle group": (
        lambda: homology_at(GroupHom.zero(ZERO, Z), GroupHom.zero(Z2, ZERO)),
        ComplexError,
        "homology needs a shared middle group",
    ),
    "chain map count": (
        lambda: ChainMap(POINT_COMPLEX, POINT_COMPLEX, []),
        ComplexError,
        "need one map per source degree",
    ),
    "diagram value count": (
        lambda: Diagram(ANTICHAIN, [Z], {}),
        DiagramError,
        "need one group per element",
    ),
    "diagram map between incomparables": (
        lambda: constant_diagram(ANTICHAIN).map(0, 1),
        DiagramError,
        "no arrow a->b",
    ),
    "sections over no element": (
        lambda: sheafify_value(constant_diagram(ANTICHAIN), []),
        DiagramError,
        "sections need a nonempty open",
    ),
    "relation rows": (
        lambda: PresentedAbGroup(2, IntMatrix.zero(1, 0)),
        ValueError,
        "relation matrix has 1 rows for 2 generators",
    ),
    "hom shape": (
        lambda: GroupHom(Z, Z2, ONE),
        ValueError,
        "matrix is 1x1, expected 2x1",
    ),
    "hom composition": (
        lambda: GroupHom.identity(Z).compose(GroupHom.identity(Z2)),
        ValueError,
        "composition endpoint mismatch",
    ),
    "columns without a row count": (
        lambda: IntMatrix.from_columns([]),
        ValueError,
        "row count needed for a matrix with no columns",
    ),
    "sum shape": (lambda: ONE + TWO, ValueError, "shape mismatch in addition"),
    "product shape": (lambda: ONE * TWO, ValueError, "shape mismatch: 2 rows, expected 1"),
    "vector length": (lambda: TWO.apply([1]), ValueError, "vector length 1, expected 2"),
    "hstack rows": (lambda: ONE.hstack(TWO), ValueError, "row count mismatch in hstack"),
    "empty poset": (lambda: Poset([], []), PosetError, "empty poset"),
}


@pytest.mark.parametrize("name", sorted(SHAPE_CHECKS))
def test_shape_checks_raise_their_whole_message(name):
    call, error, message = SHAPE_CHECKS[name]
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        call()


def assert_same_as_checked(M):
    """M stores no zero: it equals, and hashes like, the checked matrix of its entries."""
    checked = IntMatrix(M.rows, M.cols, M.entries)
    assert M == checked and hash(M) == hash(checked)
    assert all(all(line.values()) for line in M.lines)


def test_product_blocks_that_cancel_store_no_zero():
    one, two = ProductGroup([Z]), ProductGroup([Z, Z])
    block = IntMatrix.from_rows([[2]])
    cancelled = hom_by_blocks(one, one, [(0, 0, 1, None), (0, 0, -1, None)]).matrix
    assert cancelled == IntMatrix.zero(1, 1) and hash(cancelled) == hash(IntMatrix.zero(1, 1))
    partly = hom_by_blocks(two, one, [(0, 0, 1, block), (0, 1, 3, None), (0, 0, -2, None)]).matrix
    assert partly == IntMatrix.from_rows([[0, 3]])
    assert_same_as_checked(partly)
    assert block == IntMatrix.from_rows([[2]])


def test_unreduced_differentials_cancel_repeated_faces():
    # the chain (x, x) has the face (x,) twice, with opposite signs
    point = parse_poset({"elements": ["x"], "relations": []})
    F = Diagram(point, [PresentedAbGroup.free(2)], {})
    d0 = full_complex_truncated(F, 2).diffs[0].matrix
    assert d0 == IntMatrix.zero(2, 2) and hash(d0) == hash(IntMatrix.zero(2, 2))
    for seed in range(6):
        P = random_poset(4, 0.6, seed)
        for d in full_complex_truncated(random_diagram(P, seed), 2).diffs:
            assert_same_as_checked(d.matrix)


def test_complex_homology_ends():
    cx = build_complex([Z, Z], [IntMatrix.from_rows([[2]])])
    assert cx.homology_group(0).is_trivial()
    assert cx.homology_group(1) == CanonicalGroup(0, (2,))
    assert cx.homology_group(5) == CanonicalGroup(0)
    assert cx.product(1) is cx.groups[1] and len(cx.product(5)) == 0
    for at_degree in (cx.product, cx.incoming, cx.outgoing, cx.homology):
        with pytest.raises(ComplexError, match="degree -1"):
            at_degree(-1)


def test_induced_identity_and_zero():
    cx = build_complex([Z, Z], [IntMatrix.from_rows([[2]])])
    ident = ChainMap(cx, cx, [GroupHom.identity(g.group) for g in cx.groups])
    h1 = induced_on_homology(ident, 1)
    assert is_isomorphism(h1)
    zero = ChainMap(cx, cx, [GroupHom.zero(g.group, g.group) for g in cx.groups])
    h0 = induced_on_homology(zero, 1)
    from posetcoh.groups import is_zero_hom

    assert is_zero_hom(h0)


def test_induced_respects_composition():
    cx = build_complex([Z, Z], [IntMatrix.from_rows([[4]])])
    f = ChainMap(cx, cx, [hom(Z, Z, [[3]]), hom(Z, Z, [[3]])])
    g = ChainMap(cx, cx, [hom(Z, Z, [[5]]), hom(Z, Z, [[5]])])
    gf = ChainMap(cx, cx, [hom(Z, Z, [[15]]), hom(Z, Z, [[15]])])
    from posetcoh.groups import homs_equal

    lhs = induced_on_homology(g, 1).compose(induced_on_homology(f, 1))
    rhs = induced_on_homology(gf, 1)
    assert homs_equal(lhs, rhs)


def test_chain_map_verification_failure_names_degree():
    cx = build_complex([Z, Z], [IntMatrix.from_rows([[2]])])
    with pytest.raises(ComplexError, match="degree 0"):
        ChainMap(cx, cx, [hom(Z, Z, [[1]]), hom(Z, Z, [[2]])]).verify()
    cx = build_complex([Z, Z, Z], [IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[1]])])
    with pytest.raises(ComplexError, match="degree 1"):
        ChainMap(cx, cx, [hom(Z, Z, [[1]]), hom(Z, Z, [[1]]), hom(Z, Z, [[2]])]).verify()


def test_acyclicity_tree_and_antichain():
    P = builders.pass8()
    from posetcoh.poset import bounds, induced_subposet

    tree = induced_subposet(P, bounds(P, [P.index["5"], P.index["6"]], "upper"))
    assert acyclicity_check(tree).acyclic
    antichain = parse_poset({"elements": ["a", "b"], "relations": []})
    verdict = acyclicity_check(antichain)
    assert not verdict.acyclic
    assert verdict.degree == 0 and verdict.group == CanonicalGroup(2)


def test_acyclicity_sphere_fails_at_two():
    verdict = acyclicity_check(builders.sphere())
    assert not verdict.acyclic
    assert verdict.degree == 2 and verdict.group == CanonicalGroup(1)


def test_acyclicity_dunce_hat_is_told_by_homology_alone():
    # contractible but free of beat points: its core is all of it
    P = builders.dunce_hat()
    assert len(core(P)) == len(P.elements) == 17 + 52 + 36
    verdict = acyclicity_check(P)
    assert verdict.acyclic and verdict.via == "homology"


def test_acyclicity_projective_plane_fails_at_one_with_torsion():
    verdict = acyclicity_check(builders.projective_plane())
    assert not verdict.acyclic
    assert verdict.degree == 1 and verdict.group == CanonicalGroup(0, (2,))


def test_acyclicity_sweep_enumerates_only_the_degrees_it_reads(monkeypatch):
    # a 4-cycle with a tail: H_1 = Z, longest chain p0 < p3 < q1 < q2 < q3;
    # the tail is all beat points, so the sweep runs on the cycle alone
    cycle = [["p0", "p2"], ["p0", "p3"], ["p1", "p2"], ["p1", "p3"]]
    tail = [["p3", "q1"], ["q1", "q2"], ["q2", "q3"]]
    elements = ["p0", "p1", "p2", "p3", "q1", "q2", "q3"]
    P = parse_poset({"elements": elements, "relations": cycle + tail})
    assert P.height() == 4
    # a 4-cycle whose maximal point c1 is the bottom of the minimal model
    # of the 3-sphere: its own core, H_1 = Z and height 4
    levels = [["c1", "c2"], ["d1", "d2"], ["e1", "e2"], ["f1", "f2"]]
    joins = [[a, b] for low, high in zip(levels, levels[1:]) for a in low for b in high]
    cycle = [["a1", "c1"], ["a2", "c1"], ["a1", "b2"], ["a2", "b2"]]
    elements = ["a1", "a2", "b2"] + [x for level in levels for x in level]
    Q = parse_poset({"elements": elements, "relations": cycle + joins})
    assert Q.height() == 4 and core(Q) == list(range(len(Q)))
    import posetcoh.complexes

    asked = []
    enumerate_chains = posetcoh.complexes.chains

    def counting_chains(poset, n):
        asked.append(n)
        return enumerate_chains(poset, n)

    monkeypatch.setattr(posetcoh.complexes, "chains", counting_chains)
    for poset, read in ((P, [0, 1]), (Q, [0, 1, 2])):
        asked.clear()
        verdict = acyclicity_check(poset)
        assert verdict.degree == 1 and verdict.group == CanonicalGroup(1)
        assert sorted(asked) == read


def test_subposet_homology_is_that_of_the_built_subposet():
    # every degree in which the induced subposet's order complex differs
    # from a point, on whole posets, cut upper sections, upper links and
    # random subsets: the projective plane has torsion in H_1, the dunce
    # hat is acyclic with no beat point, and most subsets are disconnected
    rng = random.Random(47)
    posets = [builders.projective_plane(), builders.dunce_hat(), builders.sphere(), builders.crown3()]
    posets += [random_poset(rng.randint(2, 9), rng.random(), seed=7000 + t) for t in range(30)]
    seen = {"disconnected": 0, "torsion": 0, "above 0": 0, "point": 0}
    for P in posets:
        sets = [set(range(len(P)))] + [cut.upper for cut in enumerate_cuts(P)]
        sets += [P.up[m] - {m} for m in range(len(P)) if len(P.up[m]) > 1]
        sets += [{i for i in range(len(P)) if rng.random() < 0.6} for _ in range(4)]
        for members in filter(None, sets):
            sub = induced_subposet(P, members)
            levels = [chains(sub, k) for k in range(sub.height() + 1)]
            expected = []
            for n in range(len(levels)):
                group = simplicial_homology(levels, n)
                if group != (CanonicalGroup(1) if n == 0 else CanonicalGroup(0)):
                    expected.append((n, group))
            assert list(subposet_homology(P, members)) == expected, (P, sorted(members))
            seen["disconnected"] += any(n == 0 for n, _ in expected)
            seen["torsion"] += any(group.torsion for _, group in expected)
            seen["above 0"] += any(n > 0 for n, _ in expected)
            seen["point"] += not expected
    assert all(seen.values()), seen


def test_subposet_homology_counts_the_components_of_the_core(monkeypatch):
    # the core is taken first; a one-point core counts no components, and
    # otherwise they are counted on the core, never on the whole section
    import posetcoh.complexes
    from posetcoh.poset import _components, _core, _mask

    counted = []

    def recording_components(poset, mask):
        counted.append(mask)
        return _components(poset, mask)

    monkeypatch.setattr(posetcoh.complexes, "_components", recording_components)
    rng = random.Random(53)
    posets = [builders.sphere(), builders.crown3()]
    posets += [random_poset(rng.randint(2, 10), rng.random(), seed=5300 + t) for t in range(30)]
    asked = beaten = 0
    for P in posets:
        sets = [set(range(len(P)))] + [cut.upper for cut in enumerate_cuts(P)]
        sets += [{i for i in range(len(P)) if rng.random() < 0.6} for _ in range(4)]
        for members in filter(None, sets):
            section = _mask(P, members)
            kept = _core(P, section)
            counted.clear()
            list(subposet_homology(P, members))
            assert counted == ([] if kept.bit_count() == 1 else [kept]), (P, sorted(members))
            asked += bool(counted)
            beaten += bool(counted) and kept != section
    assert asked and beaten, (asked, beaten)


def test_subposet_homology_of_no_elements_raises(monkeypatch):
    # an empty order complex has H_0 = 0, not the homology of a point, and
    # the sweep refuses it before looking at components or cores
    import posetcoh.complexes

    for name in ("_components", "_core", "induced_subposet"):
        monkeypatch.setattr(posetcoh.complexes, name, None)
    P = builders.square()
    with pytest.raises(PosetError, match="nonempty"):
        next(subposet_homology(P, set()))
    with pytest.raises(PosetError, match="nonempty"):
        acyclicity_check(P, members=set())


def test_member_indices_outside_the_poset_are_refused():
    # one range check turns members into a bit mask or an index list; it
    # names the index as `bounds` does, rather than answering, misnaming a
    # duplicate element or raising IndexError
    P = random_poset(5, 0.5, 1)
    F = random_diagram(P, seed=0)
    kernels = (
        components,
        core,
        lambda P, m: next(subposet_homology(P, m)),
        acyclicity_check,
        induced_subposet,
        lambda P, m: sheafify_value(F, m),
    )
    for bad in (-1, len(P)):
        for kernel in kernels:
            for members in ({bad}, {bad, 0}):
                with pytest.raises(PosetError, match="subset index %d out of range" % bad):
                    kernel(P, members)
    # the same check reads a bit mask: a bit at len(P) or above names its
    # index, and a negative mask is refused rather than read as every bit
    kernels += (lambda P, m: bounds(P, m, "lower"),)
    for kernel in kernels:
        for mask in (1 << len(P), 1 << len(P) | 1):
            with pytest.raises(PosetError, match="subset index %d out of range" % len(P)):
                kernel(P, mask)
        with pytest.raises(PosetError, match="subset mask -1 out of range"):
            kernel(P, -1)
        # a member that is not an int index is named, a bool among them
        # (True would read as element 1), and a bool is not a mask either
        for bad in (True, 1.5, "a"):
            for members in ([bad], [0, bad]):
                with pytest.raises(PosetError, match="subset member %r is not an element index" % (bad,)):
                    kernel(P, members)
        with pytest.raises(PosetError, match="neither a mask nor a set of indices"):
            kernel(P, True)
    # -1 would read as the top of the chain a < b and give Z^2, not Z
    chain = parse_poset({"elements": ["a", "b"], "relations": [["a", "b"]]})
    Z = PresentedAbGroup.free(1)
    constant = Diagram(chain, [Z, Z], {(1, 0): GroupHom.identity(Z)})
    assert canonical_form(sheafify_value(constant, [0, 1]).group) == CanonicalGroup(1)
    with pytest.raises(PosetError, match="subset index -1 out of range"):
        sheafify_value(constant, [0, 1, -1])


def test_acyclicity_cone_shortcut_and_recheck():
    P = parse_poset(
        {"elements": ["bot", "a", "b"], "relations": [["bot", "a"], ["bot", "b"]]}
    )
    # a cone is told by homology here; `criterion` owns the least-element test
    verdict = acyclicity_check(P)
    assert verdict.acyclic and verdict.via == "homology"


def test_acyclicity_least_or_greatest_element_posets():
    rng = random.Random(41)
    for trial in range(20):
        P = random_poset(rng.randint(1, 6), rng.random(), seed=5000 + trial)
        doc = {
            "elements": list(P.elements) + ["top"],
            "relations": [[P.elements[i], P.elements[j]] for i, j in P.covers()]
            + [[e, "top"] for e in P.elements],
        }
        with_top = parse_poset(doc)
        assert acyclicity_check(with_top).acyclic


def test_shortcut_agreement_on_random_posets():
    rng = random.Random(43)
    for trial in range(25):
        P = random_poset(rng.randint(1, 7), rng.random(), seed=6000 + trial)
        fast, slow = criterion(P), criterion(P, shortcuts=False)
        assert fast.verdict == slow.verdict
        assert [(c.lower, n, g) for c, n, g in fast.failures] == [
            (c.lower, n, g) for c, n, g in slow.failures
        ]
