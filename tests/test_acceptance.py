"""End-to-end acceptance checks, one test per shipped guarantee.

The first six pin exact groups and verdicts on the reference fixtures from
builders; the last eight replay the package's structural guarantees (dual
routes, criterion soundness, on random posets and on posets with
non-principal intersections, the criterion's necessity and sufficiency on
every small poset, cut completeness, nerve duality, normal-form contract)
on fuzzed or exhaustive inputs at desk scale.  A verbose run reports one
pass/fail line per guarantee.
"""

import json
import random

from posetcoh.cech import (
    cech_cohomology,
    cech_ordered_complex,
    compare_report,
    comparison_map,
    random_presheaf,
    topos_cohomology,
)
from posetcoh.cli import main
from posetcoh.complexes import simplicial_homology
from posetcoh.cuts import criterion, enumerate_cuts, principal_meets
from posetcoh.diagrams import (
    Diagram,
    derived_colimit,
    derived_limit,
    full_complex_truncated,
    random_diagram,
)
from posetcoh.documents import load_presheaf
from posetcoh.groups import (
    CanonicalGroup,
    GroupHom,
    PresentedAbGroup,
    canonical_form,
    is_isomorphism,
)
from posetcoh.linalg import IntMatrix, snf
from posetcoh.poset import IntersectionPoset, chains, random_poset, subset_name

import builders
from oracles import (
    brute_force_cuts,
    invariant_factors_by_minors,
    is_unimodular,
    random_matrix,
    theorem_census,
)


def _vee_diagram(m0_rows, m1_rows, ranks):
    P = builders.vee()
    g0, g1, g2 = (PresentedAbGroup.free(r) for r in ranks)
    maps = {
        (P.index["p0"], P.index["p2"]): GroupHom(
            g0, g2, IntMatrix(ranks[2], ranks[0], m0_rows)
        ),
        (P.index["p1"], P.index["p2"]): GroupHom(
            g1, g2, IntMatrix(ranks[2], ranks[1], m1_rows)
        ),
    }
    return Diagram(P, [g0, g1, g2], maps)


def test_point_limits_reproduce_the_coefficient_group():
    P = builders.point()
    A = PresentedAbGroup.from_invariants(2, (4, 12))
    F = Diagram(P, [A], {})
    assert derived_limit(F, 0) == canonical_form(A)
    assert derived_limit(F, 0) == CanonicalGroup(2, (4, 12))
    for n in range(1, 5):
        assert derived_limit(F, n) == CanonicalGroup(0)


def test_vee_first_limit_is_the_cokernel_of_the_paired_images():
    F = _vee_diagram([[0]], [[0]], (1, 1, 1))
    assert derived_limit(F, 1) == CanonicalGroup(1)
    rng = random.Random(402)
    for _ in range(40):
        g2 = rng.randint(1, 2)
        g0, g1 = rng.randint(0, 2), rng.randint(0, 2)
        m0 = [[rng.randint(-4, 4) for _ in range(g0)] for _ in range(g2)]
        m1 = [[rng.randint(-4, 4) for _ in range(g1)] for _ in range(g2)]
        F = _vee_diagram(m0, m1, (g0, g1, g2))
        stacked = IntMatrix(g2, g0, m0).hstack(IntMatrix(g2, g1, m1))
        assert derived_limit(F, 1) == canonical_form(PresentedAbGroup(g2, stacked))


def test_square_first_limit_matches_colimit_and_higher_limits_vanish():
    P = builders.square()
    for seed in range(50):
        F = random_diagram(P, seed=seed)
        assert derived_limit(F, 1) == derived_colimit(F, 0)
        assert derived_limit(F, 2) == CanonicalGroup(0)
        assert derived_limit(F, 3) == CanonicalGroup(0)


def test_sphere_sheaf_separates_the_two_cohomologies(tmp_path):
    ps = load_presheaf(builders.CONSTANT_SPHERE_DIAGRAM_DOC)
    assert topos_cohomology(ps, 2) == CanonicalGroup(1)
    for n in range(2, 5):
        assert cech_cohomology(ps, n) == CanonicalGroup(0)
    poset_path = tmp_path / "sphere.json"
    sheaf_path = tmp_path / "constant.json"
    poset_path.write_text(json.dumps(builders.SPHERE_DOC))
    sheaf_path.write_text(json.dumps(builders.CONSTANT_SPHERE_DIAGRAM_DOC))
    assert main(["compare", str(poset_path), str(sheaf_path)]) == 1


def test_square_presheaves_break_the_comparison_in_both_low_degrees():
    sky = load_presheaf(builders.SKYSCRAPER_DOC)
    lam0 = comparison_map(sky, 0)
    assert canonical_form(lam0.source) == CanonicalGroup(1)
    assert canonical_form(lam0.target) == CanonicalGroup(2)
    assert not is_isomorphism(lam0)
    const = load_presheaf(builders.CONSTANT_SQUARE_DOC)
    assert cech_cohomology(const, 1) == CanonicalGroup(0)
    assert topos_cohomology(const, 1) == CanonicalGroup(1)
    assert not is_isomorphism(comparison_map(const, 1))


def test_criterion_verdicts_on_the_reference_posets():
    assert criterion(builders.zigzag()).verdict == "PASS"
    assert criterion(builders.pass8()).verdict == "PASS"
    assert criterion(builders.pass7()).verdict == "PASS"
    P = builders.cells9()
    report = criterion(P)
    assert report.verdict == "FAIL"
    witnesses = {
        subset_name(P, cut.upper): (degree, group)
        for cut, degree, group in report.failures
    }
    assert witnesses["{0,1}"] == (0, CanonicalGroup(2))


def test_reduced_route_matches_truncated_unreduced_route():
    rng = random.Random(7001)
    for trial in range(100):
        P = random_poset(rng.randint(1, 5), rng.random(), seed=20_000 + trial)
        F = random_diagram(P, seed=trial, max_generators=2, max_relators=1)
        cap = P.height()
        full = full_complex_truncated(F, cap)
        for n in range(cap + 1):
            assert full.homology_group(n) == derived_limit(F, n)


def test_intersection_route_matches_ordered_route_under_any_order():
    rng = random.Random(8101)
    for trial in range(100):
        P = random_poset(rng.randint(1, 5), rng.random(), seed=21_000 + trial)
        ps = random_presheaf(
            IntersectionPoset(P), seed=trial, max_generators=2, max_relators=1
        )
        top = ps.cech_complex().top_degree()
        names = list(P.elements)
        for _ in range(2):
            rng.shuffle(names)
            cx = cech_ordered_complex(ps, list(names))
            for n in range(max(top, cx.top_degree()) + 2):
                assert cx.homology_group(n) == cech_cohomology(ps, n)


def test_criterion_pass_forces_isomorphic_comparison_maps():
    rng = random.Random(9901)
    passes = comparisons = principal = 0
    violations = []
    for trial in range(100):
        P = random_poset(rng.randint(1, 6), rng.random(), seed=22_000 + trial)
        if not criterion(P):
            continue
        passes += 1
        U = IntersectionPoset(P)
        for k in range(5):
            ps = random_presheaf(U, seed=31 * trial + k, max_generators=2, max_relators=1)
            report = compare_report(ps)
            comparisons += 1
            if not report.all_iso:
                violations.append((trial, k, [r.degree for r in report.rows if not r.iso]))
            if principal_meets(P):
                # ρ only relabels coordinates: one 1 in every row and column
                principal += 1
                for rho_n in ps.comparison_chain_map().maps:
                    m = rho_n.matrix
                    assert [list(line.values()) for line in m.lines] == [[1]] * m.rows
                    assert sorted(j for line in m.lines for j in line) == list(range(m.cols))
    assert passes >= 20 and comparisons == 5 * passes
    assert principal >= 50
    assert violations == []


def test_criterion_pass_forces_isomorphic_comparison_maps_past_principal_nodes():
    # where every intersection is principal, the node poset is the base
    # poset up to names and the comparison map only permutes coordinates;
    # these three have more nodes than elements, so it does more
    for P in (builders.pass7(), builders.pass8(), builders.capped_square()):
        assert criterion(P)
        U = IntersectionPoset(P)
        assert len(U.nodes) > len(P)
        for k in range(4):
            ps = random_presheaf(U, seed=1700 + k, max_generators=2, max_relators=1)
            assert compare_report(ps).all_iso, (P.elements, k)


def test_criterion_decides_agreement_on_every_poset_up_to_five_elements():
    # the converse too: every failing cut's up-set indicator breaks the
    # comparison at the cut's failing degree, and on a PASS poset none does
    censuses = [theorem_census(n) for n in range(1, 6)]
    assert [c["posets"] for c in censuses] == [1, 2, 5, 16, 63]
    totals = {key: sum(c[key] for c in censuses) for key in censuses[0]}
    assert (totals["fail_posets"], totals["failing_cuts"]) == (10, 10)
    assert (totals["unbroken_cuts"], totals["broken_pass_posets"]) == (0, 0)


def test_cut_enumeration_is_complete_at_small_scale():
    rng = random.Random(5150)
    for trial in range(60):
        P = random_poset(rng.randint(1, 10), rng.random(), seed=23_000 + trial)
        enumerated = {(c.lower, c.upper) for c in enumerate_cuts(P)}
        assert enumerated == brute_force_cuts(P)


def test_constant_colimit_recovers_order_complex_homology():
    rng = random.Random(1313)
    for trial in range(50):
        P = random_poset(rng.randint(1, 6), rng.random(), seed=24_000 + trial)
        F = random_diagram(P, seed=0, constant=True)
        K = [chains(P, k) for k in range(P.height() + 1)]
        for n in range(P.height() + 2):
            assert derived_colimit(F, n) == simplicial_homology(K, n)


def test_normal_form_contract_holds_on_random_matrices():
    rng = random.Random(4242)
    small = 0
    for _ in range(1000):
        M = random_matrix(rng)
        dec = snf(M)
        assert dec.U * M * dec.V == dec.D
        assert is_unimodular(dec.U)
        assert is_unimodular(dec.V)
        diag = [dec.D.entries[i][i] for i in range(min(M.rows, M.cols))]
        for i in range(M.rows):
            for j in range(M.cols):
                if i != j:
                    assert dec.D.entries[i][j] == 0
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a != 0 and b % a == 0
        if M.rows <= 4 and M.cols <= 4:
            small += 1
            assert dec.invariant_factors() == invariant_factors_by_minors(M)
    assert small >= 100
