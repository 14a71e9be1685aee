import random

from posetcoh import cuts as cuts_module
from posetcoh import poset
from posetcoh.complexes import acyclicity_check, order_complex_homology
from posetcoh.cuts import criterion, enumerate_cuts, principal_meets
from posetcoh.groups import CanonicalGroup
from posetcoh.poset import (
    IntersectionPoset,
    bounds,
    chains,
    components,
    core,
    induced_subposet,
    parse_poset,
    random_poset,
    subset_name,
)

import builders
from oracles import brute_force_cuts, criterion_by_public_route, posets_up_to_isomorphism


def mask_sweep_posets():
    """The census up to six elements, the built posets, 300 random posets of
    4 to 16 elements and one of 70, whose masks run past 64 bits."""
    rng = random.Random(39)
    posets = [P for n in range(1, 7) for P in posets_up_to_isomorphism(n)]
    posets += [build() for build in builders.BUILT]
    posets += [
        random_poset(rng.randint(4, 16), rng.uniform(0.2, 0.6), seed=3900 + k) for k in range(300)
    ]
    posets.append(random_poset(70, 0.15, 70))
    return posets


def cut_names(P, cuts):
    return {(subset_name(P, c.lower), subset_name(P, c.upper)) for c in cuts}


def test_square_cuts():
    P = builders.square()
    cuts = enumerate_cuts(P)
    assert len(cuts) == 5
    names = cut_names(P, cuts)
    assert ("{p2,p3}", "{p0,p1}") in names
    assert ("{p2}", "{p0,p1,p2}") in names
    assert ("{p0,p2,p3}", "{p0}") in names


def test_singleton_cut():
    P = builders.point()
    assert cut_names(P, enumerate_cuts(P)) == {("{a}", "{a}")}


def test_fence_cut_pairings():
    P = builders.pass8()
    names = cut_names(P, enumerate_cuts(P))
    assert ("{6}", "{0,1,2,3,4,6}") in names
    assert ("{3,5,6,7}", "{0,1,3}") in names
    assert ("{5,6}", "{0,1,2,3}") in names
    assert ("{6,7}", "{0,1,3,4}") in names


def test_cut_mutual_closure_and_witness():
    rng = random.Random(41)
    for trial in range(12):
        P = random_poset(rng.randint(1, 7), rng.random(), seed=5000 + trial)
        for cut in enumerate_cuts(P):
            assert bounds(P, cut.upper, "lower") == cut.lower
            assert bounds(P, cut.lower, "upper") == cut.upper
            assert bounds(P, cut.witness, "lower") == cut.lower


def test_enumeration_matches_brute_force():
    rng = random.Random(43)
    for trial in range(20):
        P = random_poset(rng.randint(1, 7), rng.random(), seed=5100 + trial)
        enumerated = {(c.lower, c.upper) for c in enumerate_cuts(P)}
        assert enumerated == brute_force_cuts(P)


def test_upper_section_verdicts():
    P = builders.cells9()
    bad = [c for c in enumerate_cuts(P) if subset_name(P, c.upper) == "{0,1}"]
    assert len(bad) == 1
    verdict = acyclicity_check(P, members=bad[0].upper)
    assert not verdict
    assert verdict.degree == 0 and verdict.group == CanonicalGroup(2)
    Q = builders.pass8()
    tree = [c for c in enumerate_cuts(Q) if subset_name(Q, c.lower) == "{5,6}"]
    assert acyclicity_check(Q, members=tree[0].upper)


def test_reference_poset_verdicts():
    assert criterion(builders.zigzag()).verdict == "PASS"
    assert criterion(builders.pass8()).verdict == "PASS"
    assert criterion(builders.pass7()).verdict == "PASS"
    P = builders.cells9()
    report = criterion(P)
    assert report.verdict == "FAIL"
    assert not report
    found = {
        subset_name(P, cut.upper): (degree, group)
        for cut, degree, group in report.failures
    }
    assert found["{0,1}"] == (0, CanonicalGroup(2))


def test_shortcut_labels():
    assert criterion(builders.zigzag()).shortcut == "semilattice"
    two_cones = parse_poset(
        {"elements": ["a", "b", "c", "d"], "relations": [["a", "b"], ["c", "d"]]}
    )
    fast = criterion(two_cones)
    assert fast.verdict == "PASS"
    assert fast.shortcut == "directed-components"
    assert fast.cuts_examined == 0
    full = criterion(two_cones, shortcuts=False)
    assert full.verdict == "PASS"
    assert full.shortcut == "none"
    assert full.cuts_examined == 4
    assert criterion(builders.pass8()).shortcut == "least-element"


def test_a_cut_is_a_cone_exactly_when_its_lower_half_is_principal():
    # L = U^- and U = L^+: a least element x of U gives L = ↓x, and L = ↓x
    # gives U = ↑x, whose least element is x
    for n in range(1, 7):
        for P in posets_up_to_isomorphism(n):
            principal = set(P.down)
            for cut in enumerate_cuts(P):
                least = any(cut.upper <= P.up[i] for i in cut.upper)
                assert least == (cut.lower in principal), (P.elements, cut)


def test_criterion_sweeps_exactly_the_cuts_that_are_not_cones(monkeypatch):
    # with shortcuts on, the cut loop leaves the principal cuts to the
    # least-element test and sweeps the rest in order; with them off it
    # sweeps every cut.  Each ↓x is a cut, so the label names a path that ran
    swept = []
    check = cuts_module.acyclicity_check

    def recording(P, members=None):
        # the sweep passes each upper half as a bit mask, bit j for element j
        swept.append(frozenset(j for j in range(len(P)) if members >> j & 1))
        return check(P, members)

    monkeypatch.setattr(cuts_module, "acyclicity_check", recording)

    def reaches_the_cuts(P):
        cuts = enumerate_cuts(P)
        principal = set(P.down)
        swept.clear()
        report = criterion(P)
        if report.cuts_examined:
            assert (report.shortcut, report.cuts_examined) == ("least-element", len(cuts))
            assert any(cut.lower in principal for cut in cuts)
            assert swept == [cut.upper for cut in cuts if cut.lower not in principal]
        else:
            assert swept == []
        swept.clear()
        full = criterion(P, shortcuts=False)
        assert swept == [cut.upper for cut in cuts]
        assert [(c.lower, d, g) for c, d, g in report.failures] == [
            (c.lower, d, g) for c, d, g in full.failures
        ]
        return report.cuts_examined > 0

    census = [P for n in range(1, 7) for P in posets_up_to_isomorphism(n)]
    assert sum(map(reaches_the_cuts, census)) == 95
    rng = random.Random(97)
    drawn = [
        random_poset(rng.randint(4, 12), rng.uniform(0.2, 0.6), seed=9700 + k) for k in range(300)
    ]
    assert sum(map(reaches_the_cuts, drawn)) == 81


def test_criterion_on_masks_matches_the_public_route():
    # `criterion` keeps each cut as bit masks from the meet closure to the
    # homology test and builds a `Cut` only for a failure; the reference
    # runs `enumerate_cuts` and tests each upper half as a frozenset
    failing = 0
    posets = mask_sweep_posets()
    for P in posets:
        for shortcuts in (True, False):
            report = criterion(P, shortcuts)
            failures = [(c.lower, c.upper, c.witness, d, g) for c, d, g in report.failures]
            got = (report.verdict, report.cuts_examined, failures, report.shortcut)
            assert got == criterion_by_public_route(P, shortcuts), (P, shortcuts)
            failing += bool(failures)
    assert len(posets) == 405 + len(builders.BUILT) + 301 and failing > 300
    big = posets[-1]
    assert max(max(cut.upper) for cut in enumerate_cuts(big)) >= 64
    assert not criterion(big, False)


def test_mask_forms_of_the_kernels_convert_to_the_public_ones():
    # on the whole poset and on every cut's upper half, given as a mask
    for P in mask_sweep_posets():
        for members in [None] + [cut.upper for cut in enumerate_cuts(P)]:
            mask = poset._mask(P, members)
            parts = poset._components(P, mask)
            assert [poset._indices(part) for part in parts] == components(P, members)
            assert poset._indices(poset._core(P, mask)) == core(P, members)


def test_zigzag_full_recheck():
    report = criterion(builders.zigzag(), shortcuts=False)
    assert report.verdict == "PASS"
    assert report.cuts_examined == 4
    assert report.shortcut == "none"


def test_shortcut_and_full_agree():
    rng = random.Random(59)
    for trial in range(25):
        P = random_poset(rng.randint(1, 7), rng.random(), seed=5200 + trial)
        fast = criterion(P)
        slow = criterion(P, shortcuts=False)
        assert fast.verdict == slow.verdict

        def key(fails):
            return {(c.lower, d, g.rank, g.torsion) for c, d, g in fails}

        assert key(fast.failures) == key(slow.failures)


def test_directed_and_semilattice_posets_pass():
    rng = random.Random(61)
    for trial in range(10):
        P = random_poset(rng.randint(1, 6), rng.random(), seed=5300 + trial)
        doc = {
            "elements": list(P.elements) + ["top"],
            "relations": [[name, "top"] for name in P.elements],
        }
        coned = parse_poset(doc)
        report = criterion(coned)
        assert report.verdict == "PASS"
        assert report.shortcut == "directed-components"
        assert criterion(coned, shortcuts=False).verdict == "PASS"


def test_principal_meets_is_a_node_poset_no_larger_than_the_base():
    rng = random.Random(89)
    principal = 0
    for trial in range(300):
        P = random_poset(rng.randint(1, 9), rng.random(), seed=5400 + trial)
        certified = principal_meets(P)
        assert certified == (len(IntersectionPoset(P)) == len(P)), trial
        if certified:
            principal += 1
            assert criterion(P, shortcuts=False).verdict == "PASS", trial
    assert 200 <= principal < 300


def full_sweep(P, cut):
    """(acyclic, first failing degree, group) over every chain of the upper
    section, with no core and no shortcut."""
    Q = induced_subposet(P, cut.upper)
    for n, h in order_complex_homology(lambda k: chains(Q, k), Q.height()):
        if h != (CanonicalGroup(1) if n == 0 else CanonicalGroup(0)):
            return False, n, h
    return True, None, None


def test_core_sweep_matches_the_full_sweep():
    rng = random.Random(73)
    failing_posets = 0
    for trial in range(40):
        P = random_poset(rng.randint(8, 12), rng.uniform(0.3, 0.5), seed=5400 + trial)
        failing = False
        for cut in enumerate_cuts(P):
            verdict = acyclicity_check(P, cut.upper)
            assert (verdict.acyclic, verdict.degree, verdict.group) == full_sweep(P, cut)
            failing |= not verdict
        failing_posets += failing
    assert failing_posets >= 5


def test_full_recheck_of_a_thirty_element_poset():
    # its upper sections have 493,089 chains in all, its cores 101
    P = random_poset(30, 0.4, seed=30)
    report = criterion(P, shortcuts=False)
    assert (report.verdict, report.cuts_examined, report.shortcut) == ("FAIL", 42, "none")
    found = [(degree, group) for _, degree, group in report.failures]
    Z, Z2 = CanonicalGroup(1), CanonicalGroup(2)
    assert found == [(2, Z), (2, Z), (1, Z), (0, Z2), (0, Z2)]
    for cut, degree, group in report.failures:
        assert full_sweep(P, cut) == (False, degree, group)


def test_cut_verdicts_match_those_of_the_built_upper_sections():
    # each cut is decided on its indices inside P; building the upper
    # section as a poset of its own must give the same answer
    rng = random.Random(83)
    for trial in range(40):
        P = random_poset(rng.randint(6, 12), rng.uniform(0.3, 0.6), seed=8300 + trial)
        for cut in enumerate_cuts(P):
            got = acyclicity_check(P, cut.upper)
            want = acyclicity_check(induced_subposet(P, cut.upper))
            assert (got.acyclic, got.degree, got.group, got.via) == (
                want.acyclic, want.degree, want.group, want.via
            )


def test_criterion_builds_no_poset_per_upper_section(monkeypatch):
    # one Poset per core of two or more elements and none for the
    # intersection poset; a poset built for every upper section or every
    # one-point core would exceed the count
    P = random_poset(14, 0.4, seed=14)
    larger_cores = sum(len(core(P, cut.upper)) >= 2 for cut in enumerate_cuts(P))
    built = []
    init = poset.Poset.__init__

    def counting(self, elements, down):
        built.append(len(down))
        init(self, elements, down)

    monkeypatch.setattr(poset.Poset, "__init__", counting)
    report = criterion(P, shortcuts=False)
    assert report.cuts_examined == 15
    assert len(built) <= larger_cores < report.cuts_examined


def test_cuts_and_criterion_build_no_intersection_poset(monkeypatch):
    # the cuts read the meet closure alone: the named and ordered node
    # poset is for presheaves
    posets = [builders.square(), builders.zigzag(), random_poset(14, 0.4, seed=14)]

    def answers(P):
        cuts = [(cut.lower, cut.upper, cut.witness) for cut in enumerate_cuts(P)]
        reports = [criterion(P, shortcuts=shortcuts) for shortcuts in (True, False)]
        return cuts, [
            (r.verdict, r.cuts_examined, r.shortcut, [(c.lower, n, g) for c, n, g in r.failures])
            for r in reports
        ]

    want = [answers(P) for P in posets]

    def refuse(self, base):
        raise AssertionError("an intersection poset was built")

    monkeypatch.setattr(poset.IntersectionPoset, "__init__", refuse)
    assert [answers(P) for P in posets] == want


def swept_on_the_built_core(P, members):
    """(acyclic, degree, group, via) with the core built as a poset and
    swept, a one-point core too; the components test comes first, as in
    acyclicity_check."""
    members = frozenset(members)
    parts = components(P, members)
    if len(parts) > 1:
        return False, 0, CanonicalGroup(len(parts)), "components"
    Q = induced_subposet(P, core(P, members))
    for n, h in order_complex_homology(lambda k: chains(Q, k), Q.height()):
        if h != (CanonicalGroup(1) if n == 0 else CanonicalGroup(0)):
            return False, n, h, "homology"
    return True, None, None, "homology"


def test_one_point_cores_read_off_match_the_sweep_of_the_built_core():
    chain_posets = [
        parse_poset({"elements": names, "relations": [list(p) for p in zip(names, names[1:])]})
        for names in (["c%d" % i for i in range(n)] for n in range(1, 6))
    ]
    rng = random.Random(89)
    seeded = [
        random_poset(rng.randint(1, 12), rng.uniform(0.2, 0.7), seed=8900 + trial)
        for trial in range(40)
    ]
    single = [builders.point(), random_poset(1, 0.5, seed=0)]
    point_cores = 0
    for P in single + [builders.vee()] + chain_posets + seeded:
        cases = [range(len(P))] + [cut.upper for cut in enumerate_cuts(P)]
        for members in cases:
            got = acyclicity_check(P, members)
            want = swept_on_the_built_core(P, members)
            assert (got.acyclic, got.degree, got.group, got.via) == want
            point_cores += want[3] == "homology" and len(core(P, members)) == 1
    # some cuts end at a one-point core
    assert point_cores > 0


def test_dunce_hat_over_two_bottoms_passes_by_sweeping_one_core():
    # the cut with lower half {b1, b2} has the whole dunce hat above it: a
    # core that only the homology sweep can find acyclic
    hat = builders.DUNCE_HAT_DOC
    P = parse_poset({
        "elements": hat["elements"] + ["b1", "b2"],
        "relations": hat["relations"] + [[b, e] for b in ("b1", "b2") for e in hat["elements"]],
    })
    bottoms = frozenset({P.index["b1"], P.index["b2"]})
    (cut,) = [cut for cut in enumerate_cuts(P) if cut.lower == bottoms]
    assert len(cut.upper) == len(core(P, cut.upper)) == len(hat["elements"])
    assert acyclicity_check(P, cut.upper).via == "homology"
    for shortcuts in (True, False):
        report = criterion(P, shortcuts=shortcuts)
        assert (report.verdict, report.cuts_examined) == ("PASS", 108)
