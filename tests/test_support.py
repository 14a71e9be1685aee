"""The vanishing certificate: degrees outside `cohomology_support` carry no
derived limit, checked against the groups computed from the complexes."""

import random

from posetcoh import diagrams
from posetcoh.cech import random_presheaf, sheaf_presheaf
from posetcoh.diagrams import Diagram, cohomology_support, derived_limit, random_diagram
from posetcoh.groups import CanonicalGroup, GroupHom, PresentedAbGroup
from posetcoh.linalg import IntMatrix
from posetcoh.poset import IntersectionPoset, parse_poset, random_poset, serialize_poset

import builders
from oracles import certificate_check, support_census


def indicator(P, names):
    """Z at the named elements, 0 elsewhere, zero maps: a functor whatever the names."""
    values = [PresentedAbGroup.free(int(name in names)) for name in P.elements]
    maps = {}
    for low, high in P.covers():
        zero = IntMatrix.zero(values[low].generators, values[high].generators)
        maps[(high, low)] = GroupHom(values[high], values[low], zero)
    return Diagram(P, values, maps)


def test_certified_degrees_are_zero_on_random_posets_in_both_modes():
    pairs = certified = 0
    for k in range(520):
        rng = random.Random(k)
        P = random_poset(rng.randint(1, 7), rng.random(), k)
        for ps in (random_presheaf(IntersectionPoset(P), k), sheaf_presheaf(random_diagram(P, k))):
            found, sure, wrong = certificate_check(ps)
            assert wrong == 0, (k, serialize_poset(P))
            pairs += found
            certified += sure
    assert pairs >= 5000
    assert certified >= 2500


def test_certificate_on_every_poset_up_to_five_elements():
    counts = [support_census(n) for n in range(1, 6)]
    assert [c["posets"] for c in counts] == [1, 2, 5, 16, 63]
    assert sum(c["wrong"] for c in counts) == 0
    assert sum(c["certified"] for c in counts) > 1000


def test_projective_plane_link_keeps_its_ext_degree():
    # below the face poset of RP^2 a new bottom m carries Z: its link has
    # H~_1 = Z/2, so H^2 = Hom(Z/2, Z) = 0 and H^3 = Ext(Z/2, Z) = Z/2
    doc = serialize_poset(builders.projective_plane())
    vertices = [name for name in doc["elements"] if len(name) == 1]
    doc["elements"].append("m")
    doc["relations"] += [["m", v] for v in vertices]
    F = indicator(parse_poset(doc), {"m"})
    assert cohomology_support(F.base, F.values) == {2, 3}
    assert F.reduced_complex().homology_group(3) == CanonicalGroup(0, (2,))
    assert derived_limit(F, 3) == CanonicalGroup(0, (2,))
    assert [derived_limit(F, n) for n in (0, 1, 2, 4)] == [CanonicalGroup(0)] * 4


def test_empty_and_disconnected_links():
    # a maximal element's link is empty: H~_(-1) = Z puts it in degree 0
    F = indicator(builders.point(), {"a"})
    assert cohomology_support(F.base, F.values) == {0}
    assert derived_limit(F, 0) == CanonicalGroup(1)
    # the vee's bottom p2 has two points for its link: H~_0 = Z, degree 1
    P = builders.vee()
    F = indicator(P, {"p2"})
    assert cohomology_support(P, F.values) == {1}
    assert [derived_limit(F, n) for n in range(2)] == [CanonicalGroup(0), CanonicalGroup(1)]
    assert F.reduced_complex().homology_group(1) == CanonicalGroup(1)
    tops = indicator(P, {"p0", "p1"})
    assert cohomology_support(P, tops.values) == {0}
    assert derived_limit(tops, 0) == CanonicalGroup(2)
    # a zero value adds nothing, whatever its link
    assert cohomology_support(P, indicator(P, set()).values) == set()


def test_link_degrees_are_kept_on_the_poset(monkeypatch):
    P = builders.projective_plane()
    values = indicator(P, set(P.elements)).values
    calls = []
    sweep = diagrams.subposet_homology
    monkeypatch.setattr(diagrams, "subposet_homology", lambda *a: calls.append(a) or sweep(*a))
    first = cohomology_support(P, values)
    # every element but the ten maximal triangles has a nonempty link
    assert len(calls) == len(P) - 10
    assert cohomology_support(P, values) == first == {0, 1, 2}
    assert len(calls) == len(P) - 10
