import itertools
import random
import re
import tracemalloc

import pytest

from posetcoh.complexes import simplicial_homology
from posetcoh.cuts import enumerate_cuts
from posetcoh.poset import (
    IntersectionPoset,
    Poset,
    PosetError,
    bounds,
    chains,
    components,
    core,
    induced_subposet,
    parse_poset,
    random_poset,
    serialize_poset,
    subset_name,
)

import builders
from oracles import (
    components_by_sets,
    core_by_sets,
    down_sets_by_reachability,
    intersection_closure_by_full_sweep,
    posets_up_to_isomorphism,
    random_poset_by_document,
)


def names_of(P, subset):
    return {P.elements[i] for i in subset}


def seeded_posets(count=300):
    """`count` reproducible random posets of 1 to 16 elements."""
    rng = random.Random(36)
    return [
        random_poset(rng.randint(1, 16), rng.uniform(0.2, 0.7), seed=3600 + trial)
        for trial in range(count)
    ]


def test_parse_square():
    P = builders.square()
    assert len(P) == 4
    i = P.index
    assert P.leq(i["p2"], i["p0"]) and P.leq(i["p3"], i["p1"])
    assert not P.leq(i["p0"], i["p1"]) and not P.leq(i["p2"], i["p3"])
    assert P.height() == 1
    assert len(P.covers()) == 4


def test_leq_range_checks_both_indices():
    # P.leq(2, -1) used to read the last element's down-set and return True,
    # and P.leq(True, 1) read True as element 1
    P = builders.vee()
    assert len(P) == 3
    cases = ((2, -1, -1), (-1, 2, -1), (3, 0, 3), (0, 3, 3), (True, 1, True), (1, False, False))
    for i, j, bad in cases:
        with pytest.raises(PosetError, match="^element index %r out of range$" % bad):
            P.leq(i, j)
    assert all(P.leq(i, i) is True for i in range(3))


def test_parse_singleton():
    P = builders.point()
    assert P.elements == ("a",)
    assert P.leq(0, 0)
    assert P.height() == 0


def test_parse_takes_closure():
    P = parse_poset({"elements": ["a", "b", "c"], "relations": [["a", "b"], ["b", "c"]]})
    assert P.leq(P.index["a"], P.index["c"])
    assert len(P.covers()) == 2


def test_parse_errors():
    with pytest.raises(PosetError, match="antisymmetry.*'a'.*'b'|antisymmetry.*'b'.*'a'"):
        parse_poset({"elements": ["a", "b"], "relations": [["a", "b"], ["b", "a"]]})
    with pytest.raises(PosetError, match="duplicate.*'a'"):
        parse_poset({"elements": ["a", "a"], "relations": []})
    with pytest.raises(PosetError, match="duplicate element name: 'a'"):
        parse_poset({"elements": ["a", "a", "b"], "relations": [["a", "b"]]})
    with pytest.raises(PosetError, match="unknown.*'z'"):
        parse_poset({"elements": ["a"], "relations": [["a", "z"]]})
    with pytest.raises(PosetError):
        parse_poset({"elements": [], "relations": []})


def test_poset_checks_the_order_axioms_of_its_down_sets():
    with pytest.raises(PosetError, match=r"antisymmetry .* 'a' and 'b' \(relation cycle\)"):
        Poset(["a", "b"], [{0, 1}, {0, 1}])
    with pytest.raises(PosetError, match="transitivity violated below 'c' at 'b'"):
        Poset(["a", "b", "c"], [{0}, {0, 1}, {1, 2}])
    with pytest.raises(PosetError, match="invalid down-set for 'b'"):
        Poset(["a", "b"], [{0}, {0}])
    with pytest.raises(PosetError, match="duplicate element name: 'a'"):
        Poset(["a", "a"], [{0}, {1}])
    # a member equal to an index but not an int: a float used to raise a
    # bare TypeError, and True was kept in the down-set
    with pytest.raises(PosetError, match="down-set member 1.0 of 'b' is not an element index"):
        Poset(["a", "b"], [{0}, {0, 1.0}])
    with pytest.raises(PosetError, match="down-set member True of 'b' is not an element index"):
        Poset(["a", "b"], [{0}, {0, True}])
    # a down-set that is neither an int mask nor a collection used to raise
    # a bare TypeError ("'bool' object is not iterable")
    for bad in (True, False, 1.0, None):
        with pytest.raises(
            PosetError, match=r"^down-set %r of 'a' is neither a mask nor a collection of indices$" % bad
        ):
            Poset(["a"], [bad])
    # a down-set given as a mask is checked as one given as indices
    with pytest.raises(PosetError, match=r"antisymmetry .* 'a' and 'b' \(relation cycle\)"):
        Poset(["a", "b"], [0b11, 0b11])
    with pytest.raises(PosetError, match="transitivity violated below 'c' at 'b'"):
        Poset(["a", "b", "c"], [0b001, 0b011, 0b110])
    with pytest.raises(PosetError, match="down-set count mismatch"):
        Poset(["a", "b"], [0b01])


def test_a_poset_from_masks_is_the_poset_from_index_sets():
    posets = [P for n in range(1, 6) for P in posets_up_to_isomorphism(n)] + seeded_posets(60)
    for P in posets:
        masks = [sum(1 << j for j in s) for s in P.down]
        from_masks, from_sets = Poset(P.elements, masks), Poset(P.elements, P.down)
        assert from_masks == from_sets == P and hash(from_masks) == hash(from_sets)
        assert from_masks._down == P._down and from_masks._up == P._up
        # the frozenset views are built on first read, and then kept
        assert from_masks._down_sets is None and from_masks._up_sets is None
        assert from_masks.down == from_sets.down and from_masks.up == from_sets.up
        assert from_masks.down is from_masks.down and from_masks.up is from_masks.up
    # a mask with a bit past the last element, or a negative one, is no down-set
    for bad in ([0b01, 0b111], [0b01, -1], [0b01, -0b11], [0b01, {0, 1, 2}], [0b01, {-1, 1}]):
        with pytest.raises(PosetError, match="invalid down-set for 'b'"):
            Poset(["a", "b"], bad)


def test_an_index_far_past_the_elements_is_refused_before_its_bit_is_built():
    # 1 << 10**8 is a 12.5 MB int, so the index is range-checked before any bit is set
    tracemalloc.start()
    try:
        with pytest.raises(PosetError, match="invalid down-set for 'a'"):
            Poset(["a"], [[0, 10**8]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def relation_lists(count=300):
    """`count` seeded (elements, relations) pairs for `parse_poset`.

    The element list is out of name order.  Relations hold self-loops,
    repeated pairs and pairs implied by others.  A third of the lists draw
    pairs in either direction, and more than a third of those close a
    cycle; the rest follow a hidden linear order, so they describe a poset.
    """
    rng = random.Random(43)
    lists = []
    for trial in range(count):
        n = rng.randint(1, 9)
        elements = ["e%d" % i for i in range(n)]
        rng.shuffle(elements)
        order = elements[:]
        rng.shuffle(order)
        relations = []
        for _ in range(rng.randint(0, 2 * n)):
            a, b = sorted(rng.choices(range(n), k=2))
            if trial % 3 == 0 and rng.random() < 0.5:
                a, b = b, a
            relations.append([order[a], order[b]])
        relations += rng.sample(relations, len(relations) // 3)
        lists.append((elements, relations))
    return lists


def test_parse_poset_closes_relations_as_the_reachability_oracle():
    cycles = 0
    for elements, relations in relation_lists():
        below = down_sets_by_reachability(elements, relations)
        index = {name: i for i, name in enumerate(elements)}
        down_sets = [{index[x] for x in below[name]} for name in elements]
        in_cycle = {(a, b) for a in elements for b in below[a] if b != a and a in below[b]}
        doc = {"elements": elements, "relations": relations}
        if not in_cycle:
            P = parse_poset(doc)
            assert P == Poset(elements, down_sets)
            assert P.down == tuple(frozenset(s) for s in down_sets)
            continue
        # both sides refuse the cycle and name two of its elements
        cycles += 1
        for build in (lambda: parse_poset(doc), lambda: Poset(elements, down_sets)):
            with pytest.raises(PosetError, match="antisymmetry violated by") as refused:
                build()
            assert tuple(re.findall(r"'(e\d+)'", str(refused.value))) in in_cycle
    assert 30 <= cycles <= 100, cycles


def test_bounds_square():
    P = builders.square()
    i = P.index
    lower = bounds(P, [i["p0"], i["p1"]], "lower")
    assert lower == frozenset({i["p2"], i["p3"]})
    assert names_of(P, lower) == {"p2", "p3"}
    upper = bounds(P, [i["p2"], i["p3"]], "upper")
    assert names_of(P, upper) == {"p0", "p1"}


def test_bounds_edge_cases():
    P = builders.vee()
    assert names_of(P, bounds(P, [], "lower")) == {"p0", "p1", "p2"}
    assert names_of(P, bounds(P, [], "upper")) == {"p0", "p1", "p2"}
    for x in range(len(P)):
        assert x in bounds(P, [x], "lower")
    with pytest.raises(PosetError):
        bounds(P, [0], "sideways")
    # every index is range-checked, whatever iterable carries it
    with pytest.raises(PosetError, match="subset index 3 out of range"):
        bounds(P, [0, 3], "upper")
    with pytest.raises(PosetError, match="subset index 3 out of range"):
        bounds(P, frozenset({3}), "lower")
    with pytest.raises(PosetError, match="subset index -1 out of range"):
        bounds(P, (-1,), "lower")
    assert bounds(P, frozenset({1, 2}), "upper") == bounds(P, [1, 2], "upper")


def test_bounds_galois_idempotence():
    rng = random.Random(17)
    for trial in range(40):
        P = random_poset(rng.randint(1, 8), rng.random(), seed=1000 + trial)
        members = [i for i in range(len(P)) if rng.random() < 0.5]
        lower = bounds(P, members, "lower")
        again = bounds(P, bounds(P, lower, "upper"), "lower")
        assert again == lower


def test_intersection_poset_square():
    P = builders.square()
    U = IntersectionPoset(P)
    assert len(U) == 5
    member_sets = {subset_name(P, node) for node in U.nodes}
    assert member_sets == {"{p2}", "{p3}", "{p2,p3}", "{p0,p2,p3}", "{p1,p2,p3}"}
    # the meet of the two tops is not principal
    w = U.nodes.index(frozenset({P.index["p2"], P.index["p3"]}))
    assert w not in set(U.lambda_map)


def test_intersection_poset_sphere():
    P = builders.sphere()
    U = IntersectionPoset(P)
    assert len(U) == 8
    names = {subset_name(P, node) for node in U.nodes}
    assert "{2,3,4,5}" in names and "{4,5}" in names


def test_intersection_poset_zigzag_is_isomorphic_to_base():
    P = builders.zigzag()
    U = IntersectionPoset(P)
    assert len(U) == len(P)
    assert sorted(U.lambda_map) == list(range(len(P)))


def test_intersection_poset_witnesses_generate():
    for P in (builders.square(), builders.sphere(), builders.pass8()):
        U = IntersectionPoset(P)
        for node, witness in zip(U.nodes, U.witnesses):
            assert bounds(P, witness, "lower") == node


def test_intersection_poset_matches_brute_force():
    rng = random.Random(3)
    for trial in range(25):
        P = random_poset(rng.randint(1, 7), rng.random(), seed=2000 + trial)
        U = IntersectionPoset(P)
        node_sets = set(U.nodes)
        brute = set()
        n = len(P)
        for mask in range(1, 1 << n):
            X = [i for i in range(n) if mask >> i & 1]
            lower = bounds(P, X, "lower")
            if lower:
                brute.add(lower)
        assert node_sets == brute


def assert_ordered_by_inclusion(U, P, nodes):
    # the intersection poset's order is inclusion of the oracle's nodes and
    # its elements are their canonical names
    assert U.poset.down == tuple(
        frozenset(k for k, t in enumerate(nodes) if t <= s) for s in nodes
    )
    assert U.poset.elements == tuple(
        "{" + ",".join(sorted(P.elements[i] for i in s)) + "}" for s in nodes
    )


def assert_cuts_follow_the_nodes(P, nodes, witnesses):
    # `enumerate_cuts` reads the closure without building the node poset
    assert [(cut.lower, cut.witness, cut.upper) for cut in enumerate_cuts(P)] == [
        (node, witness, bounds(P, node, "upper")) for node, witness in zip(nodes, witnesses)
    ]


def test_intersection_closure_matches_the_full_sweep():
    # only the sets new in the last round are met after the first round;
    # nodes, their order and the witnesses `cuts` prints stay those of the
    # full pairwise sweep, in the intersection poset and in the cuts
    rng = random.Random(61)
    for trial in range(220):
        P = random_poset(rng.randint(1, 14), rng.uniform(0.2, 0.7), seed=6100 + trial)
        U = IntersectionPoset(P)
        nodes, witnesses = intersection_closure_by_full_sweep(P)
        assert list(U.nodes) == nodes
        assert list(U.witnesses) == witnesses
        assert U.lambda_map == tuple(nodes.index(P.down[i]) for i in range(len(P)))
        assert_ordered_by_inclusion(U, P, nodes)
        assert_cuts_follow_the_nodes(P, nodes, witnesses)
    # height-one posets on 7 + 7 elements: their later rounds add sets, and
    # some sets are reached by pairs with different witnesses
    for trial in range(70):
        pick = random.Random(6200 + trial)
        bottoms, tops = ["b%d" % i for i in range(7)], ["t%d" % j for j in range(7)]
        relations = [[b, t] for t in tops for b in bottoms if pick.random() < 0.7]
        P = parse_poset({"elements": bottoms + tops, "relations": relations})
        nodes, witnesses = intersection_closure_by_full_sweep(P)
        U = IntersectionPoset(P)
        assert (list(U.nodes), list(U.witnesses)) == (nodes, witnesses)
        assert_ordered_by_inclusion(U, P, nodes)
        assert_cuts_follow_the_nodes(P, nodes, witnesses)
    # the closure runs on bit masks; posets of up to 16 elements
    for P in seeded_posets():
        U = IntersectionPoset(P)
        nodes, witnesses = intersection_closure_by_full_sweep(P)
        assert (list(U.nodes), list(U.witnesses)) == (nodes, witnesses)
        assert_ordered_by_inclusion(U, P, nodes)
        assert_cuts_follow_the_nodes(P, nodes, witnesses)
    # element lists out of name order, shuffled names and unpadded x9 < x10:
    # the node order is read off name ranks, not element indices
    rng = random.Random(63)
    for trial in range(120):
        P = random_poset(rng.randint(2, 14), rng.uniform(0.2, 0.7), seed=6300 + trial)
        names = ["x%d" % i for i in range(len(P))]
        if trial % 2:
            rng.shuffle(names)
        P = Poset(names, P.down)
        U = IntersectionPoset(P)
        nodes, witnesses = intersection_closure_by_full_sweep(P)
        assert (list(U.nodes), list(U.witnesses)) == (nodes, witnesses)
        assert_ordered_by_inclusion(U, P, nodes)
        assert_cuts_follow_the_nodes(P, nodes, witnesses)


def test_chains_square():
    P = builders.square()
    one = chains(P, 1)
    assert len(one) == 4
    named = {">".join(P.elements[i] for i in c) for c in one}
    assert named == {"p0>p2", "p0>p3", "p1>p2", "p1>p3"}
    assert len(chains(P, 0)) == 4
    assert len(chains(P, 2)) == 0


def test_chains_edge_cases():
    antichain = parse_poset({"elements": ["a", "b"], "relations": []})
    assert len(chains(antichain, 1)) == 0
    P = builders.pass8()
    assert len(chains(P, P.height())) > 0
    assert len(chains(P, P.height() + 1)) == 0
    assert list(chains(P, 0)) == [(i,) for i in range(len(P))]
    # a degree that is not an int is refused, not read as one: True used to
    # give the degree-1 chains, and 1.0 raised a bare TypeError
    for degree in (-1, True, 1.0, "1", None):
        with pytest.raises(PosetError, match="chain degree %s must be a nonnegative int"
                           % re.escape(repr(degree))):
            chains(P, degree)


def test_chains_are_every_strict_chain_in_lexicographic_order():
    rng = random.Random(29)
    for trial in range(30):
        P = random_poset(rng.randint(1, 7), rng.random(), seed=2900 + trial)
        degrees = list(range(P.height() + 2))
        rng.shuffle(degrees)  # a later degree may be asked for before an earlier one
        for n in degrees:
            expected = [
                c
                for c in itertools.permutations(range(len(P)), n + 1)
                if all(P.leq(b, a) for a, b in zip(c, c[1:]))
            ]
            assert list(chains(P, n)) == expected


def test_components():
    assert components(builders.zigzag()) == [[0, 1, 2, 3]]
    P = parse_poset(
        {"elements": ["a", "b", "c", "d"], "relations": [["a", "c"], ["b", "d"]]}
    )
    assert components(P) == [[0, 2], [1, 3]]


def test_components_and_core_within_members_match_the_induced_subposet():
    rng = random.Random(67)
    for trial in range(60):
        P = random_poset(rng.randint(1, 12), rng.uniform(0.2, 0.7), seed=6700 + trial)
        members = {i for i in range(len(P)) if rng.random() < 0.7} or {0}
        Q = induced_subposet(P, members)
        named = [[P.elements[i] for i in comp] for comp in components(P, members)]
        assert named == [[Q.elements[i] for i in comp] for comp in components(Q)]
        # the two index spaces differ, so the cores are compared by name
        assert [P.elements[i] for i in core(P, members)] == [Q.elements[i] for i in core(Q)]
        assert set(core(P, members)) <= members
    P = builders.sphere()
    assert core(P, range(len(P))) == list(range(len(P)))


def test_mask_kernels_match_the_set_kernels():
    # the same lists in the same order as the frozenset walks, on the whole
    # poset, every cut's upper half and every up-link, over every poset of
    # up to six elements and seeded ones of up to sixteen
    posets = [P for n in range(1, 7) for P in posets_up_to_isomorphism(n)]
    checked = 0
    for P in posets + seeded_posets():
        member_sets = [None] + [cut.upper for cut in enumerate_cuts(P)]
        member_sets += [P.up[m] - {m} for m in range(len(P))]
        for members in member_sets:
            assert components(P, members) == components_by_sets(P, members)
            assert core(P, members) == core_by_sets(P, members)
            checked += 1
    assert len(posets) == 405 and checked > 10000


def test_the_order_table_is_the_down_and_up_sets():
    # the constructor's masks hold the frozen sets bit for bit, and `covers`
    # and the node poset read them to the frozenset definitions
    posets = [P for n in range(1, 6) for P in posets_up_to_isomorphism(n)]
    posets += [build() for build in builders.BUILT]
    for P in posets:
        n = len(P)
        assert P._down == tuple(sum(1 << j for j in s) for s in P.down)
        assert P.up == tuple(frozenset(i for i in range(n) if j in P.down[i]) for j in range(n))
        assert P._up == tuple(sum(1 << j for j in s) for s in P.up)
        assert P.covers() == tuple(sorted(
            ((i, j) for j in range(n) for i in P.down[j] - {j}
             if not any(i in P.down[k] for k in P.down[j] - {i, j})),
            key=lambda pair: (P.elements[pair[0]], P.elements[pair[1]]),
        ))
        U = IntersectionPoset(P)
        assert U.poset.down == tuple(
            frozenset(k for k, t in enumerate(U.nodes) if t <= s) for s in U.nodes
        )
    assert len(posets) == 1 + 2 + 5 + 16 + 63 + len(builders.BUILT)


def test_chains_deterministic_order():
    P = builders.sphere()
    assert chains(P, 1) == chains(P, 1)
    listed = list(chains(P, 1))
    assert listed == sorted(listed)
    # each degree is enumerated once per poset; a fresh, equal poset
    # enumerates the same chains and still compares and hashes by value
    assert chains(P, 2) is chains(P, 2)
    fresh = builders.sphere()
    assert fresh == P and hash(fresh) == hash(P)
    for n in range(P.height() + 2):
        assert chains(fresh, n) == chains(P, n)


def test_core_of_a_poset_with_a_least_element_is_a_point():
    # one pass in index order strips c and d and leaves a and b above z,
    # where each of them has become a beat point
    P = parse_poset(
        {
            "elements": ["a", "b", "c", "d", "z"],
            "relations": [["c", "a"], ["d", "a"], ["c", "b"], ["d", "b"],
                          ["z", "c"], ["z", "d"]],
        }
    )
    assert len(core(P)) == 1
    assert len(core(builders.vee())) == 1


def test_minimal_models_are_their_own_cores():
    for P in (builders.point(), builders.sphere(), builders.crown3()):
        assert core(P) == list(range(len(P)))


def test_core_keeps_the_components():
    # a chain, a sphere and a 4-cycle with a tail, side by side
    sphere = builders.SPHERE_DOC
    doc = {
        "elements": ["u0", "u1", "u2"] + sphere["elements"] + ["p0", "p1", "p2", "p3", "q"],
        "relations": [["u0", "u1"], ["u1", "u2"]] + sphere["relations"]
        + [["p0", "p2"], ["p0", "p3"], ["p1", "p2"], ["p1", "p3"], ["p3", "q"]],
    }
    P = parse_poset(doc)
    kept = core(P)
    assert len(components(P)) == len(components(P, kept)) == 3
    assert len(kept) == 1 + 6 + 4


def test_core_has_the_homology_of_the_poset():
    rng = random.Random(79)
    for trial in range(20):
        P = random_poset(rng.randint(1, 9), rng.random(), seed=5500 + trial)
        C = induced_subposet(P, core(P))
        assert core(C) == list(range(len(C)))
        for n in range(P.height() + 2):
            assert simplicial_homology([chains(C, k) for k in range(C.height() + 1)], n) == (
                simplicial_homology([chains(P, k) for k in range(P.height() + 1)], n)
            )


def test_induced_subposet():
    P = builders.sphere()
    top = induced_subposet(P, [P.index["0"], P.index["1"]])
    assert len(top.covers()) == 0
    assert induced_subposet(P, range(len(P))) == P
    with pytest.raises(PosetError):
        induced_subposet(P, [])


def test_induced_upper_section_is_tree():
    P = builders.pass8()
    upper = bounds(P, [P.index["5"], P.index["6"]], "upper")
    assert names_of(P, upper) == {"0", "1", "2", "3"}
    T = induced_subposet(P, upper)
    assert len(T.covers()) == len(T) - 1  # connected and acyclic


def test_random_poset_contract():
    assert len(random_poset(1, 0.5, seed=9)) == 1
    antichain = random_poset(6, 0.0, seed=9)
    assert antichain.height() == 0
    assert random_poset(7, 0.4, seed=42) == random_poset(7, 0.4, seed=42)
    assert random_poset(7, 0.4, seed=42) != random_poset(7, 0.4, seed=43)
    for args, named in [
        ((True, 0.5, 1), "True"),
        ((2.5, 0.5, 1), "2.5"),
        (("3", 0.5, 1), "'3'"),
        ((3, "0.5", 1), "'0.5'"),
        ((3, True, 1), "True"),
    ]:
        with pytest.raises(PosetError, match=re.escape(named)):
            random_poset(*args)


def test_random_poset_matches_the_relation_document_route():
    # the order closed in the draw loop equals the relations of the same
    # draws closed by `parse_poset`
    rng = random.Random(45)
    for trial in range(600):
        n = 1 + trial % 40
        # density 0, then 1, on every size before the random densities
        density = (0, 1)[trial // 40] if trial < 80 else rng.random()
        P = random_poset(n, density, seed=4500 + trial)
        Q = random_poset_by_document(n, density, seed=4500 + trial)
        assert (P.elements, P._down) == (Q.elements, Q._down), (n, density, trial)


def test_strict_monotonicity_of_minimal_opens():
    rng = random.Random(29)
    for trial in range(30):
        P = random_poset(rng.randint(1, 8), rng.random(), seed=3000 + trial)
        for i in range(len(P)):
            for j in range(len(P)):
                if i != j and P.leq(i, j):
                    assert P.down[i] < P.down[j]


def test_serialize_round_trip():
    rng = random.Random(31)
    for trial in range(30):
        P = random_poset(rng.randint(1, 8), rng.random(), seed=4000 + trial)
        doc = serialize_poset(P)
        Q = parse_poset(doc)
        assert set(Q.elements) == set(P.elements)
        for a in P.elements:
            for b in P.elements:
                assert P.leq(P.index[a], P.index[b]) == Q.leq(Q.index[a], Q.index[b])
        assert serialize_poset(Q) == doc


def test_serialize_emits_covers_only():
    P = parse_poset({"elements": ["a", "b", "c"], "relations": [["a", "b"], ["b", "c"], ["a", "c"]]})
    assert serialize_poset(P)["relations"] == [["a", "b"], ["b", "c"]]
