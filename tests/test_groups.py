import random
import re

import pytest

from posetcoh import groups
from posetcoh.groups import (
    CanonicalGroup,
    GroupHom,
    PresentedAbGroup,
    canonical_form,
    hom_well_defined,
    homs_equal,
    is_isomorphism,
    is_zero_hom,
)
from posetcoh.linalg import IntMatrix, rank_and_torsion, snf

import oracles


def group(gens, relators):
    cols = [list(c) for c in relators]
    rel = IntMatrix.from_columns(cols, nrows=gens) if cols else None
    return PresentedAbGroup(gens, rel)


def test_canonical_form_basics():
    assert canonical_form(group(1, [(2,)])) == CanonicalGroup(0, (2,))
    assert canonical_form(group(2, [])) == CanonicalGroup(2, ())
    assert canonical_form(group(2, [(2, 6), (4, 8)])) == CanonicalGroup(0, (2, 4))
    assert canonical_form(group(0, [])).is_trivial()


def test_canonical_form_drops_unit_factors():
    assert canonical_form(group(2, [(1, 0)])) == CanonicalGroup(1, ())


def test_canonical_group_validation_and_render():
    with pytest.raises(ValueError):
        CanonicalGroup(0, (1,))
    with pytest.raises(ValueError):
        CanonicalGroup(0, (4, 2))
    assert CanonicalGroup(0, ()).render() == "0"
    assert CanonicalGroup(1, ()).render() == "Z"
    assert CanonicalGroup(3, (2, 4)).render() == "Z^3 ⊕ Z/2 ⊕ Z/4"
    # a rank is checked as torsion orders are, and a bool is refused
    for rank, message in (
        (1.5, "rank is not an integer: 1.5"),
        (True, "rank is not an integer: True"),
        ("1", "rank is not an integer: '1'"),
        (-1, "negative rank: -1"),
    ):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            CanonicalGroup(rank)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            PresentedAbGroup.from_invariants(rank, [2])
    assert CanonicalGroup(2.0) == CanonicalGroup(2)
    assert hash(CanonicalGroup(2.0)) == hash(CanonicalGroup(2))
    assert PresentedAbGroup.from_invariants(2.0, [2]) == PresentedAbGroup.from_invariants(2, [2])
    assert hash(PresentedAbGroup.from_invariants(2.0, [2])) == hash(PresentedAbGroup.from_invariants(2, [2]))
    # a group given no relators equals one given a relator matrix without columns
    assert PresentedAbGroup(2) == PresentedAbGroup(2, IntMatrix.zero(2, 0))
    assert hash(PresentedAbGroup(2)) == hash(PresentedAbGroup(2, IntMatrix.zero(2, 0)))
    # a torsion order that is a bool, not an integer or below 2 is refused
    for order, message in (
        (0, "torsion order must be at least 2: 0"),
        (1, "torsion order must be at least 2: 1"),
        (True, "torsion order must be at least 2: True"),
        (-2, "torsion order must be at least 2: -2"),
        (2.5, "torsion order is not an integer: 2.5"),
    ):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            CanonicalGroup(0, (order,))
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            PresentedAbGroup.from_invariants(0, [order])
    assert PresentedAbGroup.from_invariants(0, [2.0]) == PresentedAbGroup.from_invariants(0, [2])
    assert hash(PresentedAbGroup.from_invariants(0, [2.0])) == hash(PresentedAbGroup.from_invariants(0, [2]))


def test_hom_well_defined():
    z = group(1, [])
    z2 = group(1, [(2,)])
    z4 = group(1, [(4,)])
    assert hom_well_defined(GroupHom.identity(z2))
    assert not hom_well_defined(GroupHom(z2, z, IntMatrix.from_rows([[1]])))
    assert hom_well_defined(GroupHom(z2, z4, IntMatrix.from_rows([[2]])))


def test_homs_equal_modulo_relations():
    z2 = group(1, [(2,)])
    a = GroupHom(z2, z2, IntMatrix.from_rows([[1]]))
    b = GroupHom(z2, z2, IntMatrix.from_rows([[3]]))
    c = GroupHom(z2, z2, IntMatrix.from_rows([[2]]))
    assert homs_equal(a, b)
    assert not homs_equal(a, c)
    assert is_zero_hom(c)
    # maps from groups with different generator counts are never equal
    z = group(1, [])
    assert not homs_equal(GroupHom.zero(z, z), GroupHom.zero(group(2, []), z))


def test_is_isomorphism_basics():
    z = group(1, [])
    z2 = group(1, [(2,)])
    assert is_isomorphism(GroupHom.identity(z))
    assert not is_isomorphism(GroupHom(z, z, IntMatrix.from_rows([[2]])))
    assert is_isomorphism(GroupHom(z2, z2, IntMatrix.from_rows([[1]])))
    # surjective with kernel: Z -> Z/2
    assert not is_isomorphism(GroupHom(z, z2, IntMatrix.from_rows([[1]])))
    # injective but not surjective: diagonal Z -> Z + Z
    zz = group(2, [])
    assert not is_isomorphism(GroupHom(z, zz, IntMatrix.from_rows([[1], [1]])))


def test_is_isomorphism_nonobvious_presentations():
    # Z/2 presented two ways
    g1 = group(1, [(2,)])
    g2 = group(2, [(1, 1), (0, 2)])
    h = GroupHom(g1, g2, IntMatrix.from_rows([[1], [0]]))
    assert hom_well_defined(h)
    assert is_isomorphism(h)
    # multiplication by 3 on Z/2 is still invertible
    assert is_isomorphism(GroupHom(g1, g1, IntMatrix.from_rows([[3]])))


def test_cyclic_units_and_nonunits():
    rng = random.Random(13)
    for _ in range(40):
        d = rng.choice([2, 3, 4, 5, 6, 9])
        g = group(1, [(d,)])
        u = rng.randrange(1, d)
        h = GroupHom(g, g, IntMatrix.from_rows([[u]]))
        assert is_isomorphism(h) == (_gcd(u, d) == 1)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_compose_and_arithmetic():
    z = group(1, [])
    double = GroupHom(z, z, IntMatrix.from_rows([[2]]))
    triple = GroupHom(z, z, IntMatrix.from_rows([[3]]))
    assert double.compose(triple).matrix == IntMatrix.from_rows([[6]])


def test_from_invariants_round_trip():
    g = PresentedAbGroup.from_invariants(2, (2, 6))
    assert canonical_form(g) == CanonicalGroup(2, (2, 6))


def test_generator_counts_must_be_nonnegative_ints():
    for count in (True, False, 1.5, 2.0, "2", None, -1):
        with pytest.raises(ValueError, match="generator count .*: %s" % re.escape(repr(count))):
            PresentedAbGroup(count)
        with pytest.raises(ValueError, match="generator count .*: %s" % re.escape(repr(count))):
            PresentedAbGroup.trivial(count)


def test_the_trivial_group_keeps_the_canonical_form_of_its_relations(monkeypatch):
    for k in range(6):
        g = PresentedAbGroup.trivial(k)
        assert (g.generators, g.relations) == (k, IntMatrix.identity(k))
        rank, torsion = rank_and_torsion(g.relations.transpose().lines)
        assert g._canonical == CanonicalGroup(k - rank, torsion) == CanonicalGroup(0)
        assert canonical_form(PresentedAbGroup(k, IntMatrix.identity(k))) == g._canonical
        assert g == PresentedAbGroup(k, IntMatrix.identity(k))

    # 0 -> 0 is settled without reducing any matrix
    def refuse(columns):
        raise AssertionError("reduced %r" % (columns,))

    monkeypatch.setattr(groups, "rank_and_torsion", refuse)
    for j, k in ((0, 0), (2, 3), (3, 1)):
        hom = GroupHom(PresentedAbGroup.trivial(j), PresentedAbGroup.trivial(k), IntMatrix.zero(k, j))
        assert is_isomorphism(hom)


def test_torsion_orders_must_be_integers():
    for order in (2.5, "2", None):
        with pytest.raises(ValueError, match="torsion order is not an integer"):
            CanonicalGroup(1, (order,))
        with pytest.raises(ValueError, match="torsion order is not an integer"):
            PresentedAbGroup.from_invariants(1, (order,))
    assert CanonicalGroup(1, (2.0, 4)) == CanonicalGroup(1, (2, 4))
    assert CanonicalGroup(1, (2.0,)).render() == "Z ⊕ Z/2"


def _column_block(cols, gens):
    return IntMatrix.from_columns(cols, nrows=gens)


def test_in_relation_lattice_matches_per_column_solve():
    rng = random.Random(29)
    answers = []
    for _ in range(200):
        R = oracles.random_matrix(rng, max_dim=5, max_entry=5)
        scale = rng.choice([1, 1, 2, 3, 6])
        R = IntMatrix(R.rows, R.cols, [[scale * a for a in row] for row in R.entries])
        g = PresentedAbGroup(R.rows, R)
        oracle = oracles.LatticeMembership(R)
        cols = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                cols.append(R.apply([rng.randint(-3, 3) for _ in range(R.cols)]))
            else:
                cols.append(tuple(rng.randint(-6, 6) for _ in range(R.rows)))
        members = [oracle.contains(c) for c in cols]
        assert g.in_relation_lattice(_column_block(cols, R.rows)) == all(members)
        for c, member in zip(cols, members):
            assert g.in_relation_lattice(_column_block([c], R.rows)) == member
        answers.extend(members)
    assert answers.count(True) > 100 and answers.count(False) > 100


def test_in_relation_lattice_matches_the_explicit_U_oracle():
    # the row log replayed on the columns must answer as the eager U does,
    # also for groups without generators or without relators
    rng = random.Random(31)
    answers = []
    empty = 0
    for _ in range(5000):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        scale = rng.choice([1, 1, 2, 3, 6])
        R = IntMatrix(m, n, [[scale * rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        g = PresentedAbGroup(m, R)
        cols = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                cols.append(R.apply([rng.randint(-3, 3) for _ in range(n)]))
            else:
                cols.append(tuple(rng.randint(-6, 6) for _ in range(m)))
        vectors = IntMatrix.from_columns(cols, nrows=m)
        answer = g.in_relation_lattice(vectors)
        assert answer == oracles.in_relation_lattice_by_U(g, vectors), R
        answers.append(answer)
        empty += m == 0 or n == 0
    assert answers.count(True) > 1500 and answers.count(False) > 1500 and empty > 1000


def test_in_relation_lattice_edge_cases():
    assert PresentedAbGroup.zero().in_relation_lattice(IntMatrix.zero(0, 3))
    assert PresentedAbGroup.zero().in_relation_lattice(IntMatrix.zero(0, 0))
    g = group(3, [(2, 0, 0), (0, 4, 2)])  # Z/2 + Z/2 + Z, and its U is not diagonal
    assert g.in_relation_lattice(IntMatrix.zero(3, 0))
    dec = snf(g.relations)
    assert dec.invariant_factors() == (2, 2)
    # U v is zero up to the rank and nonzero past it: every entry is even,
    # so only the past-the-rank test rejects it
    past_rank = (0, 2, 0)
    image = dec.U.apply(past_rank)
    assert image[:2] == (0, 0) and image[2]
    assert not oracles.LatticeMembership(g.relations).contains(past_rank)
    assert not g.in_relation_lattice(_column_block([past_rank], 3))
    # U v is zero past the rank, but odd where the factor is 2
    odd = (1, 0, 0)
    image = dec.U.apply(odd)
    assert image[2] == 0 and any(a % 2 for a in image[:2])
    assert not oracles.LatticeMembership(g.relations).contains(odd)
    assert not g.in_relation_lattice(_column_block([odd], 3))
    assert g.in_relation_lattice(_column_block([(2, 0, 0), (2, 4, 2)], 3))


def test_is_isomorphism_decomposes_each_matrix_once(monkeypatch):
    decomposed = []
    real_rank_and_torsion = groups.rank_and_torsion

    def counting_rank_and_torsion(columns):
        decomposed.append(columns)
        return real_rank_and_torsion(columns)

    monkeypatch.setattr(groups, "rank_and_torsion", counting_rank_and_torsion)

    def fresh_cases():
        # new groups each time, so no decomposition is cached beforehand; the
        # last number is how often the cokernel's matrix is decomposed: once
        # for equal nontrivial canonical forms, never for different forms or
        # two trivial ones
        z2_twice = group(2, [(1, 1), (0, 2)])
        trivial_twice = group(2, [(1, 0), (0, -1)])
        yield GroupHom.identity(group(2, [(2, 0)])), True, 1
        yield GroupHom(group(1, [(2,)]), z2_twice, IntMatrix.from_rows([[1], [0]])), True, 1
        yield GroupHom(group(1, []), group(1, [(2,)]), IntMatrix.from_rows([[1]])), False, 0
        z = group(1, [])
        yield GroupHom(z, z, IntMatrix.from_rows([[2]])), False, 1
        yield GroupHom(group(1, [(1,)]), trivial_twice, IntMatrix.from_rows([[3], [5]])), True, 0

    for hom, expected, cokernels in fresh_cases():
        decomposed.clear()
        assert is_isomorphism(hom) == expected
        combined = hom.matrix.hstack(hom.target.relations)
        assert decomposed.count(combined.transpose().lines) == cokernels
        assert all(decomposed.count(columns) == 1 for columns in decomposed)


def _smith_form(group):
    factors = snf(group.relations).invariant_factors()
    return CanonicalGroup(group.generators - len(factors), tuple(d for d in factors if d > 1))


def _smith_is_isomorphism(hom):
    form = _smith_form(hom.source)
    if form != _smith_form(hom.target):
        return False
    combined = hom.matrix.hstack(hom.target.relations)
    return form.is_trivial() or snf(combined).invariant_factors() == (1,) * hom.target.generators


def test_invariant_factors_need_no_smith_transforms(monkeypatch):
    # canonical forms and isomorphism tests read invariant factors alone, so
    # they answer with the groups module's Smith decomposition out of reach,
    # and agree with the Smith rule on random presentations and maps
    def no_snf(M):
        raise AssertionError("Smith decomposition of %r" % (M,))

    monkeypatch.setattr(groups, "snf", no_snf)
    z2_z4 = group(2, [(2, 0), (0, 4)])
    cases = [
        (group(0, []), CanonicalGroup(0)),
        (PresentedAbGroup(0, IntMatrix.zero(0, 2)), CanonicalGroup(0)),
        (group(3, []), CanonicalGroup(3)),
        (group(2, [(1, 0), (0, -1)]), CanonicalGroup(0)),
        (group(2, [(1, 3)]), CanonicalGroup(1)),
        (z2_z4, CanonicalGroup(0, (2, 4))),
        (group(2, [(2, 6), (4, 8)]), CanonicalGroup(0, (2, 4))),
        (group(2, [(2, 0), (2, 0), (0, 4), (0, 4)]), CanonicalGroup(0, (2, 4))),
        (group(2, [(0, 3), (0, 3)]), CanonicalGroup(1, (3,))),
    ]
    for g, expected in cases:
        assert canonical_form(g) == expected
    homs = [
        (GroupHom.identity(group(0, [])), True),
        (GroupHom.identity(group(2, [])), True),
        (GroupHom(group(2, []), group(2, []), IntMatrix.from_rows([[1, 1], [1, 1]])), False),
        (GroupHom(group(1, [(1,)]), group(2, [(1, 0), (0, 1)]), IntMatrix.from_rows([[4], [5]])), True),
        (GroupHom(z2_z4, z2_z4, IntMatrix.from_rows([[1, 1], [2, 1]])), True),
        (GroupHom(z2_z4, z2_z4, IntMatrix.from_rows([[1, 0], [0, 2]])), False),
        (GroupHom(group(1, [(2,), (2,)]), group(1, [(2,)]), IntMatrix.from_rows([[1]])), True),
        (GroupHom(z2_z4, group(2, [(0, 4), (2, 0), (2, 0)]), IntMatrix.from_rows([[0, 1], [1, 0]])), True),
    ]
    for hom, expected in homs:
        assert is_isomorphism(hom) == expected

    rng = random.Random(34)
    verdicts = {True: 0, False: 0}
    for trial in range(300):
        g = rng.randint(0, 4)
        relators = [[rng.randint(-4, 4) for _ in range(g)] for _ in range(rng.randint(0, 4))]
        if relators and rng.random() < 0.3:
            relators.append(rng.choice(relators))
        # a unimodular map or a random one, carrying the source relators
        # into the target's, which may hold one more
        P = _random_unimodular(rng, g)
        if rng.random() < 0.4:
            P = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(g)] for _ in range(g)])
        target_relators = [list(P.apply(r)) for r in relators]
        target_relators += [[rng.randint(-3, 3) for _ in range(g)] for _ in range(rng.randint(0, 1))]
        hom = GroupHom(group(g, relators), group(g, target_relators), P)
        assert canonical_form(hom.source) == _smith_form(hom.source), trial
        assert canonical_form(hom.target) == _smith_form(hom.target), trial
        expected = _smith_is_isomorphism(hom)
        assert is_isomorphism(hom) == expected, trial
        verdicts[expected] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50, verdicts


def _random_unimodular(rng, n):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, k = rng.sample(range(n), 2)
        rows[k] = [a + rng.choice((-2, -1, 1, 2)) * b for a, b in zip(rows[k], rows[i])]
    return IntMatrix.from_rows(rows)


def test_is_isomorphism_matches_kernel_oracle():
    z2_z4 = group(2, [(2, 0), (0, 4)])
    explicit = [
        # Z -> Z/2: onto, not one-to-one
        (GroupHom(group(1, []), group(1, [(2,)]), IntMatrix.from_rows([[1]])), False),
        # Z^2 -> Z by (1, 0): onto, kernel Z
        (GroupHom(group(2, []), group(1, []), IntMatrix.from_rows([[1, 0]])), False),
        # Z -> Z times 2: one-to-one, not onto
        (GroupHom(group(1, []), group(1, []), IntMatrix.from_rows([[2]])), False),
        # Z/2 -> Z/2 + Z/2: one-to-one, not onto
        (GroupHom(group(1, [(2,)]), group(2, [(2, 0), (0, 2)]), IntMatrix.from_rows([[1], [0]])), False),
        # an automorphism of Z/2 + Z/4
        (GroupHom(z2_z4, z2_z4, IntMatrix.from_rows([[1, 1], [2, 1]])), True),
    ]
    for hom, expected in explicit:
        assert hom_well_defined(hom)
        assert oracles.is_isomorphism_by_kernel(hom) == expected
        assert is_isomorphism(hom) == expected

    rng = random.Random(83)
    verdicts = {True: 0, False: 0}
    onto_not_into = 0
    for trial in range(300):
        g = rng.randint(1, 4)
        relators = [[rng.randint(-4, 4) for _ in range(g)] for _ in range(rng.randint(0, 3))]
        source = group(g, relators)
        P = _random_unimodular(rng, g)
        images = [list(P.apply(r)) for r in relators]
        kind = rng.randrange(3)
        if kind == 0:
            # P carries the source relators onto the target's: an isomorphism
            target_relators = images
        elif kind == 1:
            # extra target relators: onto, one-to-one only if they add nothing
            target_relators = images + [[rng.randint(-3, 3) for _ in range(g)]]
        else:
            # a random matrix; the target relators hold the source relators' images
            P = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(g)] for _ in range(g)])
            target_relators = [list(P.apply(r)) for r in relators]
            target_relators += [[rng.randint(-3, 3) for _ in range(g)] for _ in range(rng.randint(0, 2))]
        hom = GroupHom(source, group(g, target_relators), P)
        assert hom_well_defined(hom)
        expected = oracles.is_isomorphism_by_kernel(hom)
        assert is_isomorphism(hom) == expected, trial
        verdicts[expected] += 1
        combined = hom.matrix.hstack(hom.target.relations)
        if not expected and snf(combined).invariant_factors() == (1,) * g:
            onto_not_into += 1
    assert verdicts[True] > 50 and verdicts[False] > 50
    assert onto_not_into > 20
