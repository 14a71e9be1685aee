"""Shared fixture posets and presheaves, named by their shape or role.

point      one element.
vee        one bottom below two incomparable tops.
square     complete bipartite 2 x 2; its Hasse diagram draws as a square and
           its order complex is a 4-cycle.
sphere     three stacked 2-antichains, complete bipartite between consecutive
           layers; the order complex is a 2-sphere.
zigzag     the 4-element fence p2 < p0 > p3 < p1.
crown3     complete bipartite 3 x 3: three bottoms b0, b1, b2 each below
           three tops t0, t1, t2.
pass8      8-element poset whose cuts all have acyclic upper sections.
pass7      7-element poset, same verdict, no helpful semilattice structure.
capped_square
           the square with a top: c, d < a, b < t.  L(a) & L(b) = {c, d} is
           a non-principal intersection, so it has 6 nodes for 5 elements;
           every cut has an acyclic upper section.
cells9     face-style 9-element poset with a cut whose upper section is the
           2-antichain {0, 1}; the agreement criterion fails on it.
tetrahedron
           four minimal elements m1..m4 and four maximal ones, each above
           three of them: a over m1, m2, m3; b over m1, m2, m4; c over m1,
           m3, m4; d over m2, m3, m4.  Its height is 1, but its intersection
           poset is the face poset of a tetrahedron's boundary, a 2-sphere.
projective_plane
           face poset of the 6-vertex triangulation of the real projective
           plane (6 vertices, 15 edges, 10 triangles); its order complex is
           the barycentric subdivision, with H_1 = Z/2.
dunce_hat  face poset of the dunce hat: a triangle subdivided twice
           barycentrically, its sides glued as a.a.a^-1 (17 vertices, 52
           edges, 36 triangles).  It has no beat points, and its order
           complex is contractible, so it is acyclic only by homology.
"""

import itertools
from fractions import Fraction

from posetcoh.documents import skeleton
from posetcoh.poset import parse_poset

POINT_DOC = {"elements": ["a"], "relations": []}

VEE_DOC = {
    "elements": ["p0", "p1", "p2"],
    "relations": [["p2", "p0"], ["p2", "p1"]],
}

DIAMOND_DOC = {
    "elements": ["bot", "left", "right", "top"],
    "relations": [["bot", "left"], ["bot", "right"], ["left", "top"], ["right", "top"]],
}

SQUARE_DOC = {
    "elements": ["p0", "p1", "p2", "p3"],
    "relations": [["p2", "p0"], ["p2", "p1"], ["p3", "p0"], ["p3", "p1"]],
}

SPHERE_DOC = {
    "elements": ["0", "1", "2", "3", "4", "5"],
    "relations": [
        ["2", "0"], ["3", "0"], ["2", "1"], ["3", "1"],
        ["4", "2"], ["5", "2"], ["4", "3"], ["5", "3"],
    ],
}

ZIGZAG_DOC = {
    "elements": ["p0", "p1", "p2", "p3"],
    "relations": [["p2", "p0"], ["p3", "p0"], ["p3", "p1"]],
}

CROWN3_DOC = {
    "elements": ["t0", "t1", "t2", "b0", "b1", "b2"],
    "relations": [["b%d" % i, "t%d" % j] for j in range(3) for i in range(3)],
}

PASS8_DOC = {
    "elements": ["0", "1", "2", "3", "4", "5", "6", "7"],
    "relations": [
        ["2", "0"], ["3", "0"], ["3", "1"], ["4", "1"],
        ["5", "2"], ["6", "2"], ["5", "3"], ["6", "3"], ["7", "3"],
        ["6", "4"], ["7", "4"],
    ],
}

PASS7_DOC = {
    "elements": ["0", "1", "2", "3", "4", "5", "6"],
    "relations": [
        ["3", "0"], ["3", "1"], ["4", "1"], ["4", "2"],
        ["5", "3"], ["6", "3"], ["5", "4"], ["6", "4"],
    ],
}

CAPPED_SQUARE_DOC = {
    "elements": ["a", "b", "c", "d", "t"],
    "relations": [["c", "a"], ["d", "a"], ["c", "b"], ["d", "b"], ["a", "t"], ["b", "t"]],
}

CELLS9_DOC = {
    "elements": ["0", "1", "2", "3", "4", "5", "6", "7", "8"],
    "relations": [
        ["2", "0"], ["3", "0"], ["4", "0"],
        ["2", "1"], ["3", "1"], ["4", "1"],
        ["5", "2"], ["6", "2"],
        ["5", "3"], ["7", "3"],
        ["6", "4"], ["7", "4"],
        ["8", "5"], ["8", "6"], ["8", "7"],
    ],
}

TETRAHEDRON_DOC = {
    "elements": ["a", "b", "c", "d", "m1", "m2", "m3", "m4"],
    "relations": [
        ["m%s" % i, top] for top, below in zip("abcd", ["123", "124", "134", "234"]) for i in below
    ],
}


RP2_TRIANGLES = ["123", "126", "134", "145", "156", "235", "245", "246", "346", "356"]


def _projective_plane_doc():
    edges = sorted({"".join(e) for t in RP2_TRIANGLES for e in itertools.combinations(t, 2)})
    vertices = sorted(set("".join(RP2_TRIANGLES)))
    relations = [[v, e] for e in edges for v in e]
    relations += [
        ["".join(e), t] for t in RP2_TRIANGLES for e in itertools.combinations(t, 2)
    ]
    return {"elements": vertices + edges + RP2_TRIANGLES, "relations": relations}


def _subdivide(simplices):
    """The barycentric subdivision: each simplex (a frozenset of points, a
    point a tuple of barycentric coordinates) becomes a maximal chain of
    faces, and each chain the simplex on the faces' barycenters."""
    def center(face):
        return tuple(sum(c) / len(face) for c in zip(*face))

    return {
        frozenset(center(frozenset(order[: k + 1])) for k in range(len(order)))
        for simplex in simplices
        for order in itertools.permutations(simplex)
    }


def _dunce_hat_doc():
    corners = [tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)]
    triangles = _subdivide(_subdivide([frozenset(corners)]))

    def glued(point):
        # sides A->B, B->C and A->C are one edge a, read at the distance
        # from its start; the three corners are its one end point
        x, y, z = point
        if point.count(0) == 2:
            return "v"
        if 0 in point:
            return "a%s" % (y if z == 0 else z)
        return "i%s:%s" % (x, y)

    faces = {frozenset(map(glued, f)) for t in triangles for k in (1, 2, 3)
             for f in itertools.combinations(t, k)}
    name = {f: "-".join(sorted(f)) for f in faces}
    relations = [[name[f], name[g]] for g in faces for f in faces if f < g]
    return {"elements": sorted(name.values()), "relations": relations}


DUNCE_HAT_DOC = _dunce_hat_doc()


def point():
    return parse_poset(POINT_DOC)


def vee():
    return parse_poset(VEE_DOC)


def square():
    return parse_poset(SQUARE_DOC)


def sphere():
    return parse_poset(SPHERE_DOC)


def zigzag():
    return parse_poset(ZIGZAG_DOC)


def crown3():
    return parse_poset(CROWN3_DOC)


def pass8():
    return parse_poset(PASS8_DOC)


def pass7():
    return parse_poset(PASS7_DOC)


def capped_square():
    return parse_poset(CAPPED_SQUARE_DOC)


def cells9():
    return parse_poset(CELLS9_DOC)


def tetrahedron():
    return parse_poset(TETRAHEDRON_DOC)


def projective_plane():
    return parse_poset(_projective_plane_doc())


def dunce_hat():
    return parse_poset(DUNCE_HAT_DOC)


BUILT = (
    point, vee, square, sphere, zigzag, crown3, pass8, pass7,
    capped_square, cells9, tetrahedron, projective_plane, dunce_hat,
)


# Presheaf documents on the square poset's intersection poset, whose five
# nodes are {p2}, {p3}, {p2,p3}, {p0,p2,p3}, {p1,p2,p3}.

SKYSCRAPER_DOC = {
    "base": SQUARE_DOC,
    "mode": "presheaf",
    "groups": {
        "{p0,p2,p3}": {"rank": 1, "torsion": []},
        "{p1,p2,p3}": {"rank": 1, "torsion": []},
        "{p2,p3}": {"rank": 1, "torsion": []},
        "{p2}": {"rank": 0, "torsion": []},
        "{p3}": {"rank": 0, "torsion": []},
    },
    "maps": {
        "{p0,p2,p3}->{p2,p3}": [[1]],
        "{p1,p2,p3}->{p2,p3}": [[1]],
        "{p2,p3}->{p2}": [],
        "{p2,p3}->{p3}": [],
    },
}

CONSTANT_SQUARE_DOC = {
    "base": SQUARE_DOC,
    "mode": "presheaf",
    "groups": {
        "{p0,p2,p3}": {"rank": 1, "torsion": []},
        "{p1,p2,p3}": {"rank": 1, "torsion": []},
        "{p2,p3}": {"rank": 1, "torsion": []},
        "{p2}": {"rank": 1, "torsion": []},
        "{p3}": {"rank": 1, "torsion": []},
    },
    "maps": {
        "{p0,p2,p3}->{p2,p3}": [[1]],
        "{p1,p2,p3}->{p2,p3}": [[1]],
        "{p2,p3}->{p2}": [[1]],
        "{p2,p3}->{p3}": [[1]],
    },
}

# Constant-Z values on the sphere poset itself; sheaf-mode input for the
# comparison pipeline (the presheaf on the intersection poset is synthesized
# from limits over the opens).

CONSTANT_SPHERE_DIAGRAM_DOC = {
    "base": SPHERE_DOC,
    "mode": "diagram",
    "groups": {name: {"rank": 1, "torsion": []} for name in SPHERE_DOC["elements"]},
    "maps": {
        "%s->%s" % (high, low): [[1]]
        for low, high in SPHERE_DOC["relations"]
    },
}


def _constant_presheaf_doc(poset):
    """The skeleton template filled with rank-1 groups and identity maps."""
    doc = skeleton(poset)
    doc["groups"] = {name: {"rank": 1} for name in doc["groups"]}
    doc["maps"] = {edge: [[1]] for edge in doc["maps"]}
    return doc


# Constant Z on the tetrahedron's intersection poset: its Cech H^2 is Z
# although the base has height 1.
CONSTANT_TETRAHEDRON_DOC = _constant_presheaf_doc(tetrahedron())
