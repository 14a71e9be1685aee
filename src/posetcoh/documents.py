"""Document formats: group literals, presheaf files, and authoring skeletons.

A presheaf document embeds its base poset and carries groups and maps in one
of two modes.  Mode "presheaf" keys them by intersection-poset node names and
reverse-inclusion arrows; mode "diagram" keys them by base elements and cover
arrows, and the presheaf of the generated sheaf is synthesized from it.
"""

from __future__ import annotations

from .cech import Presheaf, sheaf_presheaf
from .diagrams import Diagram
from .groups import GroupHom, PresentedAbGroup
from .linalg import IntMatrix
from .poset import IntersectionPoset, parse_poset, serialize_poset


class DocumentError(ValueError):
    """Raised for malformed or inconsistent document content."""


def _is_int(value):
    """Whether a JSON value is an integer; JSON true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(value, length=None):
    """Whether a value is a list of integers, of the given length if any."""
    return (
        isinstance(value, (list, tuple))
        and all(_is_int(v) for v in value)
        and (length is None or len(value) == length)
    )


def parse_group(literal):
    """A group literal: {"rank", "torsion"} or {"generators", "relators"}."""
    if not isinstance(literal, dict):
        raise DocumentError("group literal must be an object")
    if "generators" in literal:
        gens = literal["generators"]
        relators = literal.get("relators", [])
        if not _is_int(gens) or gens < 0:
            raise DocumentError("generator count must be a nonnegative integer")
        if not isinstance(relators, (list, tuple)):
            raise DocumentError("relators must be a list of integer lists")
        if not all(_int_list(rel, gens) for rel in relators):
            raise DocumentError("each relator needs one integer per generator")
        matrix = IntMatrix.from_columns(relators, nrows=gens) if relators else None
        return PresentedAbGroup(gens, matrix)
    rank = literal.get("rank")
    torsion = literal.get("torsion", [])
    if not _is_int(rank) or rank < 0:
        raise DocumentError("rank must be a nonnegative integer")
    if not _int_list(torsion) or not all(d >= 2 for d in torsion):
        raise DocumentError("torsion orders must be integers of size at least 2")
    return PresentedAbGroup.from_invariants(rank, torsion)


def render_group(canonical):
    return {"rank": canonical.rank, "torsion": list(canonical.torsion)}


def parse_matrix(rows, target, source, label):
    """An integer matrix literal shaped target generators x source generators."""
    if rows is None:
        raise DocumentError("map %s is still a null placeholder" % label)
    if not isinstance(rows, (list, tuple)):
        raise DocumentError("map %s must be a list of integer rows" % label)
    if len(rows) != target.generators:
        raise DocumentError(
            "map %s needs %d rows, got %d" % (label, target.generators, len(rows))
        )
    for row in rows:
        if not _int_list(row, source.generators):
            raise DocumentError(
                "map %s needs %d integer columns per row" % (label, source.generators)
            )
    return IntMatrix(target.generators, source.generators, rows)


def _arrow(key):
    parts = key.split("->")
    if len(parts) != 2:
        raise DocumentError("map key %r is not of the form A->B" % key)
    return parts[0], parts[1]


def _diagram_from_fields(poset, groups_field, maps_field, what):
    for field, value in (("groups", groups_field), ("maps", maps_field)):
        if not isinstance(value, dict):
            raise DocumentError("%s must be an object keyed by %s" % (field, what))
    values = []
    seen = set(groups_field)
    for name in poset.elements:
        if name not in groups_field:
            raise DocumentError("missing group for %s %s" % (what, name))
        seen.discard(name)
        literal = groups_field[name]
        if literal is None:
            raise DocumentError("group for %s %s is still a null placeholder" % (what, name))
        values.append(parse_group(literal))
    if seen:
        raise DocumentError("unknown %s %s in groups" % (what, sorted(seen)[0]))
    edge_maps = {}
    for key, rows in maps_field.items():
        a, b = _arrow(key)
        if a not in poset.index or b not in poset.index:
            raise DocumentError("map key %r names an unknown %s" % (key, what))
        ia, ib = poset.index[a], poset.index[b]
        matrix = parse_matrix(rows, values[ib], values[ia], key)
        edge_maps[(ia, ib)] = GroupHom(values[ia], values[ib], matrix)
    diagram = Diagram(poset, values, edge_maps)
    diagram.verify()
    return diagram


def load_presheaf(doc, space=None):
    """Build a presheaf from a document, optionally against a known base poset."""
    if not isinstance(doc, dict):
        raise DocumentError("presheaf document must be an object")
    if "base" not in doc:
        raise DocumentError("presheaf document needs an embedded base poset")
    base = parse_poset(doc["base"])
    if space is not None:
        if serialize_poset(base) != serialize_poset(space):
            raise DocumentError("embedded base poset differs from the given poset")
        base = space
    mode = doc.get("mode")
    # an absent or null field is empty; any other value meets the object check
    groups_field = {} if doc.get("groups") is None else doc["groups"]
    maps_field = {} if doc.get("maps") is None else doc["maps"]
    if mode == "presheaf":
        intersection = IntersectionPoset(base)
        diagram = _diagram_from_fields(
            intersection.poset, groups_field, maps_field, "node"
        )
        return Presheaf(intersection, diagram)
    if mode == "diagram":
        diagram = _diagram_from_fields(base, groups_field, maps_field, "element")
        return sheaf_presheaf(diagram)
    raise DocumentError('mode must be "presheaf" or "diagram"')


def _presheaf_document(base, nodes, group, edge):
    """A presheaf document on `base` over its node poset `nodes`: `group(k)`
    for each node in order and `edge(high, low)` for each cover, keyed
    "HIGH->LOW" in `covers()` order."""
    names = nodes.elements
    covers = nodes.covers()
    return {
        "base": serialize_poset(base),
        "mode": "presheaf",
        "groups": {name: group(k) for k, name in enumerate(names)},
        "maps": {"%s->%s" % (names[high], names[low]): edge(high, low) for low, high in covers},
    }


def render_presheaf(presheaf):
    """A loadable document for an in-memory presheaf, presentations verbatim."""
    diagram = presheaf.diagram

    def group(k):
        value = diagram.value(k)
        relators = value.relations.transpose().entries
        return {"generators": value.generators, "relators": [list(c) for c in relators]}

    def edge(high, low):
        return [list(row) for row in diagram.edge_maps[(high, low)].matrix.entries]

    return _presheaf_document(presheaf.space, presheaf.intersection.poset, group, edge)


def skeleton(poset):
    """An authoring template with every required key and null placeholders."""
    nodes = IntersectionPoset(poset).poset
    return _presheaf_document(poset, nodes, lambda k: None, lambda high, low: None)
