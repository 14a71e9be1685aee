"""Finite posets and their Alexandrov topology.

A finite poset I carries the topology whose open sets are the downward closed
subsets; the minimal basic open at i is the principal down-set L(i) = {j : j <= i}
and these form the canonical covering of the space.  This module owns the
carrier type, the bound operators X^- and X^+, the distinct nonempty
intersections of the L(i) (the values of X^-) and the poset they form,
strict-chain enumeration, cores, and the plumbing needed to build and
serialize posets.
"""

from __future__ import annotations

import random


class PosetError(ValueError):
    """Raised for inputs that do not describe a finite poset."""


class Poset:
    """A finite partially ordered set over named elements.

    `down[i]` is the index set {j : j <= i} and `up[i]` is {j : j >= i}; all
    order queries reduce to membership in these frozen sets.  Instances are
    immutable and compare by value; `chains`, `covers`, `height` and
    `diagrams.cohomology_support` keep what they compute on the instance,
    outside that value.
    """

    __slots__ = ("elements", "index", "down", "up", "_chains", "_covers", "_height", "_links")

    def __init__(self, elements, down):
        self.elements = tuple(elements)
        if not self.elements:
            raise PosetError("empty poset")
        self.index = {name: i for i, name in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            seen = set()
            for name in self.elements:
                if name in seen:
                    raise PosetError("duplicate element name: %r" % name)
                seen.add(name)
        self.down = tuple(frozenset(s) for s in down)
        n = len(self.elements)
        if len(self.down) != n:
            raise PosetError("down-set count mismatch")
        ups = [set() for _ in range(n)]
        everything = set(range(n))
        for i, s in enumerate(self.down):
            if i not in s or not s <= everything:
                raise PosetError("invalid down-set for %r" % self.elements[i])
            for j in s:
                if j != i and i in self.down[j]:
                    raise PosetError(
                        "antisymmetry violated by %r and %r (relation cycle)"
                        % (self.elements[i], self.elements[j])
                    )
                if not self.down[j] <= s:
                    raise PosetError(
                        "transitivity violated below %r at %r"
                        % (self.elements[i], self.elements[j])
                    )
                ups[j].add(i)
        self.up = tuple(frozenset(s) for s in ups)
        self._chains = {}
        self._links = {}
        self._covers = None
        self._height = None

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self.down == other.down
        )

    def __hash__(self):
        return hash((self.elements, self.down))

    def __repr__(self):
        return "Poset(%r)" % (self.elements,)

    def leq(self, i, j):
        """Whether element i <= element j (by index)."""
        return i in self.down[j]

    def covers(self):
        """Hasse cover pairs (low, high), low covered by high, sorted by name.

        Computed once per instance; later calls return the same tuple.
        """
        if self._covers is None:
            pairs = []
            for j in range(len(self.elements)):
                strictly_below = self.down[j] - {j}
                for i in strictly_below:
                    if not any(k != i and i in self.down[k] for k in strictly_below):
                        pairs.append((i, j))
            named = sorted((self.elements[i], self.elements[j]) for i, j in pairs)
            self._covers = tuple((self.index[a], self.index[b]) for a, b in named)
        return self._covers

    def height(self):
        """Length in edges of the longest strict chain, computed once per instance."""
        if self._height is None:
            best = [0] * len(self.elements)
            for i in self.linear_extension():
                below = [best[j] + 1 for j in self.down[i] if j != i]
                best[i] = max(below, default=0)
            self._height = max(best)
        return self._height

    def linear_extension(self):
        """Element indices in an order listing smaller elements first."""
        return sorted(range(len(self.elements)), key=lambda i: (len(self.down[i]), i))


def subset_name(poset, indices):
    """The name {a,b} of a set of element indices: its sorted member names."""
    return "{" + ",".join(sorted(poset.elements[i] for i in indices)) + "}"


def meet_closure(base):
    """The distinct nonempty intersections of the minimal basic opens.

    Every nonempty set of lower bounds X^- is a finite intersection of down
    sets L(x), so the closure of {L(i)} under pairwise nonempty intersection
    enumerates exactly the candidate lower halves of cuts.  Returns the
    nodes, frozen sets of base indices listed by size and then by sorted
    member names, and for each node one generating subset of the base poset
    as its witness, a sorted index tuple.

    The closure runs in rounds.  Each round sweeps the pairs (a, b) of the
    sets found before it, both in order of their sorted members, and a new
    set keeps the witnesses of the first pair that meets to it.  A pair of
    sets that were both known a round earlier was swept then, so after the
    first round only pairs with a member of the last round's new sets are
    met, and only partners b at or after a: meets and witness unions are
    symmetric, so every witness is that of the full sweep.  Each set's
    sorted members are computed once.
    """
    found = {}
    for i in range(len(base.elements)):
        found.setdefault(base.down[i], (i,))
    members = {s: sorted(s) for s in found}
    last = set(found)
    while last:
        current = sorted(found, key=members.__getitem__)
        last_sorted = [s for s in current if s in last]
        new = set()
        seen = 0  # members of last_sorted at or before a
        for k, a in enumerate(current):
            seen += a in last
            for b in current[k:] if a in last else last_sorted[seen:]:
                c = a & b
                if c and c not in found:
                    found[c] = tuple(sorted(set(found[a]) | set(found[b])))
                    members[c] = sorted(c)
                    new.add(c)
        last = new
    nodes = tuple(sorted(found, key=lambda s: (len(s), sorted(base.elements[i] for i in s))))
    return nodes, tuple(found[s] for s in nodes)


class IntersectionPoset:
    """The nodes of `meet_closure` ordered by inclusion.

    The node poset names each node by `subset_name`, `lambda_map` locates
    L(i), and `witnesses` holds each node's generating subset.
    """

    __slots__ = ("base", "poset", "nodes", "lambda_map", "witnesses")

    def __init__(self, base):
        self.base = base
        nodes, self.witnesses = meet_closure(base)
        self.nodes = nodes
        # a subset is never longer, so it sits at or before its superset
        down_sets = [
            frozenset(j for j in range(k + 1) if nodes[j] <= s) for k, s in enumerate(nodes)
        ]
        self.poset = Poset([subset_name(base, s) for s in nodes], down_sets)
        position = {s: k for k, s in enumerate(nodes)}
        self.lambda_map = tuple(position[base.down[i]] for i in range(len(base.elements)))

    def __len__(self):
        return len(self.nodes)


def bounds(poset, subset, direction):
    """The set of common lower or upper bounds of a subset.

    X^- is the intersection of the down-sets of the members of X, X^+ the
    intersection of the up-sets; for the empty subset both equal the whole
    carrier.  The subset is any iterable of element indices, each checked
    against the poset's range; the result is a frozenset of indices.
    """
    if direction not in ("lower", "upper"):
        raise PosetError("direction must be 'lower' or 'upper'")
    table = poset.down if direction == "lower" else poset.up
    n = len(poset.elements)
    indices = frozenset(subset)
    for x in indices:
        if not 0 <= x < n:
            raise PosetError("subset index %r out of range" % (x,))
    result = set(range(n))
    for x in indices:
        result &= table[x]
    return frozenset(result)


def chains(poset, n):
    """All strictly decreasing chains c_0 > c_1 > ... > c_n.

    Degree k follows each cached chain of degree k-1 by every element
    strictly below its last one, in increasing order, which keeps every
    degree sorted; each degree is enumerated once per poset and later calls
    return the same tuple of index tuples.
    """
    if n < 0:
        raise PosetError("chain degree must be nonnegative")
    cache = poset._chains
    if n not in cache:
        below = [sorted(down - {i}) for i, down in enumerate(poset.down)]
        if not cache:
            cache[0] = tuple((i,) for i in range(len(below)))
        for k in range(len(cache), n + 1):
            cache[k] = tuple(c + (j,) for c in cache[k - 1] for j in below[c[-1]])
    return cache[n]


def components(poset, members=None):
    """Connected components of the comparability graph, as sorted index lists.

    `members` is the set of element indices to work within (default: every
    element); the graph is then that of the subposet they induce, given in
    the poset's own indices.  Components are listed by their smallest
    element index.
    """
    todo = set(range(len(poset.elements)) if members is None else members)
    out = []
    for start in sorted(todo):
        if start not in todo:
            continue
        todo.discard(start)
        comp = []
        stack = [start]
        while stack:
            i = stack.pop()
            comp.append(i)
            reached = (poset.down[i] | poset.up[i]) & todo
            todo -= reached
            stack.extend(reached)
        out.append(sorted(comp))
    return out


def core(poset, members=None):
    """What remains after removing beat points one at a time.

    A beat point has exactly one lower cover or exactly one upper cover among
    the elements still present.  Removing one is a strong deformation retract
    of the order complex (Stong, "Finite topological spaces", Trans. AMS 123,
    1966), so the subposet induced on the core has the homology of the poset.
    `members` is the set of element indices to work within (default: every
    element), so the core of an induced subposet is found without building
    that subposet.  Returns the sorted indices that remain, in the poset's
    own indices.
    """
    present = set(range(len(poset.elements)) if members is None else members)

    def is_beat(i):
        # the others below (above) i have one cover exactly when they have a
        # greatest (least) element
        for table in (poset.down, poset.up):
            others = (table[i] & present) - {i}
            if others and any(others <= table[j] for j in others):
                return True
        return False

    removed = True
    while removed:
        removed = False
        for i in sorted(present):
            if is_beat(i):
                present.discard(i)
                removed = True
    return sorted(present)


def induced_subposet(poset, subset):
    """The restriction of the order to a nonempty subset, names preserved."""
    indices = sorted(subset)
    if not indices:
        raise PosetError("induced subposet needs a nonempty subset")
    old_to_new = {old: new for new, old in enumerate(indices)}
    elements = [poset.elements[i] for i in indices]
    down = [frozenset(old_to_new[j] for j in poset.down[i] if j in old_to_new) for i in indices]
    return Poset(elements, down)


def parse_poset(doc):
    """Build a poset from a description with 'elements' and 'relations'.

    Relation pairs [a, b] assert a <= b; they may be arbitrary assertions, not
    only covers, and the reflexive-transitive closure is taken.  Raises
    PosetError naming the offenders for unknown names and names holding ","
    or "->", which node names and map keys use; `Poset` names a duplicate
    element and the two elements of a relation cycle.
    """
    if not isinstance(doc, dict):
        raise PosetError("poset document must be an object")
    elements = doc.get("elements")
    if not isinstance(elements, list) or not elements:
        raise PosetError("poset document needs a nonempty 'elements' list")
    for name in elements:
        if not isinstance(name, str):
            raise PosetError("element names must be strings, got %r" % (name,))
        for sep in (",", "->"):
            if sep in name:
                raise PosetError("element name %r contains %r" % (name, sep))
    index = {name: i for i, name in enumerate(elements)}
    n = len(elements)
    preds = [set() for _ in range(n)]
    relations = doc.get("relations", [])
    if not isinstance(relations, (list, tuple)):
        raise PosetError("'relations' must be a list of [low, high] pairs")
    for pair in relations:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise PosetError("relation entries must be [low, high] pairs, got %r" % (pair,))
        low, high = pair
        for name in (low, high):
            if not isinstance(name, str) or name not in index:
                raise PosetError("unknown element in relation: %r" % (name,))
        preds[index[high]].add(index[low])

    down = []
    for i in range(n):
        reach = {i}
        stack = [i]
        while stack:
            j = stack.pop()
            for k in preds[j]:
                if k not in reach:
                    reach.add(k)
                    stack.append(k)
        down.append(frozenset(reach))
    return Poset(elements, down)


def serialize_poset(poset):
    """Canonical document: sorted elements plus the Hasse covers only."""
    covers = [
        [poset.elements[i], poset.elements[j]] for i, j in poset.covers()
    ]
    return {"elements": sorted(poset.elements), "relations": covers}


def random_poset(n, density, seed):
    """A reproducible random poset on n elements.

    A shuffled labeling is drawn, each forward pair of the resulting linear
    extension becomes a relation with the given probability, and the closure
    is taken, so the output is always a valid poset and density 0 yields an
    antichain.
    """
    if n < 1:
        raise PosetError("element count must be positive")
    if not 0 <= density <= 1:
        raise PosetError("density must lie in [0, 1]")
    rng = random.Random(seed)
    width = len(str(n - 1)) if n > 1 else 1
    elements = ["x%0*d" % (width, i) for i in range(n)]
    ranks = list(range(n))
    rng.shuffle(ranks)
    relations = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                relations.append([elements[ranks[a]], elements[ranks[b]]])
    return parse_poset({"elements": elements, "relations": relations})
