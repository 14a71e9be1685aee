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

    The order is the int bit masks `_down[i]` = {j : j <= i} and `_up[i]` =
    {j : j >= i}, bit j for element j, which every kernel reads; `down` and
    `up` are the same sets as frozensets, built on first read.  The
    constructor takes each down-set as an int mask or a collection of
    element indices and checks the order axioms with one AND per related
    pair.  Wherever a subset of the elements is read, `members` may likewise
    be a collection of element indices or an int bit mask; the cut sweep
    passes masks from the meet closure to the homology test, and frozensets
    are built only for what is printed or kept on an intersection poset.
    Instances are immutable and compare by value; `down`, `up`, `chains`,
    `covers`, `height` and `diagrams.cohomology_support` keep what they
    compute on the instance, outside that value.
    """

    __slots__ = (
        "elements", "index", "_down_sets", "_up_sets", "_down", "_up", "_chains",
        "_covers", "_height", "_links",
    )

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
        downs = list(down)
        n = len(self.elements)
        if len(downs) != n:
            raise PosetError("down-set count mismatch")
        for i, s in enumerate(downs):
            if type(s) is not int:
                try:
                    members = iter(s)
                except TypeError:
                    raise PosetError(
                        "down-set %r of %r is neither a mask nor a collection of indices"
                        % (s, self.elements[i])
                    ) from None
                mask = 0
                for j in members:
                    if type(j) is not int:
                        raise PosetError(
                            "down-set member %r of %r is not an element index"
                            % (j, self.elements[i])
                        )
                    if not 0 <= j < n:  # checked before the shift, which could be huge
                        raise PosetError("invalid down-set for %r" % self.elements[i])
                    mask |= 1 << j
                downs[i] = s = mask
            if s < 0 or s >> n or not s >> i & 1:
                raise PosetError("invalid down-set for %r" % self.elements[i])
        ups = [1 << i for i in range(n)]
        for i, s in enumerate(downs):
            bit = 1 << i
            outside = ~s | bit  # i itself, and what lies outside L(i)
            for j in _indices(s ^ bit):
                if downs[j] & outside:
                    text = "antisymmetry violated by %r and %r (relation cycle)"
                    if not downs[j] & bit:
                        text = "transitivity violated below %r at %r"
                    raise PosetError(text % (self.elements[i], self.elements[j]))
                ups[j] |= bit
        self._down, self._up = tuple(downs), tuple(ups)
        self._down_sets = self._up_sets = self._covers = self._height = None
        self._chains, self._links = {}, {}

    @property
    def down(self):
        """`down[i]` = {j : j <= i} as frozen sets, built from `_down` on first read."""
        if self._down_sets is None:
            self._down_sets = tuple(frozenset(_indices(m)) for m in self._down)
        return self._down_sets

    @property
    def up(self):
        """`up[i]` = {j : j >= i} as frozen sets, built from `_up` on first read."""
        if self._up_sets is None:
            self._up_sets = tuple(frozenset(_indices(m)) for m in self._up)
        return self._up_sets

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self._down == other._down
        )

    def __hash__(self):
        return hash((self.elements, self._down))

    def __repr__(self):
        return "Poset(%r)" % (self.elements,)

    def leq(self, i, j):
        """Whether element i <= element j (by index); each must be an int in range."""
        for x in (i, j):
            if type(x) is not int or not 0 <= x < len(self._down):
                raise PosetError("element index %r out of range" % (x,))
        return bool(self._down[j] >> i & 1)

    def covers(self):
        """Hasse cover pairs (low, high), low covered by high, sorted by name.

        Computed once per instance; later calls return the same tuple.
        """
        if self._covers is None:
            # i < j is a cover when nothing lies strictly above i and below j
            strict_up = [m ^ 1 << i for i, m in enumerate(self._up)]
            pairs = []
            for j, m in enumerate(self._down):
                below = m ^ 1 << j
                pairs += [(i, j) for i in _indices(below) if not strict_up[i] & below]
            named = sorted((self.elements[i], self.elements[j]) for i, j in pairs)
            self._covers = tuple((self.index[a], self.index[b]) for a, b in named)
        return self._covers

    def height(self):
        """Length in edges of the longest strict chain, computed once per instance."""
        if self._height is None:
            best = [0] * len(self.elements)
            for i in self.linear_extension():
                below = [best[j] + 1 for j in _indices(self._down[i] ^ 1 << i)]
                best[i] = max(below, default=0)
            self._height = max(best)
        return self._height

    def linear_extension(self):
        """Element indices in an order listing smaller elements first."""
        return sorted(range(len(self.elements)), key=lambda i: (self._down[i].bit_count(), i))


def _mask(poset, members):
    """The bit mask of a subset of the elements, each member range-checked.

    `members` is None for every element, an int bit mask, or a collection
    of element indices.  A bool is neither, and a member that is not an
    int, a negative mask and an index outside the poset raise PosetError
    naming the offender.
    """
    n = len(poset.elements)
    if members is None:
        return (1 << n) - 1
    if type(members) is int:
        if members < 0:
            raise PosetError("subset mask %d out of range" % members)
        if members >> n:
            raise PosetError("subset index %d out of range" % (members.bit_length() - 1))
        return members
    if isinstance(members, bool):
        raise PosetError("subset %r is neither a mask nor a set of indices" % members)
    mask = 0
    for x in members:
        if type(x) is not int:
            raise PosetError("subset member %r is not an element index" % (x,))
        if not 0 <= x < n:
            raise PosetError("subset index %d out of range" % x)
        mask |= 1 << x
    return mask


def _indices(mask):
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def subset_name(poset, indices):
    """The name {a,b} of a set of element indices: its sorted member names."""
    return "{" + ",".join(sorted(poset.elements[i] for i in indices)) + "}"


def _meet_closure(base):
    """The distinct nonempty intersections of the minimal basic opens.

    Every nonempty set of lower bounds X^- is a finite intersection of down
    sets L(x), so the closure of {L(i)} under pairwise nonempty intersection
    enumerates exactly the candidate lower halves of cuts.  Returns the
    node masks, listed by size and then by sorted member names, and for
    each node the mask of one generating subset of the base poset as its
    witness.

    The closure runs in rounds.  Each round sweeps the pairs (a, b) of the
    sets found before it, both in order of their sorted members, and a new
    set keeps the witnesses of the first pair that meets to it.  A pair of
    sets that were both known a round earlier was swept then, so after the
    first round only pairs with a member of the last round's new sets are
    met, and only partners b at or after a: meets and witness unions are
    symmetric, so every witness is that of the full sweep.  Each set's
    sorted members are computed once, for the round sort that the
    witnesses depend on.

    The final order reads a weight per set: element i weighs
    `1 << (n - 1 - r)` for r the rank of its name among the sorted names,
    and a set weighs the sum over its members.  Among sets of one size,
    the sorted name lists compare as the negated weights.  A weight is a
    bit mask with the bits permuted, so a meet's weight is the AND of its
    halves' weights, and no name list is built per set.
    """
    found = {}
    for i, node in enumerate(base._down):
        found.setdefault(node, 1 << i)
    members = {s: _indices(s) for s in found}
    names = base.elements
    n = len(names)
    rank_weight = [0] * n
    for r, i in enumerate(sorted(range(n), key=names.__getitem__)):
        rank_weight[i] = 1 << (n - 1 - r)
    weight = {s: sum(map(rank_weight.__getitem__, m)) for s, m in members.items()}
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
                    found[c] = found[a] | found[b]
                    members[c] = _indices(c)
                    weight[c] = weight[a] & weight[b]
                    new.add(c)
        last = new
    nodes = sorted(found, key=lambda s: (s.bit_count(), -weight[s]))
    return nodes, [found[s] for s in nodes]


class IntersectionPoset:
    """The nodes of `_meet_closure` ordered by inclusion.

    `nodes` holds each node as a frozen set of base indices and `witnesses`
    its generating subset as a sorted index tuple.  The node poset names
    each node by `subset_name`, and `lambda_map` locates L(i).
    """

    __slots__ = ("base", "poset", "nodes", "lambda_map", "witnesses")

    def __init__(self, base):
        self.base = base
        masks, witnesses = _meet_closure(base)
        self.nodes = tuple(frozenset(_indices(s)) for s in masks)
        self.witnesses = tuple(tuple(_indices(w)) for w in witnesses)
        # a subset is never longer, so it sits at or before its superset
        down_masks = [
            sum(1 << j for j, t in enumerate(masks[: k + 1]) if t & s == t)
            for k, s in enumerate(masks)
        ]
        self.poset = Poset([subset_name(base, s) for s in self.nodes], down_masks)
        position = {s: k for k, s in enumerate(masks)}
        self.lambda_map = tuple(position[s] for s in base._down)

    def __len__(self):
        return len(self.nodes)


def bounds(poset, subset, direction):
    """The set of common lower or upper bounds of a subset.

    X^- is the intersection of the down-sets of the members of X, X^+ the
    intersection of the up-sets; for the empty subset both equal the whole
    carrier.  The subset is a collection of element indices or an int bit
    mask, each member checked against the poset's range; the result is a
    frozenset of indices.
    """
    if direction not in ("lower", "upper"):
        raise PosetError("direction must be 'lower' or 'upper'")
    table = poset._down if direction == "lower" else poset._up
    result = (1 << len(poset.elements)) - 1
    for x in _indices(_mask(poset, subset)):
        result &= table[x]
    return frozenset(_indices(result))


def chains(poset, n):
    """All strictly decreasing chains c_0 > c_1 > ... > c_n.

    Degree k follows each cached chain of degree k-1 by every element
    strictly below its last one, in increasing order, which keeps every
    degree sorted; each degree is enumerated once per poset and later calls
    return the same tuple of index tuples.
    """
    if type(n) is not int or n < 0:
        raise PosetError("chain degree %r must be a nonnegative int" % (n,))
    cache = poset._chains
    if n not in cache:
        below = [_indices(m ^ 1 << i) for i, m in enumerate(poset._down)]
        if not cache:
            cache[0] = tuple((i,) for i in range(len(below)))
        for k in range(len(cache), n + 1):
            cache[k] = tuple(c + (j,) for c in cache[k - 1] for j in below[c[-1]])
    return cache[n]


def components(poset, members=None):
    """Connected components of the comparability graph, as sorted index lists.

    `members` is the subset of the elements to work within, a collection of
    element indices or an int bit mask (default: every element); the graph
    is then that of the subposet they induce, given in the poset's own
    indices.  Components are listed by their smallest element index.
    """
    return [_indices(part) for part in _components(poset, _mask(poset, members))]


def _components(poset, todo):
    """`components` within a checked mask, as a list of component masks."""
    down, up = poset._down, poset._up
    out = []
    while todo:
        part = frontier = todo & -todo
        todo ^= part
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            i = low.bit_length() - 1
            reached = (down[i] | up[i]) & todo
            todo ^= reached
            frontier |= reached
            part |= reached
        out.append(part)
    return out


def core(poset, members=None):
    """What remains after removing beat points one at a time.

    A beat point has exactly one lower cover or exactly one upper cover among
    the elements still present.  Removing one is a strong deformation retract
    of the order complex (Stong, "Finite topological spaces", Trans. AMS 123,
    1966), so the subposet induced on the core has the homology of the poset.
    `members` is the subset of the elements to work within, a collection of
    element indices or an int bit mask (default: every element), so the
    core of an induced subposet is found without building that subposet.
    Each pass tries the elements present at its start in ascending index
    order, each against the elements present at that point.  Returns the
    sorted indices that remain, in the poset's own indices.
    """
    return _indices(_core(poset, _mask(poset, members)))


def _core(poset, present):
    """`core` within a checked mask, as the mask of the elements that remain."""
    tables = poset._down, poset._up
    removed = True
    while removed:
        removed = False
        todo = present
        while todo:
            bit = todo & -todo
            todo ^= bit
            i = bit.bit_length() - 1
            for table in tables:
                # the others below (above) i have one cover exactly when they
                # have a greatest (least) element j, one whose down-set
                # (up-set) holds them all; `rest` stops at j, or runs out
                others = (table[i] & present) ^ bit
                rest = others
                while rest:
                    low = rest & -rest
                    if table[low.bit_length() - 1] & others == others:
                        break
                    rest ^= low
                if rest:
                    present ^= bit
                    removed = True
                    break
    return present


def induced_subposet(poset, subset):
    """The restriction of the order to a nonempty subset, names preserved.

    The subset is a collection of element indices or an int bit mask; the
    subposet's down-sets are handed to `Poset` as masks over the members
    in ascending index order.
    """
    indices = _indices(_mask(poset, subset))
    if not indices:
        raise PosetError("induced subposet needs a nonempty subset")
    elements = [poset.elements[i] for i in indices]
    down = [
        sum(1 << new for new, j in enumerate(indices) if poset._down[i] >> j & 1)
        for i in indices
    ]
    return Poset(elements, down)


def parse_poset(doc):
    """Build a poset from a description with 'elements' and 'relations'.

    Relation pairs [a, b] assert a <= b; they may be arbitrary assertions, not
    only covers.  The reflexive-transitive closure is taken on down-set
    masks by Warshall's algorithm (J. ACM 9, 1962): for each k in turn,
    every down-set holding k takes in the down-set of k.  Raises
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
    down = [1 << i for i in range(n)]
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
        down[index[high]] |= 1 << index[low]
    for k in range(n):
        for i in range(n):
            if down[i] >> k & 1:
                down[i] |= down[k]
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
    extension becomes a relation with the given probability, and the order
    is closed as it is drawn, so the output is always a valid poset and
    density 0 yields an antichain.  Pairs are drawn row by row, so when pair
    (a, b) is chosen the down-set of a is already closed and is ORed into
    that of b.  Raises PosetError naming a count that is not an int or a
    density that is a bool or not a number.
    """
    if type(n) is not int:
        raise PosetError("element count must be an int, got %r" % (n,))
    if n < 1:
        raise PosetError("element count must be positive")
    if isinstance(density, bool) or not isinstance(density, (int, float)):
        raise PosetError("density must be a number, got %r" % (density,))
    if not 0 <= density <= 1:
        raise PosetError("density must lie in [0, 1]")
    rng = random.Random(seed)
    width = len(str(n - 1)) if n > 1 else 1
    elements = ["x%0*d" % (width, i) for i in range(n)]
    ranks = list(range(n))
    rng.shuffle(ranks)
    down = [1 << i for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                down[ranks[b]] |= down[ranks[a]]
    return Poset(elements, down)
