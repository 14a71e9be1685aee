"""Dedekind-MacNeille cuts and the acyclicity criterion for agreement.

Every nonempty set of lower bounds is a nonempty meet of down-sets, so one
cut per set of `poset._meet_closure` enumerates exactly the cuts with
nonempty lower half.  The criterion passes when the upper section of every
such cut has the integer homology of a point; three structural fast paths,
all behind the one `shortcuts` switch of `criterion`, decide without any
homology work and can be disabled for a full recheck.
"""

from __future__ import annotations

from itertools import combinations

from .complexes import acyclicity_check
from .poset import _components, _indices, _mask, _meet_closure


class Cut:
    """A pair of mutually closing index sets with a generating witness."""

    __slots__ = ("lower", "upper", "witness")

    def __init__(self, lower, upper, witness):
        self.lower = lower
        self.upper = upper
        self.witness = witness

    def __repr__(self):
        return "Cut(%s, %s)" % (sorted(self.lower), sorted(self.upper))


def _cut_masks(P):
    """The (lower, upper, witness) bit masks of each cut, in `enumerate_cuts` order.

    A node is the meet of its witness's down-sets, so the witness lies in the
    node's upper bounds, the AND of its members' up-sets, whose lower bounds
    are the node again.  A node with a one-element witness x is ↓x, whose
    upper bounds are ↑x, read off the order table with no AND.
    """
    up = P._up
    everything = _mask(P, None)
    for lower, witness in zip(*_meet_closure(P)):
        if not witness & (witness - 1):
            yield lower, up[witness.bit_length() - 1], witness
            continue
        upper = everything
        rest = lower
        while rest:
            low = rest & -rest
            upper &= up[low.bit_length() - 1]
            rest ^= low
        yield lower, upper, witness


def _cut(lower, upper, witness):
    """The `Cut` of three masks: frozen index sets and a sorted witness tuple."""
    return Cut(frozenset(_indices(lower)), frozenset(_indices(upper)), tuple(_indices(witness)))


def enumerate_cuts(P):
    """All cuts with nonempty lower half, one per `_meet_closure` node, in order."""
    return [_cut(*masks) for masks in _cut_masks(P)]


class CriterionReport:
    """Cut count, failing cuts with degrees and groups, shortcut used; FAIL
    exactly when some cut fails."""

    __slots__ = ("verdict", "cuts_examined", "failures", "shortcut")

    def __init__(self, cuts_examined, failures, shortcut):
        self.failures = list(failures)
        self.verdict = "FAIL" if self.failures else "PASS"
        self.cuts_examined = cuts_examined
        self.shortcut = shortcut

    def __bool__(self):
        return self.verdict == "PASS"


def _components_upward_directed(P):
    """Each component is upward directed: being finite, it has a greatest element."""
    down = P._down
    return all(
        any(down[g] & comp == comp for g in _indices(comp))
        for comp in _components(P, _mask(P, None))
    )


def principal_meets(P):
    """Every nonempty meet of down-sets is principal.

    Equivalently the intersection poset has exactly len(P) nodes: each
    principal down-set is a node, distinct elements give distinct ones, and
    any other node is a nonempty meet that is not principal.  Binary meets
    suffice: when every nonempty one is principal, so is, by induction,
    every nonempty meet of several down-sets.
    After adjoining a bottom for the empty meets, these are the posets that
    are meet semilattices.

    Where it holds λ is an order isomorphism onto the node poset, so it
    matches the chains of nodes with the chains of principal opens and each
    block of the comparison cochain map is an identity: every ρ_n permutes
    coordinates, ρ is an isomorphism of complexes, and for every presheaf
    the Čech and topos cohomology agree in every degree.
    """
    down = P._down
    principal = set(down)
    meets = (a & b for a, b in combinations(down, 2))
    return all(not common or common in principal for common in meets)


def criterion(P, shortcuts=True):
    """PASS exactly when every cut's upper section is acyclic."""
    if shortcuts:
        if _components_upward_directed(P):
            return CriterionReport(0, [], "directed-components")
        if principal_meets(P):
            return CriterionReport(0, [], "semilattice")
    failures = []
    examined = 0
    # a principal lower half L = ↓x has U = ↑x, a cone on its least element x;
    # each ↓x is a cut, so with shortcuts on this path always runs
    principal = set(P._down) if shortcuts else ()
    for lower, upper, witness in _cut_masks(P):
        examined += 1
        if lower in principal:
            continue
        verdict = acyclicity_check(P, upper)
        if not verdict:
            failures.append((_cut(lower, upper, witness), verdict.degree, verdict.group))
    return CriterionReport(examined, failures, "least-element" if shortcuts else "none")
