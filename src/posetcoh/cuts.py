"""Dedekind-MacNeille cuts and the acyclicity criterion for agreement.

Every nonempty set of lower bounds is a nonempty meet of down-sets, so one
cut per set of `poset.meet_closure` enumerates exactly the cuts with
nonempty lower half.  The criterion passes when the upper section of every
such cut has the integer homology of a point; two structural fast paths
decide the verdict without any homology work and can be disabled for a
full recheck.
"""

from __future__ import annotations

from itertools import combinations

from .complexes import acyclicity_check
from .poset import bounds, components, meet_closure


class Cut:
    """A pair of mutually closing index sets with a generating witness."""

    __slots__ = ("lower", "upper", "witness")

    def __init__(self, lower, upper, witness):
        self.lower = lower
        self.upper = upper
        self.witness = witness

    def __repr__(self):
        return "Cut(%s, %s)" % (sorted(self.lower), sorted(self.upper))


def enumerate_cuts(P):
    """All cuts with nonempty lower half, one per `meet_closure` node, in order.

    A node is the meet of its witness's down-sets, so the witness lies in the
    node's upper bounds, whose lower bounds are the node again.
    """
    return [
        Cut(node, bounds(P, node, "upper"), witness)
        for node, witness in zip(*meet_closure(P))
    ]


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
    return all(any(P.down[g].issuperset(comp) for g in comp) for comp in components(P))


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
    principal = set(P.down)
    meets = (a & b for a, b in combinations(P.down, 2))
    return all(not common or common in principal for common in meets)


def criterion(P, shortcuts=True):
    """PASS exactly when every cut's upper section is acyclic."""
    if shortcuts:
        if _components_upward_directed(P):
            return CriterionReport(0, [], "directed-components")
        if principal_meets(P):
            return CriterionReport(0, [], "semilattice")
    failures = []
    cuts = enumerate_cuts(P)
    for cut in cuts:
        verdict = acyclicity_check(P, shortcuts=shortcuts, members=cut.upper)
        if not verdict:
            failures.append((cut, verdict.degree, verdict.group))
    # with shortcuts some cut took the least-element path: x is least in the U(x) of <L(x), U(x)>
    return CriterionReport(len(cuts), failures, "least-element" if shortcuts else "none")
