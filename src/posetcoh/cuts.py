"""Dedekind-MacNeille cuts and the acyclicity criterion for agreement.

Every nonempty set of lower bounds is a node of the intersection poset, so
one cut per node enumerates exactly the cuts with nonempty lower half.  The
criterion passes when the upper section of every such cut has the integer
homology of a point; two structural fast paths decide the verdict without
any homology work and can be disabled for a full recheck.
"""

from __future__ import annotations

from .complexes import acyclicity_check
from .poset import IntersectionPoset, PosetError, bounds, components, subset_name


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
    """All cuts with nonempty lower half, one per intersection-poset node."""
    intersection = IntersectionPoset(P)
    cuts = []
    for k, node in enumerate(intersection.nodes):
        upper = bounds(P, node, "upper")
        # the witness generates the lower half, so it sits inside the upper
        # half and rules out an empty upper section
        if not upper.issuperset(intersection.witnesses[k]):
            raise PosetError(
                "cut %s: witness lies outside the upper half" % subset_name(P, node)
            )
        if bounds(P, upper, "lower") != node:
            raise PosetError(
                "cut %s: upper half does not close back to the lower half"
                % subset_name(P, node)
            )
        cuts.append(Cut(node, upper, intersection.witnesses[k]))
    return cuts


def upper_section_acyclicity(P, cut, shortcuts=True):
    """Whether the cut's upper section has point homology."""
    return acyclicity_check(P, shortcuts=shortcuts, members=cut.upper)


class CriterionReport:
    """Verdict, cut count, failing cuts with degrees and groups, shortcut used."""

    __slots__ = ("verdict", "cuts_examined", "failures", "shortcut")

    def __init__(self, verdict, cuts_examined, failures, shortcut):
        self.verdict = verdict
        self.cuts_examined = cuts_examined
        self.failures = list(failures)
        self.shortcut = shortcut
        if (verdict == "FAIL") != bool(self.failures):
            raise PosetError(
                "criterion verdict %s with %d failing cuts" % (verdict, len(self.failures))
            )

    def __bool__(self):
        return self.verdict == "PASS"


def _components_upward_directed(P):
    for comp in components(P):
        for a in comp:
            for b in comp:
                if a < b and not bounds(P, (a, b), "upper"):
                    return False
    return True


def _meet_semilattice_after_adjoining_bottom(P):
    """Every pairwise lower-bound set is empty or has a greatest element.

    Empty pairwise meets land on the adjoined bottom; nonempty ones must be
    principal down-sets.  Binary meets give all finite meets.
    """
    n = len(P.elements)
    for a in range(n):
        for b in range(a + 1, n):
            common = P.down[a] & P.down[b]
            if not common:
                continue
            if not any(common <= P.down[g] for g in common):
                return False
    return True


def criterion(P, shortcuts=True):
    """PASS exactly when every cut's upper section is acyclic."""
    if shortcuts:
        if _components_upward_directed(P):
            return CriterionReport("PASS", 0, [], "directed-components")
        if _meet_semilattice_after_adjoining_bottom(P):
            return CriterionReport("PASS", 0, [], "semilattice")
    failures = []
    cone_shortcut = False
    cuts = enumerate_cuts(P)
    for cut in cuts:
        verdict = upper_section_acyclicity(P, cut, shortcuts=shortcuts)
        if verdict.via == "least-element":
            cone_shortcut = True
        if not verdict:
            failures.append((cut, verdict.degree, verdict.group))
    return CriterionReport(
        "FAIL" if failures else "PASS",
        len(cuts),
        failures,
        "least-element" if cone_shortcut else "none",
    )
