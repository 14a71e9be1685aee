"""Outside-in layer tracer for posetcoh.

The tracer replaces public functions and methods of the posetcoh modules by
timing wrappers, from outside the package; nothing under `src/` knows about
it.  Modules bind names with `from .linalg import snf` and the like, so a
function is replaced in every posetcoh module that holds it; methods are
replaced on their class.  `uninstall` puts every original back.

Each call is a span: name, start, end, parent span and case id.  A span's
self time is its duration minus the durations of its child spans, so the
self times of one case add up to its `cli.main` span.  Counters are taken
at the same boundaries; the time a counter takes is a span of its own,
`tracer.hooks`, a child of the caller, so tracer work is never charged to
the self time of posetcoh code.  `IntMatrix.apply` runs about a million
times in a heavy case, so it is not wrapped; its work shows in `solve` and
`matmul`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, metric stem); "Class.method" attributes are methods.
TARGETS = (
    ("linalg", "snf", "linalg.snf"),
    ("linalg", "SmithDecomposition.solve", "linalg.solve"),
    ("linalg", "IntMatrix.__mul__", "linalg.matmul"),
    ("groups", "PresentedAbGroup.in_relation_lattice", "groups.in_relation_lattice"),
    ("groups", "hom_well_defined", "groups.hom_well_defined"),
    ("groups", "homs_equal", "groups.homs_equal"),
    ("groups", "is_zero_hom", "groups.is_zero_hom"),
    ("groups", "is_isomorphism", "groups.is_isomorphism"),
    ("groups", "canonical_form", "groups.canonical_form"),
    ("complexes", "Complex.__init__", "complexes.Complex.init"),
    ("complexes", "ChainMap.verify", "complexes.ChainMap.verify"),
    ("complexes", "Complex.homology", "complexes.homology"),
    ("complexes", "homology_at", "complexes.homology_at"),
    ("complexes", "induced_on_homology", "complexes.induced_on_homology"),
    ("complexes", "simplicial_homology", "complexes.simplicial_homology"),
    ("complexes", "acyclicity_check", "complexes.acyclicity_check"),
    ("diagrams", "Diagram.__init__", "diagrams.Diagram.init"),
    ("diagrams", "reduced_complex", "diagrams.reduced_complex"),
    ("diagrams", "sheafify_value", "diagrams.sheafify_value"),
    ("poset", "parse_poset", "poset.parse_poset"),
    ("poset", "IntersectionPoset.__init__", "poset.IntersectionPoset"),
    ("poset", "chains", "poset.chains"),
    ("cuts", "criterion", "cuts.criterion"),
    ("cuts", "enumerate_cuts", "cuts.enumerate_cuts"),
    ("cech", "compare_report", "cech.compare_report"),
    ("cech", "Presheaf.comparison_chain_map", "cech.comparison_chain_map"),
    ("cech", "sheaf_presheaf", "cech.sheaf_presheaf"),
    ("documents", "load_presheaf", "documents.load_presheaf"),
    ("cli", "main", "cli.main"),
)

ROOT = "cli.main"
HOOKS = "tracer.hooks"

COUNTERS = (
    "linalg.snf.cells",
    "linalg.snf.max_bits",
    "linalg.matmul.mults",
    "poset.chains.out",
    "complexes.homology.repeats",
    "complexes.acyclicity_check.via_homology",
    "cuts.criterion.cuts_examined",
)


def _max_bits(dec):
    return max(
        (abs(a).bit_length() for m in (dec.U, dec.D, dec.V) for row in m.entries for a in row),
        default=0,
    )


class Tracer:
    """Spans and counters for the posetcoh calls of one process."""

    def __init__(self):
        self.spans = []  # (stem, start, end, parent span index or None, case id)
        self.stats = {stem: [0, 0.0, 0.0] for stem in [t[2] for t in TARGETS] + [HOOKS]}  # calls, incl, self
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []  # [span index, start, child time]
        self._restore = []
        self._case = None
        self._seen = {}

    # -- installation ------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items()) if name == "posetcoh" or name.startswith("posetcoh.")]
        for module_name, attr, stem in TARGETS:
            module = importlib.import_module("posetcoh." + module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(stem, original))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(stem, original)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, name, original))
                            setattr(m, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []

    # -- cases ---------------------------------------------------------------

    def begin_case(self, case_id):
        self._case = case_id
        self._seen = {}

    def end_case(self):
        if self._stack:
            raise RuntimeError("case ended inside an open span")
        self._case = None
        self._seen = {}

    # -- spans ---------------------------------------------------------------

    def _wrap(self, stem, fn):
        count = getattr(self, "_count_" + stem.replace(".", "_"), None)
        clock = time.perf_counter
        spans, stack, stats, hooks = self.spans, self._stack, self.stats[stem], self.stats[HOOKS]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                spans[index] = (stem, frame[1], end, parent, self._case)
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if count is not None:
                hook_start = clock()
                count(args, result)
                hook_end = clock()
                spans.append((HOOKS, hook_start, hook_end, stack[-1][0] if stack else None, self._case))
                hooks[0] += 1
                hooks[1] += hook_end - hook_start
                hooks[2] += hook_end - hook_start
                if stack:
                    stack[-1][2] += hook_end - hook_start
            return result

        return wrapper

    # -- counters ------------------------------------------------------------

    def _count_linalg_snf(self, args, result):
        M = args[0]
        self.counters["linalg.snf.cells"] += M.rows * M.cols
        bits = _max_bits(result)
        if bits > self.counters["linalg.snf.max_bits"]:
            self.counters["linalg.snf.max_bits"] = bits

    def _count_linalg_matmul(self, args, result):
        left, right = args
        inner = right.cols if hasattr(right, "cols") else 1
        self.counters["linalg.matmul.mults"] += left.rows * left.cols * inner

    def _count_poset_chains(self, args, result):
        self.counters["poset.chains.out"] += len(result)

    def _count_complexes_homology(self, args, result):
        complex_, degree = args[0], args[1]
        key = (id(complex_), degree)
        if key in self._seen:
            self.counters["complexes.homology.repeats"] += 1
        else:
            self._seen[key] = complex_  # keeps the id from being reused in this case

    def _count_complexes_acyclicity_check(self, args, result):
        if result.via == "homology":
            self.counters["complexes.acyclicity_check.via_homology"] += 1

    def _count_cuts_criterion(self, args, result):
        self.counters["cuts.criterion.cuts_examined"] += result.cuts_examined

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per-layer metrics over everything traced so far."""
        out = {}
        for stem, (calls, incl, self_time) in self.stats.items():
            out[stem + ".calls"] = calls
            out[stem + ".incl_s"] = incl
            out[stem + ".self_s"] = self_time
        c = self.counters
        out["linalg.snf.cells"] = c["linalg.snf.cells"]
        out["linalg.snf.max_bits"] = c["linalg.snf.max_bits"]
        out["linalg.matmul.mults"] = c["linalg.matmul.mults"]
        out["poset.chains.out"] = c["poset.chains.out"]
        out["cuts.criterion.cuts_examined"] = c["cuts.criterion.cuts_examined"]
        out["complexes.homology.repeat_ratio"] = _ratio(
            c["complexes.homology.repeats"], self.stats["complexes.homology"][0]
        )
        out["complexes.acyclicity_check.homology_ratio"] = _ratio(
            c["complexes.acyclicity_check.via_homology"], self.stats["complexes.acyclicity_check"][0]
        )
        return out

    def case_self_times(self):
        """Per case: (sum of span self times, duration of its root span)."""
        child = [0.0] * len(self.spans)
        for stem, start, end, parent, case in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = {}
        for k, (stem, start, end, parent, case) in enumerate(self.spans):
            entry = totals.setdefault(case, [0.0, 0.0])
            entry[0] += end - start - child[k]
            if stem == ROOT:
                entry[1] += end - start
        return {case: tuple(v) for case, v in totals.items()}


def _ratio(part, whole):
    return part / whole if whole else 0.0
