"""posetcoh benchmark: timed CLI workloads with checked answers.

Usage, from the repository root:

    python3 perfbench/run.py --workload {compare,criterion,fuzz,all} \\
        --seed N --seconds S --trace {0,1}

A run plans the workload's case set from the seed (see workloads.py), writes
the input documents under .perfbench-work/, and then runs a fixed number
of passes over the whole case set, one after another, each pass in a fresh
worker process.  The pass count is a function of S and the workload alone
(see pass_count), so both sides of a comparison take the same number of
samples; a run whose passes take longer than CAP_FACTOR * S fails.  Times
are taken at reference speed (see worker.py), which takes out most of the
slow phases of a shared host.  Every answer is checked: on the pinned seed
against digests recorded at the seed commit (pinned.json), on any other
seed against the program's independent routes.  The pinned seed's plan
and documents are regenerated on every run, so a change to the input
generators or to admission fails the run loudly.

With --trace 0 the last line of standard output carries the end-to-end
metrics; with --trace 1, as many plain as traced passes alternate and it
carries the per-layer metrics of the traced passes.  Lines before it are a
human-readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pinned.json"
WORK = ROOT / ".perfbench-work"

MIN_PASSES = 4
# passes run at nominal speed take S seconds; a host slow phase can double that
CAP_FACTOR = 4
WORKER_TIMEOUT_S = 100
TAIL_GRID = (0.5, 0.75, 0.8, 0.9, 0.95, 0.975, 0.99)

END_TO_END = (
    ("pass_s", "s"),
    ("case_p50_ms", "ms"),
    ("case_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("linalg.snf.calls", "count"),
    ("linalg.snf.self_s", "s"),
    ("linalg.snf.cells", "count"),
    ("linalg.snf.max_bits", "bits"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.self_s", "s"),
    ("linalg.matmul.calls", "count"),
    ("linalg.matmul.self_s", "s"),
    ("linalg.matmul.mults", "count"),
    ("groups.in_relation_lattice.calls", "count"),
    ("groups.hom_well_defined.calls", "count"),
    ("groups.hom_well_defined.incl_s", "s"),
    ("groups.homs_equal.calls", "count"),
    ("groups.homs_equal.incl_s", "s"),
    ("groups.is_zero_hom.calls", "count"),
    ("groups.is_zero_hom.incl_s", "s"),
    ("groups.is_isomorphism.calls", "count"),
    ("groups.is_isomorphism.incl_s", "s"),
    ("groups.canonical_form.calls", "count"),
    ("complexes.Complex.init.calls", "count"),
    ("complexes.Complex.init.incl_s", "s"),
    ("complexes.ChainMap.verify.calls", "count"),
    ("complexes.ChainMap.verify.incl_s", "s"),
    ("complexes.homology.calls", "count"),
    ("complexes.homology.repeat_ratio", "ratio"),
    ("complexes.homology_at.calls", "count"),
    ("complexes.homology_at.self_s", "s"),
    ("complexes.homology_at.incl_s", "s"),
    ("complexes.induced_on_homology.calls", "count"),
    ("complexes.induced_on_homology.incl_s", "s"),
    ("complexes.simplicial_homology.calls", "count"),
    ("complexes.simplicial_homology.incl_s", "s"),
    ("complexes.acyclicity_check.calls", "count"),
    ("complexes.acyclicity_check.incl_s", "s"),
    ("complexes.acyclicity_check.homology_ratio", "ratio"),
    ("diagrams.Diagram.init.calls", "count"),
    ("diagrams.Diagram.init.incl_s", "s"),
    ("diagrams.reduced_complex.incl_s", "s"),
    ("diagrams.sheafify_value.calls", "count"),
    ("diagrams.sheafify_value.incl_s", "s"),
    ("poset.parse_poset.incl_s", "s"),
    ("poset.IntersectionPoset.calls", "count"),
    ("poset.IntersectionPoset.incl_s", "s"),
    ("poset.chains.calls", "count"),
    ("poset.chains.incl_s", "s"),
    ("poset.chains.out", "count"),
    ("cuts.criterion.calls", "count"),
    ("cuts.criterion.incl_s", "s"),
    ("cuts.criterion.cuts_examined", "count"),
    ("cuts.enumerate_cuts.incl_s", "s"),
    ("cech.compare_report.incl_s", "s"),
    ("cech.comparison_chain_map.incl_s", "s"),
    ("cech.sheaf_presheaf.incl_s", "s"),
    ("documents.load_presheaf.incl_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.incl_s", "s"),
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a valid measurement."""


def import_program():
    if not (SRC / "posetcoh" / "__init__.py").is_file():
        raise BenchmarkError("no posetcoh sources at %s" % SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import posetcoh

    if Path(posetcoh.__file__).resolve().parent != SRC / "posetcoh":
        raise BenchmarkError("posetcoh was imported from %s, not %s" % (posetcoh.__file__, SRC))
    import workloads

    return workloads


# --- planning and pins -----------------------------------------------------

PIN_KEYS = ("id", "kind", "n", "density", "poset_seed", "seed", "size", "docs_sha256")


def pin_view(case):
    return {key: case[key] for key in PIN_KEYS if key in case}


def load_pins():
    if not PINS.is_file():
        raise BenchmarkError("missing %s; run perfbench/record.py" % PINS)
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


def verify_pins(workload, pins, cases):
    """Compares the pinned seed's plan, made now, with the recorded one."""
    entry = pins[workload.name]
    recorded = [pin_view(case) for case in entry["cases"]]
    if [pin_view(case) for case in cases] != recorded:
        for now, then in zip(cases, recorded):
            if pin_view(now) != then:
                raise BenchmarkError(
                    "pinned inputs changed for %s seed %d at %s: the input generators, "
                    "document rendering or admission now differ from the recording"
                    % (workload.name, entry["seed"], then["id"])
                )
        raise BenchmarkError("pinned case count changed for %s" % workload.name)


# --- passes ----------------------------------------------------------------


def write_inputs(workloads, cases, workdir):
    """Writes each case's documents and the workers' manifest; returns the
    document file names by case id and role."""
    argv, paths = {}, {}
    for case in cases:
        docs = workloads.case_documents(case)
        paths[case["id"]] = {}
        for role, doc in docs.items():
            name = "%s.%s.json" % (case["id"], role)
            with open(workdir / name, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            paths[case["id"]][role] = name
        argv[case["id"]] = workloads.case_argv(case, paths[case["id"]])
    manifest = {"src": str(SRC), "bench": str(HERE), "cases": cases, "argv": argv}
    with open(workdir / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return paths


def run_worker(workdir, mode, k):
    """Runs pass k in a fresh worker process and returns its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(workdir / "manifest.json"), mode, str(k),
           str(workdir / "result.json")]
    with open(workdir / "stderr.txt", "w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.DEVNULL, stderr=err)
    try:
        proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError("%s worker %d exceeded %d s" % (mode, k, WORKER_TIMEOUT_S))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        stderr = (workdir / "stderr.txt").read_text(encoding="utf-8")
        raise BenchmarkError("%s worker %d failed:\n%s" % (mode, k, stderr[-2000:]))
    with open(workdir / "result.json", encoding="utf-8") as handle:
        return json.load(handle)


def pass_count(workload, seconds, trace):
    """(plain, traced) passes of a run: as many as fit in `seconds` at the
    workload's nominal pass time, never fewer than MIN_PASSES.  A traced run
    alternates plain and traced passes."""
    total = max(MIN_PASSES, int(seconds // workload.nominal_pass_s))
    return (total - total // 2, total // 2) if trace else (total, 0)


def tail_quantile(count):
    """The highest grid percentile with at least ten of `count` values beyond it."""
    return max(q for q in TAIL_GRID if round(count * (1 - q), 9) >= 10 or q == TAIL_GRID[0])


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(round(q * len(ordered), 9)) - 1)]


def _timing_metrics(passes, cases):
    """End-to-end metrics from pass results over the same cases.

    A case's time is its median over the passes, at reference speed.
    Returns the metrics, the tail's sample counts and, for the report,
    pass_s from the times as measured.
    """
    times = [statistics.median(p["samples"][case["id"]]["t"] for p in passes) for case in cases]
    raw = [statistics.median(p["samples"][case["id"]]["raw_t"] for p in passes) for case in cases]
    q = tail_quantile(len(times))
    return {
        "pass_s": sum(times),
        "case_p50_ms": 1000 * statistics.median(times),
        "case_tail_ms": 1000 * nearest_rank(times, q),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }, {"tail_quantile": q, "cases": len(times), "samples": len(times) * len(passes)}, sum(raw)


def _judge(passes, cases, reference):
    """(attempted, failed, reasons) over every sample of every pass."""
    attempted = failed = 0
    reasons = {}
    for p in passes:
        for case in cases:
            sample = p["samples"][case["id"]]
            attempted += 1
            got = (sample["rc"], digest(sample["out"]))
            want = reference.get(case["id"])
            if sample["error"] or want is None or got != want:
                failed += 1
                reasons.setdefault(case["id"], sample["error"] or "answer differs from the reference")
    return attempted, failed, reasons


def check_samples(workloads, cases, paths, samples, workdir):
    """Per case id, None or the reason its answer fails an independent route."""
    with contextlib.chdir(workdir):
        return {
            case["id"]: workloads.check_answer(
                case,
                paths[case["id"]],
                workloads.case_documents(case),
                samples[case["id"]]["rc"],
                samples[case["id"]]["out"],
            )
            for case in cases
        }


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_workload(workloads, name, seed, seconds, trace, pins):
    """Plans, runs and checks one workload; returns the full report."""
    workload = workloads.WORKLOADS[name]
    cases, excluded, scanned = workload.plan(seed)
    pinned = seed == pins[name]["seed"]
    verify_pins(workload, pins, cases if pinned else workload.plan(pins[name]["seed"])[0])

    workdir = WORK / ("%s-%d-%d" % (name, seed, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = write_inputs(workloads, cases, workdir)

        total = sum(pass_count(workload, seconds, trace))
        plain, traced = [], []
        start = time.perf_counter()
        for k in range(total):
            mode = "traced" if trace and k % 2 else "plain"
            (traced if mode == "traced" else plain).append(run_worker(workdir, mode, k))
            if time.perf_counter() - start > CAP_FACTOR * seconds:
                raise BenchmarkError(
                    "%d passes of %s took over %g s, %d times the run length"
                    % (k + 1, name, CAP_FACTOR * seconds, CAP_FACTOR)
                )
        measured_s = time.perf_counter() - start

        if pinned:
            reference = {c["id"]: (c["rc"], c["out_sha256"]) for c in pins[name]["cases"]}
            problems = {}
        else:
            first = plain[0]["samples"]
            problems = check_samples(workloads, cases, paths, first, workdir)
            reference = {
                cid: (first[cid]["rc"], digest(first[cid]["out"]))
                for cid in first
                if problems[cid] is None and not first[cid]["error"]
            }
        attempted, failed, reasons = _judge(plain + traced, cases, reference)
        for cid, problem in problems.items():
            if problem:
                reasons[cid] = problem
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    metrics, tail, raw_pass_s = _timing_metrics(plain, cases)
    report = {
        "workload": name,
        "seed": seed,
        "pinned_seed": pinned,
        "cases": len(cases),
        "candidates_scanned": scanned,
        "excluded": len(excluded),
        "passes": len(plain),
        "traced_passes": len(traced),
        "measured_s": measured_s,
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
        "end_to_end": metrics,
        "tail": tail,
        "raw_pass_s": raw_pass_s,
        "case_sizes": {c["id"]: c["size"] for c in cases},
    }
    if trace:
        traced_metrics, _, _ = _timing_metrics(traced, cases)
        report["trace_overhead"] = traced_metrics["pass_s"] / metrics["pass_s"]
        layers = {key: statistics.median(p["layers"][key] for p in traced) for key in traced[0]["layers"]}
        report["layers"] = layers
        report["layer_shares"] = layer_shares(layers)
    return report


def layer_shares(layers):
    """Each module's share of the summed self time of all traced calls."""
    total = layers["cli.main.incl_s"]
    shares = {}
    for key, value in layers.items():
        if key.endswith(".self_s"):
            module = key.split(".")[0]
            shares[module] = shares.get(module, 0.0) + value
    return {module: value / total for module, value in sorted(shares.items())} if total else {}


# --- output ----------------------------------------------------------------


def contract_line(report, trace):
    if trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": report["end_to_end"][name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def print_report(report, trace):
    w = report["workload"]
    print("== %s (seed %d%s): %d cases, %d plain passes%s in %.1f s"
          % (w, report["seed"], ", pinned" if report["pinned_seed"] else ", held out",
             report["cases"], report["passes"],
             ", %d traced" % report["traced_passes"] if trace else "", report["measured_s"]))
    e = report["end_to_end"]
    for name, unit in END_TO_END:
        note = ""
        if name == "case_tail_ms":
            note = "  (p%g over %d cases, %d samples)" % (
                100 * report["tail"]["tail_quantile"], report["tail"]["cases"], report["tail"]["samples"])
        print("  %-14s %12.4f %s%s" % (name, e[name], unit, note))
    print("  %-14s %12.4f s      (pass_s as measured, not at reference speed)" % ("raw_pass_s", report["raw_pass_s"]))
    ratio = report["failed"] / report["attempted"] if report["attempted"] else 0.0
    print("  %-14s %12.4f ratio  (%d of %d samples)" % ("failed_ratio", ratio, report["failed"], report["attempted"]))
    for cid, reason in sorted(report["failures"].items())[:5]:
        print("  FAILED %s: %s" % (cid, reason.strip().splitlines()[-1] if reason else ""))
    if trace:
        print("  trace overhead %.2fx (traced pass_s over plain pass_s)" % report["trace_overhead"])
        print("  self-time share by module: " + ", ".join(
            "%s %.1f%%" % (m, 100 * s) for m, s in sorted(report["layer_shares"].items(), key=lambda kv: -kv[1])))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads = import_program()
        if args.workload != "all" and args.workload not in workloads.WORKLOADS:
            raise BenchmarkError("unknown workload %r" % args.workload)
        pins = load_pins()
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        lines = {}
        for name in names:
            report = run_workload(workloads, name, args.seed, args.seconds, bool(args.trace), pins)
            print_report(report, bool(args.trace))
            lines[name] = contract_line(report, bool(args.trace))
    except RuntimeError as exc:  # BenchmarkError, or AdmissionError from planning
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
