"""Record the pinned answers and the baseline of the benchmark.

Usage, from the repository root:

    python3 perfbench/record.py pins           # writes perfbench/pinned.json
    python3 perfbench/record.py baseline LABEL # writes perfbench/BENCH_<LABEL>.json

`pins` plans every workload on its pinned seed, runs each case once in a
fresh process, cross-checks every answer against the program's independent
routes (and, where it finishes within ORACLE_LIMIT_S, against the full
`compare --oracle` route), and records the input and answer digests.  It
refuses to write anything if a check fails.

`baseline` runs every workload on its pinned seed with tracing off and on,
and writes the end-to-end and per-layer results together with each case's
size, the admission strata, the measured cost of the excluded tail and the
self-time share of each module.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import signal
import sys
import time

import run

ORACLE_LIMIT_S = 10
TAIL_LIMIT_S = 20
# the run length the benchmark declares, so the baseline takes as many passes as a benchmark run
with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    BASELINE_SECONDS = json.load(_handle)["run_seconds"]


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def _timed_cli(argv, limit):
    """(rc, stdout, seconds) of one in-process CLI call, or None past `limit`."""
    from posetcoh.cli import main

    out = io.StringIO()
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    except _Timeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return rc, out.getvalue(), time.perf_counter() - start


def record_pins(workloads):
    pins = {}
    for name, workload in workloads.WORKLOADS.items():
        seed = workloads.PINNED_SEED
        cases, _, _ = workload.plan(seed)
        workdir = run.WORK / ("record-%s" % name)
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            paths = run.write_inputs(workloads, cases, workdir)
            result = run.run_worker(workdir, "plain", 0)
            problems = run.check_samples(workloads, cases, paths, result["samples"], workdir)
            entries = []
            for case in cases:
                sample = result["samples"][case["id"]]
                if sample["error"] or problems[case["id"]]:
                    raise SystemExit("%s: %s" % (case["id"], sample["error"] or problems[case["id"]]))
                entry = dict(run.pin_view(case), rc=sample["rc"], out_sha256=run.digest(sample["out"]))
                if case["kind"] in ("presheaf", "diagram"):
                    argv = workloads.case_argv(case, paths[case["id"]])
                    entry["oracle_checked"] = _oracle_agrees(workdir, argv, sample)
                entries.append(entry)
        finally:
            run.shutil.rmtree(workdir, ignore_errors=True)
        pins[name] = {"seed": seed, "cases": entries}
        checked = sum(1 for e in entries if e.get("oracle_checked"))
        print("%s: %d cases recorded, %d also checked by compare --oracle" % (name, len(entries), checked))
    with open(run.PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _oracle_agrees(workdir, argv, sample):
    """True when `compare --oracle` finishes in time and repeats the answer."""
    with contextlib.chdir(workdir):
        outcome = _timed_cli(argv + ["--oracle"], ORACLE_LIMIT_S)
    if outcome is None:
        return False
    rc, out, _ = outcome
    if rc == 2 or (rc, out) != (sample["rc"], sample["out"]):
        raise SystemExit("compare --oracle disagrees: %s" % " ".join(argv))
    return True


def _excluded_tail(workloads, workload):
    """The measured cost of excluded candidates above the top stratum.

    One run each of the median, the 90th-percentile and the largest of
    them by size, stopped after TAIL_LIMIT_S.
    """
    _, excluded, scanned = workload.plan(workloads.PINNED_SEED)
    top = max(bins[-1][1] for bins in workload.strata.values())
    above = sorted((spec for spec in excluded if spec["size"] >= top), key=lambda spec: spec["size"])
    tail = [above[int(q * (len(above) - 1))] for q in (0.5, 0.9, 1.0)] if above else []
    workdir = run.WORK / ("tail-%s" % workload.name)
    workdir.mkdir(parents=True, exist_ok=True)
    rows = []
    try:
        paths = run.write_inputs(workloads, [dict(spec, id="tail-%d" % k) for k, spec in enumerate(tail)], workdir)
        for k, spec in enumerate(tail):
            with contextlib.chdir(workdir):
                outcome = _timed_cli(workloads.case_argv(spec, paths["tail-%d" % k]), TAIL_LIMIT_S)
            rows.append(
                {
                    "spec": {key: spec[key] for key in ("kind", "n", "poset_seed", "seed") if key in spec},
                    "size": spec["size"],
                    "seconds": round(outcome[2], 3) if outcome else ">%d" % TAIL_LIMIT_S,
                }
            )
    finally:
        run.shutil.rmtree(workdir, ignore_errors=True)
    below = sum(1 for spec in excluded if spec["size"] < top)
    return {
        "candidates_scanned": scanned,
        "excluded_above_top_stratum": len(excluded) - below,
        "excluded_below_bottom_stratum": below,
        "measured": rows,
    }


def record_baseline(workloads, label):
    pins = run.load_pins()
    out = {
        "label": label,
        "machine": "%s, %s, Python %s" % (platform.machine(), platform.processor() or "cpu", platform.python_version()),
        "cpus": run.os.cpu_count(),
        "seconds": BASELINE_SECONDS,
        "time_basis": "times are at reference speed (see worker.py); raw_pass_s is pass_s as measured",
        "workloads": {},
    }
    for name, workload in workloads.WORKLOADS.items():
        seed = workloads.PINNED_SEED
        plain = run.run_workload(workloads, name, seed, BASELINE_SECONDS, False, pins)
        run.print_report(plain, False)
        traced = run.run_workload(workloads, name, seed, BASELINE_SECONDS, True, pins)
        run.print_report(traced, True)
        out["workloads"][name] = {
            "why": workload.why,
            "seed": seed,
            "admission": {
                "rule": "in stream order, a case enters the first stratum of its kind whose "
                "[low, high) size range holds its size, until every stratum holds its quota",
                "strata": {kind: [list(b) for b in bins] for kind, bins in workload.strata.items()},
            },
            "end_to_end": dict(plain["end_to_end"], failed_ratio=plain["failed"] / plain["attempted"]),
            "tail": plain["tail"],
            "raw_pass_s": plain["raw_pass_s"],
            "passes": plain["passes"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "per_layer": {key: traced["layers"][key] for key, _ in run.PER_LAYER},
            "layer_self_share": traced["layer_shares"],
            "trace_overhead": traced["trace_overhead"],
            "case_sizes": plain["case_sizes"],
        }
    # the excluded tail runs in this process, after every timed run
    for name, workload in workloads.WORKLOADS.items():
        out["workloads"][name]["excluded_tail"] = _excluded_tail(workloads, workload)
    path = run.HERE / ("BENCH_%s.json" % label)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % path)


def main(argv):
    workloads = run.import_program()
    if argv[:1] == ["pins"]:
        record_pins(workloads)
    elif len(argv) == 2 and argv[0] == "baseline":
        record_baseline(workloads, argv[1])
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
