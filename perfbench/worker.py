"""One timed pass over a planned case set, in a fresh process.

Usage: python3 worker.py MANIFEST {plain,traced} PASS_INDEX RESULT

The manifest names the source tree, the case list and the document files
the parent wrote.  A pass imports posetcoh, regenerates every case's
documents from its spec and checks them against the planned digests (this
is the pass's set-up), then calls `posetcoh.cli.main` once per case in a
pass-specific order, timing each call.  Every case runs once per process,
so no input reaches the same process twice.  The result JSON goes to
RESULT.

Times are reported twice: as measured, and at reference speed.  On a
shared host the same code runs up to twice as slow for seconds to minutes
at a time, while the guest sees neither CPU steal nor run-queue wait (the
neighbours slow the core, not the scheduling).  A fixed pure-Python
kernel, the speed probe, is timed right before and right after every
timed interval; the interval's time at reference speed is its measured
time times REFERENCE_PROBE_S over the probe's time around it.  On a 2-CPU
x86-64 box this cut the spread of one case's time between passes from
0.15-0.23 to 0.05-0.08 of its mean.  The probe does not call posetcoh, so
a change to the program leaves it alone.  It mixes small-integer
arithmetic with building, hashing and sorting small containers: posetcoh
case times followed the first kind alone with an elasticity of 0.8-0.9
and the second alone with 1.1-1.2, and the mix with 1.0.
"""

import contextlib
import gc
import io
import json
import random
import sys
import time
import traceback

# the speed probe's time on an idle 2-CPU x86-64 box (Python 3.11), so
# that times at reference speed read as seconds on that box
REFERENCE_PROBE_S = 0.33e-3
PROBE_REPEATS = 3


def _probe_kernel():
    rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(12)] for i in range(12)]
    total = 0
    for a in rows:
        for b in rows:
            total += sum(x * y for x, y in zip(a, b))
    table = {(i % 37, i % 11, i): [i, total % (i + 1), (i * 31) % 17] for i in range(300)}
    return total + len(sorted(table.items(), key=lambda kv: (kv[1][2], kv[0])))


def probe():
    """The fastest of PROBE_REPEATS timings of the speed probe, in seconds."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _probe_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def at_reference_speed(seconds, before, after):
    return seconds * REFERENCE_PROBE_S / ((before + after) / 2)


def _import_paths(manifest):
    sys.path.insert(0, manifest["src"])
    sys.path.insert(0, manifest["bench"])


def run_pass(manifest_path, pass_index, traced):
    before = probe()
    started = time.perf_counter()
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    _import_paths(manifest)
    import posetcoh.cli
    import workloads

    for case in manifest["cases"]:
        digest = workloads.documents_digest(workloads.case_documents(case))
        if digest != case["docs_sha256"]:
            raise RuntimeError("documents of %s changed between processes" % case["id"])

    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    setup_raw_s = time.perf_counter() - started
    setup_s = at_reference_speed(setup_raw_s, before, probe())

    order = list(range(len(manifest["cases"])))
    random.Random(pass_index).shuffle(order)
    samples = {}
    layer_times = {}
    # the probe after one case is the probe before the next
    speed = probe()
    try:
        for k in order:
            case = manifest["cases"][k]
            layers_before = tracer.summary() if tracer is not None else None
            sample, speed = _run_case(posetcoh.cli, manifest["argv"][case["id"]], tracer, case["id"], speed)
            samples[case["id"]] = sample
            if tracer is not None:
                # a case's layer times are scaled to reference speed like the case itself
                scale = sample["t"] / sample["raw_t"] if sample["raw_t"] else 1.0
                for key, value in tracer.summary().items():
                    if key.endswith("_s"):
                        layer_times[key] = layer_times.get(key, 0.0) + (value - layers_before[key]) * scale
    finally:
        if tracer is not None:
            tracer.uninstall()
    layers = None
    if tracer is not None:
        layers = dict(tracer.summary(), **layer_times)
    return {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "peak_rss_mb": _peak_rss_mb(),
        "samples": samples,
        "layers": layers,
    }


def _peak_rss_mb():
    """Peak resident memory of this process.

    VmHWM starts afresh at exec; ru_maxrss would also count the parent's
    peak, which a forked child inherits.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_case(cli, argv, tracer, case_id, before):
    """(sample, probe time after the case) of one CLI call, given the probe
    time before it."""
    gc.collect()
    out = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if tracer is not None:
            tracer.begin_case(case_id)
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            rc = None
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_case()
    after = probe()
    return {
        "t": at_reference_speed(elapsed, before, after),
        "raw_t": elapsed,
        "rc": rc,
        "out": out.getvalue(),
        "error": error,
    }, after


def main(argv):
    manifest_path, mode, arg, result_path = argv
    result = run_pass(manifest_path, int(arg), mode == "traced")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
