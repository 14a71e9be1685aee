"""Tests of the outside-in tracer and of the benchmark's input pinning.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import posetcoh  # noqa: E402
import posetcoh.cli  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# (case spec, extra CLI arguments); --oracle recomputes homology the comparison
# already computed, which exercises the repeat counter
SPECS = (
    ({"kind": "presheaf", "n": 5, "density": 0.5, "poset_seed": 3, "seed": 3}, []),
    ({"kind": "diagram", "n": 5, "density": 0.5, "poset_seed": 4, "seed": 4}, []),
    ({"kind": "presheaf", "n": 4, "density": 0.5, "poset_seed": 5, "seed": 5}, ["--oracle"]),
    ({"kind": "poset", "n": 8, "density": 0.4, "poset_seed": 6, "seed": 6}, []),
    ({"kind": "fuzz", "seed": 7}, []),
)


@pytest.fixture(scope="module")
def case_argv(tmp_path_factory):
    root = tmp_path_factory.mktemp("cases")
    argvs = []
    for k, (spec, extra) in enumerate(SPECS):
        paths = {}
        for role, doc in workloads.case_documents(spec).items():
            paths[role] = str(root / ("%d.%s.json" % (k, role)))
            with open(paths[role], "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        argvs.append(workloads.case_argv(spec, paths) + extra)
    return argvs


def _run_all(argvs, tracer=None):
    answers = []
    for k, argv in enumerate(argvs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is not None:
                tracer.begin_case(k)
            rc = posetcoh.cli.main(argv)
            if tracer is not None:
                tracer.end_case()
        answers.append((rc, out.getvalue()))
    return answers


def _traced(argvs):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        answers = _run_all(argvs, tracer)
    finally:
        tracer.uninstall()
    return tracer, answers


def _bindings():
    """Every posetcoh module and class attribute the tracer may replace."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name == "posetcoh" or name.startswith("posetcoh."):
            for attr, value in vars(module).items():
                found[(name, attr)] = value
                if isinstance(value, type):
                    for meth, member in vars(value).items():
                        found[(name, attr, meth)] = member
    return found


def test_uninstall_restores_every_original():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert posetcoh.linalg.snf is not before[("posetcoh.linalg", "snf")]
        assert posetcoh.groups.snf is posetcoh.linalg.snf
        assert posetcoh.cli.main is not before[("posetcoh.cli", "main")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_outputs_are_byte_identical(case_argv):
    plain = _run_all(case_argv)
    _, traced = _traced(case_argv)
    assert traced == plain
    assert all(rc in (0, 1) for rc, _ in plain)


def test_case_self_times_add_up_to_the_main_span(case_argv):
    tracer, _ = _traced(case_argv)
    totals = tracer.case_self_times()
    assert sorted(totals) == list(range(len(case_argv)))
    for self_sum, root in totals.values():
        assert root > 0
        assert self_sum == pytest.approx(root, rel=1e-9, abs=1e-12)
    layers = tracer.summary()
    assert layers["cli.main.calls"] == len(case_argv)
    assert sum(v for k, v in layers.items() if k.endswith(".self_s")) == pytest.approx(
        layers["cli.main.incl_s"], rel=1e-9
    )


def test_counter_time_is_not_charged_to_posetcoh_code(case_argv, monkeypatch):
    # a tick per clock read, and a million more inside every snf counter
    ticks = [0]

    def clock():
        ticks[0] += 1
        return ticks[0]

    def slow_max_bits(dec, original=tracing._max_bits):
        ticks[0] += 10**6
        return original(dec)

    monkeypatch.setattr(tracing.time, "perf_counter", clock)
    monkeypatch.setattr(tracing, "_max_bits", slow_max_bits)
    tracer, _ = _traced(case_argv)
    layers = tracer.summary()
    snf_calls = layers["linalg.snf.calls"]
    assert snf_calls > 0
    assert layers["tracer.hooks.self_s"] >= snf_calls * 10**6
    assert max(v for k, v in layers.items() if k.endswith(".self_s") and not k.startswith("tracer.")) < 10**6
    for self_sum, root in tracer.case_self_times().values():
        assert self_sum == root


def test_pass_count_does_not_depend_on_speed():
    workload = workloads.WORKLOADS["criterion"]
    seconds = 5.5 * workload.nominal_pass_s
    assert run.pass_count(workload, seconds, False) == (5, 0)
    assert run.pass_count(workload, seconds, True) == (3, 2)
    assert run.pass_count(workload, 1, False) == (run.MIN_PASSES, 0)


def test_counters_repeat_exactly(case_argv):
    first, _ = _traced(case_argv)
    second, _ = _traced(case_argv)
    a, b = first.summary(), second.summary()
    for key in (
        "linalg.snf.cells",
        "linalg.snf.max_bits",
        "linalg.matmul.mults",
        "poset.chains.out",
        "complexes.homology.repeat_ratio",
    ):
        assert a[key] == b[key], key
        assert a[key] > 0, key
    assert {k: v for k, v in a.items() if k.endswith(".calls")} == {
        k: v for k, v in b.items() if k.endswith(".calls")
    }


def test_plan_is_a_function_of_the_seed():
    workload = workloads.WORKLOADS["criterion"]
    first, _, _ = workload.plan(3)
    again, _, _ = workload.plan(3)
    other, _, _ = workload.plan(4)
    assert first == again
    assert [c["poset_seed"] for c in first] != [c["poset_seed"] for c in other]
    assert len(first) == workload.case_count()
    for bins in workload.strata.values():
        for low, high, quota in bins:
            assert sum(1 for c in first if low <= c["size"] < high) == quota


def test_changed_generator_fails_the_pin_check(monkeypatch):
    pins = run.load_pins()
    workload = workloads.WORKLOADS["criterion"]
    seed = pins["criterion"]["seed"]
    run.verify_pins(workload, pins, workload.plan(seed)[0])
    original = workloads.random_poset
    monkeypatch.setattr(workloads, "random_poset", lambda n, density, seed: original(n, density, seed + 1))
    with pytest.raises(run.BenchmarkError, match="pinned inputs changed"):
        run.verify_pins(workload, pins, workload.plan(seed)[0])


def test_benchmark_json_lists_the_reported_metrics():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_speed_scales_by_the_probe():
    import worker

    ref = worker.REFERENCE_PROBE_S
    assert worker.at_reference_speed(2.0, ref, ref) == 2.0
    # a probe twice as slow around the interval halves its time
    assert worker.at_reference_speed(2.0, 2 * ref, 2 * ref) == 1.0
    assert worker.probe() > 0
