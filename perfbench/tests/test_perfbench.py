"""Self-tests of the benchmark: span arithmetic, percentiles, output checks, tracing."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cli_exec import Outcome, Runner, import_cli  # noqa: E402


# ------------------------------------------------------------------ spans


def test_self_time_subtracts_nested_children(monkeypatch):
    now = [0]
    monkeypatch.setattr(tracing, "perf_counter_ns", lambda: now[0])
    tracer = tracing.Tracer()

    def tick(ns):
        now[0] += ns

    def leaf():
        tick(2_000)

    def middle():
        tick(1_000)
        tracer.call("leaf", leaf)
        tick(500)
        tracer.call("leaf", leaf)

    def top():
        tick(300)
        tracer.call("middle", middle)
        tick(200)

    tracer.call("top", top)
    stats = tracer.span_stats()
    assert stats["leaf"] == (2, pytest.approx(4e-6), pytest.approx(4e-6))
    assert stats["middle"] == (1, pytest.approx(1.5e-6), pytest.approx(5.5e-6))
    assert stats["top"] == (1, pytest.approx(0.5e-6), pytest.approx(6e-6))


def test_failed_call_closes_its_span_and_counts_an_error():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("bad")

    with pytest.raises(ValueError):
        tracer.call("boom", boom)
    tracer.call("after", lambda: None)
    assert tracer.span_stats()["boom"][0] == 1
    assert tracer._errors == {tracer._ids["boom"]: 1}
    assert tracer._parents[-1] == -1  # the next span is a root again


# ------------------------------------------------------------ percentiles


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(1, 100, 0), (10, 100, 0), (11, 100 / 11, 10), (40, 75, 10), (37, 2700 / 37, 10), (200, 95, 10), (1000, 95, 50)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile, beyond):
    latencies = [float(i) for i in range(n, 0, -1)]
    p, value = run.tail_percentile(latencies)
    assert p == pytest.approx(percentile)
    assert sum(1 for x in latencies if x > value) == beyond


# ---------------------------------------------------------- output checks


def _table_command():
    return next(workloads.hydrogen_levels(0))[0]


def _golden_table() -> str:
    return (workloads.GOLDEN / "hydrogen_table_nmax6.csv").read_text()


def test_golden_table_passes_its_own_check():
    assert workloads.judge(_table_command(), Outcome(0, _golden_table())) == ("ok", [])


def test_perturbed_float_is_rejected():
    lines = _golden_table().splitlines(keepends=True)
    cells = lines[3].split(",")  # n=2, L=1
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-6))
    lines[3] = ",".join(cells)
    status, problems = workloads.judge(_table_command(), Outcome(0, "".join(lines)))
    assert status == "unexpected" and "n=2 L=1" in problems[0]


def test_wrong_exit_code_is_rejected():
    status, problems = workloads.judge(_table_command(), Outcome(1, _golden_table()))
    assert status == "unexpected" and "exit code 1" in problems[0]


def _check_output(failed: dict[str, int]) -> str:
    suites = workloads.load_check_golden()["suites"]
    rows = [
        {
            "command": "check",
            "suite": s["suite"],
            "passed": s["suite"] not in failed,
            "checks": s["checks"],
            "failures": failed.get(s["suite"], 0),
            "worst": 2.0 if s["suite"] in failed else 0.5,
        }
        for s in suites
    ]
    return "".join(json.dumps(r) + "\n" for r in rows)


def test_known_defect_is_a_failure_but_not_unexpected():
    ops = workloads.check_suite(0)
    atomic = next(ops)[0]
    for _ in range(2):
        next(ops)
    si = next(ops)[0]
    assert "si" in si.argv and si.defect is not None
    assert workloads.judge(atomic, Outcome(0, _check_output({})))[0] == "ok"
    assert workloads.judge(si, Outcome(1, _check_output({"commutators": 79})))[0] == "known"
    # a different failure is not the documented one
    assert workloads.judge(si, Outcome(1, _check_output({"reality-scan": 3})))[0] == "unexpected"
    assert workloads.judge(atomic, Outcome(1, _check_output({"commutators": 79})))[0] == "unexpected"
    # a known defect counts in error_rate but not in the result line's `failed`
    tally = run.Tally()
    tally.add((atomic,), [Outcome(0, _check_output({}))])
    tally.add((si,), [Outcome(1, _check_output({"commutators": 79}))])
    assert (tally.failed, tally.error_rate, tally.known) == (0, 0.5, {si.defect.roadmap: 1})
    # and once it is fixed the operation simply passes
    assert workloads.judge(si, Outcome(0, _check_output({})))[0] == "ok"


def test_generated_inputs_depend_only_on_the_seed():
    for make in workloads.WORKLOADS.values():
        a, b = make(7), make(7)
        assert [[c.argv for c in next(a)] for _ in range(50)] == [[c.argv for c in next(b)] for _ in range(50)]


# ------------------------------------------------------------ the loop


class _Flaky:
    """Stands in for the click group: raises on every third call."""

    def __init__(self):
        self.calls = 0

    def main(self, args, prog_name):
        self.calls += 1
        if self.calls % 3 == 0:
            raise RuntimeError("boom")
        print("ok")
        raise SystemExit(0)


def test_exception_in_an_operation_is_a_failure_and_the_run_goes_on():
    command = workloads.Command(("noop",), 0, lambda out: [] if out == "ok\n" else ["bad output"])
    ops = iter(lambda: (command,), None)
    tally = run.Tally()
    latencies, scales = run.timed_loop(Runner(_Flaky()), ops, 0.05, tally, run.Gauge())
    assert len(latencies) == len(scales) == tally.attempted >= 3
    assert tally.failed == len(tally.unexpected) == tally.attempted // 3
    assert "raised RuntimeError: boom" in tally.unexpected[0]


def test_gauge_converts_wall_to_reference_seconds(monkeypatch):
    batch = iter([0.004, 0.004, 0.001])
    monkeypatch.setattr(hostspeed, "time_batch", lambda mix: next(batch))
    gauge = hostspeed.Gauge()
    # a host running the batch at half speed halves every time it reports
    assert gauge.scale() == pytest.approx(hostspeed.REF_NOMINAL_S / 0.004)
    assert gauge.scale() == pytest.approx(hostspeed.REF_NOMINAL_S / 0.004)
    assert gauge.scale() == pytest.approx(hostspeed.REF_NOMINAL_S / 0.001)
    assert list(gauge.samples) == [0.004, 0.004, 0.001]


def test_a_slow_stretch_within_one_slice_sets_neither_tail_nor_throughput():
    latencies = [1.0] * 120
    latencies[45:65] = [3.0] * 20
    assert run.tail_percentile(latencies) == (pytest.approx(110 / 1.2), 3.0)
    metrics, p_tail = run.timings(latencies, [2.0, 1.0, 5.0])
    assert metrics == {"ops_per_s": 1.0, "op_p50_ms": 1000.0, "op_tail_ms": 1000.0, "setup_s": 2.0}
    assert (p_tail, run.tail_slices(120)) == (75.0, 3)
    # too few operations for three slices of TAIL_SLICE_MIN: one slice, the whole run
    assert run.tail_slices(79) == 1


def test_runner_reports_exit_codes():
    cli = Runner(import_cli())
    assert cli(["expect", "canonical:r", "hydrogen:n=1,L=0,M=0"]).exit_code == 0
    assert cli(["expect", "naive:r", "hydrogen:n=1,L=0,M=0"]).exit_code == 3
    assert cli(["expect", "sideways:r", "hydrogen:n=1,L=0,M=0"]).exit_code == 2


# ------------------------------------------------------------- tracing

COUNT_SUFFIXES = (".calls", ".errors", ".points", "repeat_ratio", "factor_evals", "factor_points", ".bytes_out")


@pytest.mark.parametrize("workload, n_ops", [("check-suite", 1), ("hydrogen-levels", 2), ("expect-mix", 60)])
def test_traced_counts_repeat_exactly_for_a_seed(tmp_path, workload, n_ops):
    cli = Runner(import_cli())
    counts = []
    for attempt in range(2):
        ops = workloads.WORKLOADS[workload](11)
        spans = tmp_path / f"spans{attempt}.npz"
        metrics, details, tally = run.run_traced(cli, ops, n_ops, spans, run.BATCH_MIX[workload])
        assert not tally.unexpected and not details["untraced_targets"]
        counts.append({k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)})
    assert counts[0] == counts[1]
    assert counts[0]["quadrature.coordinate_integral.calls"] > 0


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    tracer = tracing.Tracer()
    printed = {**tracer.summary(1), "trace.overhead": 1.0}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: run.per_layer_unit(k) for k in printed}
