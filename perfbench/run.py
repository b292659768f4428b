"""curvimom benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

Run from the root of a curvimom checkout:

    python3 perfbench/run.py --workload all --seed 0 --seconds 30
    python3 perfbench/run.py --workload check-suite --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload expect-mix --seed 0 --seconds 30 --trace 1

Each workload is a closed loop with one client in one process and no
threads: an operation starts when the previous one has returned.  Every
operation is one or more curvimom command lines run in-process through
``curvimom.cli.main`` with stdout captured, and every output is checked
(see workloads.py).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs a fixed number of operations untraced and then traced
(see tracing.py) and reports the per-layer metrics.  ``--workload all``
runs each workload in its own process and prints one table.  Timings are
in reference seconds (see hostspeed.py); the wall-clock figures are
printed beside them.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
the operations that raised, exited with the wrong code or printed a wrong
result, other than the documented known defects recorded in the golden
snapshot; those are counted apart, in ``error_rate`` (README.md lists
them).  ``correct`` is false when ``failed`` is not 0.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from cli_exec import ROOT, SRC, Runner, import_cli
from hostspeed import ARRAY_HEAVY, PYTHON_ONLY, Gauge
from tracing import CLI, Tracer
from workloads import WORKLOADS, judge

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

SETUP_PROBES = 9
TAIL_BEYOND = 10
# percent.  Beyond p95 the latency of a 1 ms expect-mix operation measures
# how often the shared host preempts the process: wall minus CPU time was
# most of it, and its p99 moved by 16 to 32 % between seeds.
TAIL_CAP = 95
# A busy neighbour can slow the host in bursts shorter than one operation,
# which the reference batch, timed between operations, cannot follow.  The
# tail and the throughput are therefore medians over consecutive slices of
# the run, so that one such stretch sets neither.
TAIL_SLICES = 3
TAIL_SLICE_MIN = 40  # operations; fewer slices when the run has fewer
THROUGHPUT_SLICES = 5
# the reference batch each workload's times are converted with (see hostspeed.py)
BATCH_MIX = {"check-suite": ARRAY_HEAVY, "hydrogen-levels": ARRAY_HEAVY, "expect-mix": PYTHON_ONLY}
# operations per second of --seconds in a --trace 1 run; sized so that its
# untraced and traced passes over the same operations take about --seconds
TRACE_OPS_PER_S = {"check-suite": 0.8, "hydrogen-levels": 4.5, "expect-mix": 150.0}

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed with the end-to-end metrics but kept out of the result line: it
# is 0 on a workload with no known defect, so it has no relative bound
ERROR_RATE = ("error_rate", "ratio")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s/op"
    if name.endswith(("repeat_ratio", "overhead")):
        return "ratio"
    if name == "cli.bytes_out":
        return "B/op"
    return "count/op"


# ------------------------------------------------------------------ stats


def tail_percentile(latencies) -> tuple[float, float]:
    """(p, value) for the highest percentile, up to TAIL_CAP, with TAIL_BEYOND samples above it.

    The percentile follows the sample count smoothly (p = 1 - 10/n), so a
    run with a few more or fewer operations does not jump a rung of a ladder.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    rank = min(rank, -(-TAIL_CAP * n // 100))  # nearest rank of the cap: ceil(cap n)
    return 100.0 * rank / n, ordered[rank - 1]


def _slices(values, count: int) -> list:
    """``values`` cut into ``count`` consecutive slices of near-equal length."""
    bounds = [round(i * len(values) / count) for i in range(count + 1)]
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def tail_slices(n: int) -> int:
    return max(1, min(TAIL_SLICES, n // TAIL_SLICE_MIN))


def sliced_tail(latencies) -> tuple[float, float]:
    """(p, value): the median over tail_slices(n) slices of each slice's tail_percentile."""
    tails = [tail_percentile(part) for part in _slices(latencies, tail_slices(len(latencies)))]
    return statistics.median(p for p, _ in tails), statistics.median(v for _, v in tails)


def timings(latencies, setup) -> tuple[dict, float]:
    """The timing metrics from operation latencies and set-up times, in seconds; and the tail percentile."""
    p_tail, tail = sliced_tail(latencies)
    parts = _slices(latencies, min(THROUGHPUT_SLICES, len(latencies)))
    metrics = {
        "ops_per_s": statistics.median(len(part) / sum(part) for part in parts),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setup),
    }
    return metrics, p_tail


# ------------------------------------------------------------- provenance


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy

    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------- running


def setup_times(first_op, mix) -> tuple[list[float], list[float]]:
    """Wall seconds from starting a fresh interpreter until the first operation
    returned, and the factor to reference seconds each probe measured after it."""
    commands = json.dumps([list(c.argv) for c in first_op])
    times, scales = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), commands, *map(str, mix)], stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            rest = proc.stdout.read().split()
        if line.strip() != "ready" or proc.returncode != 0 or len(rest) != 1:
            raise SystemExit(f"error: set-up probe exited {proc.returncode} without finishing")
        scales.append(float(rest[0]))
    return times, scales


class Tally:
    """Operation outcomes: known defects by ROADMAP item, and every other failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.known: dict[str, int] = {}
        self.unexpected: list[str] = []

    def add(self, op, outcomes) -> None:
        self.attempted += 1
        verdicts = [(judge(c, o), c) for c, o in zip(op, outcomes)]
        unexpected = [(problems, c) for (status, problems), c in verdicts if status == "unexpected"]
        known = [c.defect.roadmap for (status, _), c in verdicts if status == "known"]
        if unexpected:
            problems, c = unexpected[0]
            self.unexpected.append(f"curvimom {' '.join(c.argv)}: {'; '.join(problems[:3])}")
        elif known:
            self.known[known[0]] = self.known.get(known[0], 0) + 1

    @property
    def failed(self) -> int:
        """Failures that are not a documented known defect."""
        return len(self.unexpected)

    @property
    def error_rate(self) -> float:
        """Every failure, known defects included, over operations attempted."""
        return (sum(self.known.values()) + len(self.unexpected)) / self.attempted


def timed_loop(cli, ops, seconds: float, tally: Tally, gauge: Gauge) -> tuple[array, array]:
    """Run operations back to back for ``seconds``.

    Returns their wall latencies in seconds and, for each, the factor to
    reference seconds: the mean of the gauge's factors just before and just
    after the operation, since the host can change speed while a long one
    runs.  Sampling the gauge and checking outputs happen between
    operations and are not timed, so a run of short operations spends
    about half its time on the gauge.
    """
    latencies, before = array("d"), array("d")
    deadline = time.perf_counter() + seconds
    while True:
        op = next(ops)
        before.append(gauge.scale())
        start = time.perf_counter()
        outcomes = [cli(c.argv) for c in op]
        end = time.perf_counter()
        latencies.append(end - start)
        tally.add(op, outcomes)
        if end >= deadline:
            break
    before.append(gauge.scale())
    return latencies, array("d", ((a + b) / 2 for a, b in zip(before, before[1:])))


def run_end_to_end(cli, ops, seconds: float, mix) -> tuple[dict, dict, dict, Tally]:
    """End-to-end metrics in reference seconds, the same timings in wall seconds, details."""
    first = next(ops)
    setup, setup_scales = setup_times(first, mix)
    gauge = Gauge(mix)
    tally = Tally()
    tally.add(first, [cli(c.argv) for c in first])  # warms caches, untimed
    latencies, scales = timed_loop(cli, ops, seconds, tally, gauge)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref_setup = [t * k for t, k in zip(setup, setup_scales)]
    metrics, p_tail = timings([t * k for t, k in zip(latencies, scales)], ref_setup)
    metrics["peak_rss_mb"] = peak_rss_mb
    wall, wall_p_tail = timings(latencies, setup)
    details = {
        "timed_operations": len(latencies),
        "op_p50_ms": {"percentile": 50, "samples": len(latencies)},
        "op_tail_ms": {"percentile": p_tail, "samples": len(latencies), "slices": tail_slices(len(latencies))},
        "op_tail_ms.wall": {"percentile": wall_p_tail, "samples": len(latencies)},
        "ops_per_s": {"slices": min(THROUGHPUT_SLICES, len(latencies))},
        "setup_s": {"probes": SETUP_PROBES, "values": ref_setup, "wall": setup},
        "reference_batch_s": {
            "samples": len(gauge.samples),
            "median": statistics.median(gauge.samples),
            "min": min(gauge.samples),
            "max": max(gauge.samples),
        },
    }
    return metrics, wall, details, tally


def run_traced(cli, ops, n_ops: int, spans_path: Path, mix) -> tuple[dict, dict, Tally]:
    """The same ``n_ops`` operations untraced, then traced; per-layer metrics."""
    first = next(ops)
    tally = Tally()
    tally.add(first, [cli(c.argv) for c in first])  # warms caches, untimed
    batch = [next(ops) for _ in range(n_ops)]

    gauge = Gauge(mix)
    plain, untraced_s = [], 0.0
    for op in batch:
        scale = gauge.scale()
        start = time.perf_counter()
        plain.append([cli(c.argv) for c in op])
        untraced_s += (time.perf_counter() - start) * scale

    tracer = Tracer()
    tracer.install()
    traced, traced_s = [], 0.0
    try:
        for index, op in enumerate(batch):
            scale = gauge.scale()
            start = time.perf_counter()
            tracer.begin_op(index)
            outcomes = [tracer.call(CLI, cli, c.argv) for c in op]
            traced_s += (time.perf_counter() - start) * scale
            tracer.counts["bytes_out"] += sum(len(o.stdout.encode()) for o in outcomes)
            traced.append(outcomes)
    finally:
        tracer.uninstall()

    for op, a, b in zip(batch, plain, traced):
        tally.add(op, a)
        tally.add(op, b)
    metrics = tracer.summary(n_ops)
    # traced over untraced ops_per_s, both in reference seconds
    metrics["trace.overhead"] = untraced_s / traced_s
    tracer.save(spans_path)
    details = {
        "traced_operations": n_ops,
        "untraced_ref_s": untraced_s,
        "traced_ref_s": traced_s,
        "spans": tracer.span_count,
        "spans_file": spans_path.name,
        "untraced_targets": tracer.missing,
    }
    return metrics, details, tally


def run_one(args) -> int:
    cli = Runner(import_cli())
    info = provenance(args)
    ops = WORKLOADS[args.workload](args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wall = {}
    if args.trace:
        n_ops = max(1, round(args.seconds * TRACE_OPS_PER_S[args.workload]))
        spans = OUT / f"spans-{args.workload}.npz"
        metrics, details, tally = run_traced(cli, ops, n_ops, spans, BATCH_MIX[args.workload])
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics, wall, details, tally = run_end_to_end(cli, ops, args.seconds, BATCH_MIX[args.workload])
        units = dict(END_TO_END)
    info.update(details)
    info.update(
        attempted=tally.attempted,
        failed=tally.failed,
        error_rate=tally.error_rate,
        known_defects=tally.known,
        wall=wall or None,
    )
    for line in tally.unexpected[:5]:
        print(f"unexpected failure: {line}", file=sys.stderr)

    print("# provenance " + json.dumps(info))
    for name, value in metrics.items():
        print(f"{args.workload:<16} {name:<48} {value:>16.6g} {units[name]}")
    if not args.trace:
        # wall-clock timings, without a bound: the host's speed moves them by more than any bound allows
        for name, value in wall.items():
            print(f"{args.workload:<16} {name + '.wall':<48} {value:>16.6g} {END_TO_END[name]}")
        print(f"{args.workload:<16} {ERROR_RATE[0]:<48} {tally.error_rate:>16.6g} {ERROR_RATE[1]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps({"provenance": info, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a process of its own; one table at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        print(next(line for line in lines if line.startswith("# provenance")))
        rows += [line for line in lines if line.startswith(workload + " ")]
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print("\n".join(rows))
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
