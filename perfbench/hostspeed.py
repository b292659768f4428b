"""Host-speed gauge: a fixed reference batch timed between operations.

The benchmark's host is a share of a 2-core machine whose speed changes
with what its neighbours run: the same operation took 65 ms in one
stretch and 120 ms in the next.  Such stretches last from under a second
to minutes, often longer than a whole run, and no statistic taken within
one run removes a slowdown that covers all of it.  So the benchmark also
times a fixed batch of work that does not touch curvimom (small-array
numpy arithmetic, a float loop and a click command line: the same kinds
of work a curvimom command does) and reports every time in reference
seconds:

    reference seconds = wall seconds x REF_NOMINAL_S / batch seconds now

where "batch seconds now" is the batch's time measured next to the
interval.  REF_NOMINAL_S is about the batch's time when the host runs at
full speed, so reference seconds read close to wall seconds there.  A
change to curvimom cannot move the batch, so it still moves the reported
times as much as it moves the wall times.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from array import array

import click
import numpy as np

REF_NOMINAL_S = 0.001
# When the host is busy, small-array numpy work slows down more (about 1.8
# times) than interpreter-bound work such as float loops and click parsing
# (about 1.45 times), and how much each slows changes with what the
# neighbours run.  A workload's batch is weighted like the workload's own
# work, so that both slow down alike: `check` and `hydrogen-table` spend
# most of their time in small-array numpy, an `expect` operation in
# click parsing and Python-level state set-up.  Each mix takes about
# REF_NOMINAL_S when the host runs at full speed.
ARRAY_HEAVY = (8, 1)  # array part 8 rounds, Python part once
PYTHON_ONLY = (0, 2)


@click.command()
@click.argument("op")
@click.option("--system", default="cartesian")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def _command(op: str, system: str, fmt: str) -> None:
    click.echo(json.dumps({"op": op, "system": system, "format": fmt}))


def _array_part(rounds: int) -> float:
    """Small-array numpy arithmetic: Legendre recurrences on Gauss-Legendre nodes."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    total = 0.0
    for k in range(rounds):
        t = 0.5 * (nodes + 1.0) * (k + 1)
        p0, p1 = np.ones_like(t), t
        for order in range(2, 8):
            p0, p1 = p1, ((2 * order - 1) * t * p1 - (order - 1) * p0) / order
        total += float(np.dot(weights, p1 * np.exp(-t)))
    return total


# One reused buffer: click keeps a wrapper per output stream it has seen,
# so a fresh buffer per run would leak and grow the process with the
# number of samples (see cli_exec.Runner).
_OUT = io.StringIO()


def _python_part() -> float:
    """Interpreter-bound work: a float loop and one click command line."""
    total = 0.0
    for i in range(2000):
        total += math.sin(i * 0.001) * (i % 7)
    out = _OUT
    out.seek(0)
    out.truncate()
    with contextlib.redirect_stdout(out):
        try:
            _command.main(args=["canonical:r", "--system", "spherical"], prog_name="batch")
        except SystemExit:
            pass
    return total + len(out.getvalue())


def reference_batch(mix: tuple[int, int] = ARRAY_HEAVY) -> float:
    """``mix`` = (rounds of the array part, runs of the Python part); returns a checksum."""
    array_rounds, python_runs = mix
    return _array_part(array_rounds) + sum(_python_part() for _ in range(python_runs))


def time_batch(mix: tuple[int, int] = ARRAY_HEAVY) -> float:
    """Seconds the reference batch takes now."""
    start = time.perf_counter()
    reference_batch(mix)
    return time.perf_counter() - start


class Gauge:
    """Converts wall seconds to reference seconds from the batch timed just now.

    The host's speed often changes within a few milliseconds, so the batch
    is timed afresh each time a factor is asked for, next to the interval
    it converts; a stale sample puts an operation in the tails.  A sample
    is one timing, not the fastest of several: when the host is busy in
    short bursts the fastest timing misses them, while the operations
    cannot, and that widened the tails of `expect-mix` by up to a fifth.
    """

    def __init__(self, mix: tuple[int, int] = ARRAY_HEAVY) -> None:
        self.mix = mix
        self.samples = array("d")
        for _ in range(5):  # first calls pay numpy's lazy set-up
            reference_batch(mix)

    def scale(self) -> float:
        """Time the batch now; the factor from wall to reference seconds."""
        seconds = time_batch(self.mix)
        self.samples.append(seconds)
        return REF_NOMINAL_S / seconds
