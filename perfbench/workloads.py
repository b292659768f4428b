"""Workloads of the curvimom benchmark and the checks on their outputs.

A workload turns a seed into a reproducible, endless sequence of
operations.  An operation is a tuple of curvimom command lines.  Each
command carries the exit code a correct program gives and a check on its
standard output; where the program at the snapshot commit is known to behave
otherwise, the command also names that known defect and how to recognise
it, so that the failure is counted and attributed instead of hidden.

Checks are exact on structure (suite names, check counts, pass/fail, row
keys, exit codes) and compare floats against closed forms within the
tolerances that ``tests/test_acceptance.py`` pins.  Floats are never
compared byte for byte, so reordered sums stay comparable.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from cli_exec import Outcome

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SI_CONSTANTS = HERE / "si_constants.json"

# acceptance-gate tolerances, atomic units
MOMENT_RTOL = 1e-9  # <1/r^2>, <1/r^3> against closed forms
FORCE_RTOL = 1e-8  # force balance and the naive radial defect law
MOMENTUM_ATOL = 1e-9  # |<p_r>|, |<p_theta>| on hydrogen levels
PHI_RTOL = 1e-10  # <p_phi> = M hbar
TRIAL_ATOL = 1e-8  # |<p>| on a real trial factor (ci-uniqueness bound)
REALITY_FLOOR = 1e-9  # README reality contract: max(10 x quad_error, floor)

CHECK_SEED_POOL = 100  # `check --seed s` draws s from range(CHECK_SEED_POOL)
MALFORMED_SHARE = 0.05

SYSTEMS = {
    "cartesian": ("x", "y", "z"),
    "cylindrical": ("rho", "phi", "z"),
    "plane-polar": ("r", "phi"),
    "spherical": ("r", "theta", "phi"),
}
# axes whose weight is not constant, so the naive operator drops a drift
DRIFTING = {("cylindrical", "rho"), ("plane-polar", "r"), ("spherical", "r"), ("spherical", "theta")}
EXPECT_KEYS = ["command", "value_re", "value_im", "defect", "boundary_term", "quad_error", "units"]


@dataclass(frozen=True)
class KnownDefect:
    """A failure recorded in the golden snapshot and the ROADMAP item that should fix it."""

    roadmap: str
    matches: Callable[[Outcome], bool]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[str], list[str]]
    defect: KnownDefect | None = None


Operation = tuple[Command, ...]


def judge(command: Command, outcome: Outcome) -> tuple[str, list[str]]:
    """Classify one outcome as "ok", "known" (a documented defect) or "unexpected"."""
    if outcome.error is not None:
        problems = [f"raised {outcome.error}"]
    elif outcome.exit_code != command.exit_code:
        problems = [f"exit code {outcome.exit_code}, expected {command.exit_code}"]
    else:
        try:
            problems = command.check(outcome.stdout)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError, csv.Error) as exc:
            problems = [f"unparseable output: {exc!r}"]
    if not problems:
        return "ok", []
    if command.defect is not None and command.defect.matches(outcome):
        return "known", problems
    return "unexpected", problems


def _close(value: float, target: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - target) <= rtol * abs(target)


def _small(value: float, atol: float) -> bool:
    return math.isfinite(value) and abs(value) <= atol


def _no_output(stdout: str) -> list[str]:
    return [] if stdout == "" else ["usage error wrote to stdout"]


# ---------------------------------------------------------------- check-suite


def load_check_golden() -> dict:
    with open(GOLDEN / "check.json", encoding="utf-8") as fh:
        return json.load(fh)


def _suite_rows(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()]


def _check_output(suites: list[dict]) -> Callable[[str], list[str]]:
    names = [s["suite"] for s in suites]

    def check(stdout: str) -> list[str]:
        rows = _suite_rows(stdout)
        got = [r["suite"] for r in rows]
        if got != names:
            return [f"suites {got}, expected {names}"]
        problems = []
        for row, gold in zip(rows, suites):
            if row["command"] != "check" or row["checks"] != gold["checks"]:
                problems.append(f"{row['suite']}: {row['checks']} checks, expected {gold['checks']}")
            if row["passed"] is not True or row["failures"] != 0:
                problems.append(f"{row['suite']}: failed {row['failures']} of {row['checks']}")
            worst = float(row["worst"])
            if not (math.isfinite(worst) and 0.0 <= worst <= 1.0):
                problems.append(f"{row['suite']}: worst ratio {worst}")
        return problems

    return check


def _same_as_snapshot(record: dict, suites: list[dict]) -> Callable[[Outcome], bool]:
    """True when a run fails as it did at the snapshot: same exit code, same failing suites."""

    def matches(outcome: Outcome) -> bool:
        if outcome.error is not None or outcome.exit_code != record["exit_code"]:
            return False
        try:
            rows = _suite_rows(outcome.stdout)
            got = [{"suite": r["suite"], "checks": r["checks"]} for r in rows]
            failed = {r["suite"] for r in rows if not r["passed"]}
        except (ValueError, KeyError, TypeError):
            return False
        return got == suites and failed == set(record["failed_suites"])

    return matches


def check_suite(seed: int) -> Iterator[Operation]:
    """`check --seed s --format json`; every fourth operation runs in SI units."""
    golden = load_check_golden()
    suites = golden["suites"]
    check = _check_output(suites)
    rng = random.Random(seed)
    index = 0
    while True:
        s = rng.randrange(CHECK_SEED_POOL)
        argv = ["check", "--seed", str(s), "--format", "json"]
        units = "atomic"
        if index % 4 == 3:
            units = "si"
            argv += ["--units", "si", "--si-constants", str(SI_CONSTANTS)]
        record = golden["snapshot"][units][str(s)]
        defect = None
        if record["exit_code"] != 0:
            defect = KnownDefect(golden["defect_roadmap"][units], _same_as_snapshot(record, suites))
        yield (Command(tuple(argv), 0, check, defect),)
        index += 1


# ------------------------------------------------------------ hydrogen-levels


def _golden_csv(name: str) -> list[list[str]]:
    with open(GOLDEN / name, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _parse_csv(stdout: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(stdout)))


def _keyed_rows(got: list[list[str]], gold: list[list[str]], keys: int) -> list[str]:
    """Exact comparison of header, row keys and which cells are empty."""
    if not got or got[0] != gold[0]:
        return [f"header {got[:1]}, expected {gold[0]}"]
    if len(got) != len(gold):
        return [f"{len(got) - 1} rows, expected {len(gold) - 1}"]
    problems = []
    for row, ref in zip(got[1:], gold[1:]):
        if len(row) != len(ref) or row[:keys] != ref[:keys]:
            problems.append(f"row {row[:keys]}, expected {ref[:keys]}")
        elif [c == "" for c in row] != [c == "" for c in ref]:
            problems.append(f"row {row[:keys]}: empty cells differ from the snapshot")
    return problems


def _check_table(gold: list[list[str]]) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        rows = _parse_csv(stdout)
        problems = _keyed_rows(rows, gold, 2)
        if problems:
            return problems
        header = rows[0]
        for raw in rows[1:]:
            row = dict(zip(header, raw))
            n, L = int(row["n"]), int(row["L"])
            inv_r2 = 1.0 / (n**3 * (L + 0.5))
            ok = (
                _close(float(row["inv_r2_quad"]), inv_r2, MOMENT_RTOL)
                and _close(float(row["inv_r2_closed"]), inv_r2, MOMENT_RTOL)
                and _small(float(row["p_r"]), MOMENTUM_ATOL)
                and _small(float(row["p_theta"]), MOMENTUM_ATOL)
            )
            if L >= 1:
                inv_r3 = 1.0 / (n**3 * L * (L + 0.5) * (L + 1))
                ok = ok and (
                    _close(float(row["inv_r3_quad"]), inv_r3, MOMENT_RTOL)
                    and _close(float(row["inv_r3_closed"]), inv_r3, MOMENT_RTOL)
                    # centrifugal minus Coulomb, relative to e^2 <1/r^2>
                    and _small(float(row["residual"]), FORCE_RTOL * inv_r2)
                )
            if not ok:
                problems.append(f"hydrogen-table n={n} L={L}: outside tolerance")
        return problems

    return check


def _check_scan(gold: list[list[str]]) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        rows = _parse_csv(stdout)
        problems = _keyed_rows(rows, gold, 2)
        if problems:
            return problems
        for L, M, re_, im_, qerr in rows[1:]:
            value = math.hypot(float(re_), float(im_))
            err = float(qerr)
            if not (_small(value, MOMENTUM_ATOL) and math.isfinite(err) and err >= 0.0):
                problems.append(f"p-theta-scan L={L} M={M}: outside tolerance")
        return problems

    return check


def hydrogen_levels(seed: int) -> Iterator[Operation]:
    """`hydrogen-table --nmax 6` then `p-theta-scan --lmax 10`.

    The inputs are fixed: the seed has nothing to vary here.
    """
    del seed
    table = Command(
        ("hydrogen-table", "--nmax", "6", "--format", "csv"),
        0,
        _check_table(_golden_csv("hydrogen_table_nmax6.csv")),
    )
    scan = Command(
        ("p-theta-scan", "--lmax", "10", "--format", "csv"),
        0,
        _check_scan(_golden_csv("p_theta_scan_lmax10.csv")),
    )
    while True:
        yield (table, scan)


# ----------------------------------------------------------------- expect-mix


def _check_expect(system: str, axis: str, family: str, hydrogen: tuple[int, int, int] | None, breaks_reality: bool):
    def check(stdout: str) -> list[str]:
        payload = json.loads(stdout)
        if list(payload) != EXPECT_KEYS or payload["command"] != "expect" or payload["units"] != "atomic":
            return [f"payload keys or labels differ: {sorted(payload)}"]
        re_, im_, defect, boundary, qerr = (
            float(payload[k]) for k in ("value_re", "value_im", "defect", "boundary_term", "quad_error")
        )
        if not all(math.isfinite(v) for v in (re_, im_, defect, boundary, qerr)) or qerr < 0.0:
            return ["non-finite value or negative quad_error"]
        tol = max(10.0 * qerr, REALITY_FLOOR)
        ok = abs(defect - im_) <= 1e-15 * max(1.0, abs(im_)) and (abs(defect) > tol) == breaks_reality
        if hydrogen is not None:
            n, _, M = hydrogen
            if axis == "phi":
                ok = ok and abs(re_ - M) <= PHI_RTOL * max(1, abs(M)) and _small(defect, MOMENTUM_ATOL)
            elif axis == "r" and family == "naive":
                # Im<p'_r> = hbar <1/r> = hbar / (n^2 a0)
                ok = ok and _small(re_, MOMENTUM_ATOL) and _close(defect, 1.0 / n**2, FORCE_RTOL)
            else:
                ok = ok and _small(math.hypot(re_, defect), MOMENTUM_ATOL)
        elif axis != "phi":
            ok = ok and _small(re_, TRIAL_ATOL)  # real factor: <p> is purely the defect
            if breaks_reality and axis != "theta":
                ok = ok and defect > 0.0  # hbar <1/r> or hbar <1/(2 rho)>, both positive
        return [] if ok else [f"expect {family}:{axis} on {system}: outside tolerance"]

    return check


def _raised_value_error(outcome: Outcome) -> bool:
    return outcome.error is not None and outcome.error.startswith("ValueError")


def _malformed(rng: random.Random) -> Command:
    kind = rng.randrange(4)
    system = rng.choice(sorted(SYSTEMS))
    axis = rng.choice(SYSTEMS[system])
    state = f"trial:seed={rng.randrange(2**31)}"
    defect = None
    if kind == 0:
        op = f"{rng.choice(('sideways', 'canon', 'momentum'))}:{axis}"
    elif kind == 1:
        foreign = sorted({a for axes in SYSTEMS.values() for a in axes} - set(SYSTEMS[system]))
        op = f"canonical:{rng.choice(foreign)}"
    elif kind == 2:
        system, n = "spherical", rng.randint(1, 6)
        op = f"canonical:{rng.choice(SYSTEMS[system])}"
        state = f"hydrogen:n={n},L={n + rng.randrange(3)},M=0"
    else:
        op = f"canonical:{axis}"
        state = f"trial:seed=-{rng.randrange(1, 2**31)}"
        defect = KnownDefect("small fix: negative trial seed", _raised_value_error)
    argv = ("expect", op, state, "--system", system, "--format", "json")
    return Command(argv, 2, _no_output, defect)


def expect_mix(seed: int) -> Iterator[Operation]:
    """One `expect` per operation over every system, axis and operator family."""
    rng = random.Random(seed)
    while True:
        if rng.random() < MALFORMED_SHARE:
            yield (_malformed(rng),)
            continue
        system = rng.choice(sorted(SYSTEMS))
        axis = rng.choice(SYSTEMS[system])
        family = rng.choice(("canonical", "naive"))
        hydrogen = None
        if system == "spherical" and rng.random() < 0.5:
            n = rng.randint(1, 6)
            L = rng.randrange(n)
            hydrogen = (n, L, rng.randint(-L, L))
            state = "hydrogen:n={},L={},M={}".format(*hydrogen)
        else:
            state = f"trial:seed={rng.randrange(2**31)}"
        # |Theta_LM|^2 is even about theta = pi/2 while cot(theta) is odd,
        # so the naive polar defect hbar <cot(theta)/2> vanishes on hydrogen
        breaks_reality = (
            family == "naive" and (system, axis) in DRIFTING and not (hydrogen is not None and axis == "theta")
        )
        argv = ("expect", f"{family}:{axis}", state, "--system", system, "--format", "json")
        check = _check_expect(system, axis, family, hydrogen, breaks_reality)
        yield (Command(argv, 3 if breaks_reality else 0, check),)


WORKLOADS: dict[str, Callable[[int], Iterator[Operation]]] = {
    "check-suite": check_suite,
    "hydrogen-levels": hydrogen_levels,
    "expect-mix": expect_mix,
}
