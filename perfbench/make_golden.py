"""Record the golden behaviour snapshot in golden/ from the program in src/.

Run from the repository root:

    python3 perfbench/make_golden.py

It runs `check` for every seed of the check-suite pool in atomic and SI
units (about two minutes) and stores, per run, the exit code and each
suite's pass/fail and check counts; it also stores the outputs of
`hydrogen-table --nmax 6` and `p-theta-scan --lmax 10`.  The benchmark
expects every check to pass; the snapshot says which runs did not at the
commit that recorded it, so those failures are reported as known defects.
"""

from __future__ import annotations

import json

from cli_exec import Runner, import_cli
from workloads import CHECK_SEED_POOL, GOLDEN, SI_CONSTANTS

ROADMAP = {
    "atomic": "check seed fails at the snapshot commit",
    "si": "ROADMAP item 4: unit covariance",
}


def _check_record(main, seed: int, units: str) -> tuple[list[dict], dict]:
    argv = ["check", "--seed", str(seed), "--format", "json"]
    if units == "si":
        argv += ["--units", "si", "--si-constants", str(SI_CONSTANTS)]
    outcome = main(argv)
    if outcome.error is not None:
        raise SystemExit(f"check {argv} raised {outcome.error}")
    rows = [json.loads(line) for line in outcome.stdout.splitlines()]
    suites = [{"suite": r["suite"], "checks": r["checks"]} for r in rows]
    failed = {r["suite"]: r["failures"] for r in rows if not r["passed"]}
    return suites, {"exit_code": outcome.exit_code, "failed_suites": failed}


def _dumps(suites: list[dict], snapshot: dict) -> str:
    """JSON with one line per recorded run."""
    lines = ["{", f' "suites": {json.dumps(suites)},', f' "defect_roadmap": {json.dumps(ROADMAP)},']
    lines.append(' "snapshot": {')
    blocks = []
    for units, runs in snapshot.items():
        body = ",\n".join(f'   "{s}": {json.dumps(r)}' for s, r in runs.items())
        blocks.append(f'  "{units}": {{\n{body}\n  }}')
    lines += [",\n".join(blocks), " }", "}", ""]
    return "\n".join(lines)


def main() -> None:
    cli = Runner(import_cli())
    snapshot: dict[str, dict] = {}
    suites = None
    for units in ("atomic", "si"):
        runs = snapshot.setdefault(units, {})
        for s in range(CHECK_SEED_POOL):
            got, runs[str(s)] = _check_record(cli, s, units)
            if suites is not None and got != suites:
                raise SystemExit(f"check --seed {s} --units {units} ran suites {got}, not {suites}")
            suites = got
    (GOLDEN / "check.json").write_text(_dumps(suites, snapshot), encoding="utf-8")
    for name, argv in (
        ("hydrogen_table_nmax6.csv", ["hydrogen-table", "--nmax", "6", "--format", "csv"]),
        ("p_theta_scan_lmax10.csv", ["p-theta-scan", "--lmax", "10", "--format", "csv"]),
    ):
        outcome = cli(argv)
        if outcome.exit_code != 0:
            raise SystemExit(f"{argv} exited {outcome.exit_code}")
        (GOLDEN / name).write_text(outcome.stdout, encoding="utf-8")
    for units, runs in snapshot.items():
        failing = sorted(int(s) for s, r in runs.items() if r["exit_code"] != 0)
        print(f"{units}: {len(failing)} of {len(runs)} check seeds fail: {failing}")


if __name__ == "__main__":
    main()
