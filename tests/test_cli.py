"""Command line surface: formats, exit codes, determinism."""

import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from cli_runner import invoke

import curvimom
import curvimom.cli as cli_module
from curvimom import states
from curvimom.analysis import LMAX_RANGE, ExpectationReport
from curvimom.cli import main
from curvimom.errors import SingularityError
from curvimom.geometry import preset_systems
from curvimom.operators import momentum_unit
from curvimom.quadrature import QuadratureConfig
from curvimom.states import hydrogen_state, load_constants, random_bound_trial


def test_expect_json_payload_and_key_order():
    result = invoke(
        "expect", "canonical:r", "hydrogen:n=2,L=1,M=0", "--format", "json"
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert list(payload) == [
        "command",
        "value_re",
        "value_im",
        "defect",
        "boundary_term",
        "quad_error",
        "units",
    ]
    assert payload["command"] == "expect"
    assert payload["units"] == "atomic"
    assert abs(payload["value_re"]) <= 1e-10
    assert abs(payload["defect"]) <= 1e-10


def test_expect_azimuthal_eigenvalue():
    result = invoke(
        "expect", "canonical:phi", "hydrogen:n=3,L=2,M=-2", "--format", "json"
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert abs(payload["value_re"] - (-2.0)) <= 1e-10


def test_expect_naive_radial_breaks_reality_contract():
    result = invoke(
        "expect", "naive:r", "hydrogen:n=1,L=0,M=0", "--format", "json"
    )
    assert result.exit_code == 3, result.output
    payload = json.loads(result.output)
    assert payload["defect"] - 1.0 <= 1e-9  # hbar/(n^2 a0) with n = 1


def test_expect_trial_state_uses_seed():
    a = invoke("expect", "canonical:x", "trial:", "--system", "cartesian", "--seed", "3", "--format", "json")
    b = invoke("expect", "canonical:x", "trial:seed=3", "--system", "cartesian", "--format", "json")
    assert a.exit_code == 0 and b.exit_code == 0
    assert a.output == b.output


def test_expect_usage_errors():
    assert invoke("expect", "canonical:r", "hydrogen:n=2,L=1,M=0", "--radial-order", "4").exit_code == 2
    assert invoke("expect", "canonical:r", "hydrogen:n=2,L=1,M=0", "--radial-order", "4097").exit_code == 2
    assert invoke("expect", "bogus:r", "hydrogen:n=1,L=0,M=0").exit_code == 2
    assert invoke("expect", "canonical:r", "helium:n=1").exit_code == 2
    assert invoke("expect", "canonical:z", "hydrogen:n=1,L=0,M=0").exit_code == 2
    assert invoke("expect", "canonical:r", "hydrogen:n=1,L=5,M=0").exit_code == 2
    assert invoke("expect", "canonical:x", "hydrogen:n=1,L=0,M=0", "--system", "cartesian").exit_code == 2
    assert invoke("expect", "canonical:r", "hydrogen:n=1,L=0,M=0", "--units", "si").exit_code == 2
    # a state takes only its own keys, each at most once
    assert invoke("expect", "canonical:x", "trial:sed=3", "--system", "cartesian").exit_code == 2
    assert invoke("expect", "canonical:r", "hydrogen:n=2,L=1,M=0,M=1").exit_code == 2
    assert invoke("expect", "canonical:r", "hydrogen:n=2,L=1,M=0,x=9").exit_code == 2
    assert invoke("expect", "canonical:x", "trial:seed=1,seed=2", "--system", "cartesian").exit_code == 2


def test_expect_refuses_hydrogen_states_above_n_9():
    # n <= 9 is the range measured against the acceptance tolerances
    for L in (0, 8):
        result = invoke("expect", "canonical:r", f"hydrogen:n=9,L={L},M=0", "--format", "json")
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert abs(payload["value_re"]) <= 1e-9 and abs(payload["defect"]) <= 1e-9
    for args in ((), ("--radial-order", "4096")):
        result = invoke("expect", "canonical:r", "hydrogen:n=10,L=0,M=0", *args)
        assert result.exit_code == 2 and "n <= 9" in result.output


def test_expect_refuses_hydrogen_states_off_norm_at_the_orders_in_use():
    # |<psi|psi> - 1| over 1e-10, the normalization suite's tolerance, is refused (exit 2):
    # n = 9 at radial orders 8, 16 and 24 (worst over L 1.0, 0.89 and 0.75), n = 6 at 8 (1.25)
    for n, L, order in ((9, 0, 8), (9, 1, 16), (9, 0, 24), (6, 1, 8)):
        result = invoke("expect", "canonical:r", f"hydrogen:n={n},L={L},M=0", "--radial-order", str(order))
        assert result.exit_code == 2, (n, L, order, result.output)
        assert "not normalised" in result.output
    # at the default orders every n <= 9 passes (at worst 1.5e-12 at n = 9, 3.1e-15 at n <= 6)
    for n, L in [(9, L) for L in range(9)] + [(n, L) for n in range(1, 7) for L in range(n)]:
        result = invoke("expect", "canonical:theta", f"hydrogen:n={n},L={L},M=0")
        assert result.exit_code == 0, (n, L, result.output)
    # a trial state is accepted at order 8 on every axis: its linear factors sit on their
    # hermite rules at every --radial-order, and its angular norms are polynomials the
    # order-8 rules integrate exactly
    order8 = QuadratureConfig(8, 8, 8)
    for name, system in preset_systems().items():
        args = ("expect", f"canonical:{system.coords[0].name}", "trial:seed=3", "--system", name)
        result = invoke(*args, "--radial-order", "8", "--theta-order", "8", "--phi-order", "8")
        assert result.exit_code == 0, (name, result.output)
        assert abs(random_bound_trial(system, 3).norms(order8)[0] - 1.0) <= 1e-14, name
        assert invoke(*args).exit_code == 0, name
    # so is a hydrogen table with a member off norm (1.6e-7 at n = 6, radial order 60), which
    # the default orders resolve (at worst 3.1e-15 at --nmax 6, 1.7e-15 at --nmax 4)
    result = invoke("hydrogen-table", "--nmax", "6", "--radial-order", "60")
    assert result.exit_code == 2 and "not normalised" in result.output, result.output
    for nmax in ("4", "6"):
        assert invoke("hydrogen-table", "--nmax", nmax).exit_code == 0, nmax


def test_expect_refuses_a_nan_norm(monkeypatch):
    # a NaN |<psi|psi> - 1| is refused as a miss above 1e-10 is: exit 2, nothing on stdout
    phi = states._phi_factor

    def nan_phi(M):
        f = phi(M)
        return f.derived(lambda q: f.evaluate(q) * math.nan, f.derivative)

    monkeypatch.setattr(states, "_phi_factor", nan_phi)
    result = invoke("expect", "canonical:r", "hydrogen:n=2,L=1,M=0", "--format", "json")
    assert result.exit_code == 2 and result.stdout == "", result.output
    assert "not normalised" in result.output and "nan" in result.output


def test_negative_trial_seed_is_a_usage_error():
    result = invoke("expect", "canonical:r", "trial:seed=-1")
    assert result.exit_code == 2, result.output
    assert "seed" in result.output
    assert invoke("check", "--seed", "-30").exit_code == 2


def test_seed_is_only_accepted_where_it_is_used():
    for command in ("hydrogen-table", "p-theta-scan"):
        result = invoke(command, "--seed", "1")
        assert result.exit_code == 2 and result.stdout == "", (command, result.output)
        assert "--seed" in result.stderr


def test_abbreviated_options_are_refused():
    # only whole option names are taken, never a unique prefix of one
    for option in (("--radial", "8"), ("--form", "json"), ("--sys", "spherical"), ("--si", "x.json")):
        result = invoke("expect", "canonical:r", "hydrogen:n=1,L=0,M=0", *option)
        assert result.exit_code == 2 and result.stdout == "", (option, result.output)
    for args in (("hydrogen-table", "--nm", "2"), ("p-theta-scan", "--lm", "2"), ("check", "--se", "1")):
        result = invoke(*args)
        assert result.exit_code == 2 and result.stdout == "", (args, result.output)


_SHARED_OPTIONS = ("--units", "--radial-order", "--theta-order", "--phi-order", "--format", "--si-constants")


@pytest.mark.parametrize(
    "command, own",
    [("expect", ("OPERATOR", "STATE", "--system", "--seed")), ("hydrogen-table", ("--nmax",)),
     ("check", ("--seed",)), ("p-theta-scan", ("--lmax",))],
)
def test_each_command_help_names_its_options(command, own):
    result = invoke(command, "--help")
    assert result.exit_code == 0 and result.stderr == "", result.output
    for option in _SHARED_OPTIONS + own:
        assert option in result.stdout, (command, option)
    assert ("--seed" in result.stdout) == ("--seed" in own)


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        "[1.0, 1.0, 1.0]",
        '{"hbar": "abc", "m": 1.0, "e2": 1.0}',
        '{"hbar": 1e999, "m": 1.0, "e2": 1.0}',
        '{"hbar": 1e200, "m": 1.0, "e2": 1.0}',
        '{"hbar": 1e-200, "m": 1.0, "e2": 1.0}',
        '{"hbar": 1.0, "m": 1e-200, "e2": 1e-200}',
        '{"hbar": true, "m": 1, "e2": 1}',
        '{"hbar": "1.0", "m": 1, "e2": 1}',
        '{"hbar": 1' + "0" * 400 + ', "m": 1, "e2": 1}',
    ],
    ids=["not-json", "json-list", "non-numeric", "infinite", "a0-overflow", "a0-underflow", "m-e2-underflow",
         "boolean", "numeric-string", "integer-overflow"],
)
def test_malformed_constants_file_is_a_usage_error(tmp_path, text):
    path = tmp_path / "si.json"
    path.write_text(text)
    result = invoke(
        "expect", "canonical:r", "hydrogen:n=1,L=0,M=0", "--units", "si", "--si-constants", str(path)
    )
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ")


def test_unreadable_constants_file_is_a_usage_error(tmp_path):
    # a missing path or a directory is refused as a malformed file is
    for path in (tmp_path / "missing.json", tmp_path):
        result = invoke(
            "expect", "canonical:r", "hydrogen:n=1,L=0,M=0", "--units", "si", "--si-constants", str(path)
        )
        assert result.exit_code == 2 and result.stdout == "", result.output
        assert result.output.startswith("error: ")


def test_non_finite_defect_breaks_reality_contract(tmp_path, monkeypatch):
    # hbar = 1e-45 once overflowed the radial integrand to NaN; states are now
    # in units of a0, so the defect is finite
    path = tmp_path / "si.json"
    path.write_text('{"hbar": 1e-45, "m": 1.0, "e2": 1.0}')
    argv = ("expect", "canonical:r", "hydrogen:n=2,L=1,M=0", "--units", "si", "--si-constants", str(path),
            "--format", "json")
    result = invoke(*argv)
    assert result.exit_code == 0, result.output
    assert math.isfinite(json.loads(result.stdout)["defect"])
    # a NaN defect still breaks the contract
    report = cli_module.expectation

    def nan_defect(*args):
        rep = report(*args)
        return type(rep)(complex(rep.value.real, math.nan), rep.boundary_term, rep.quadrature_error)

    monkeypatch.setattr(cli_module, "expectation", nan_defect)
    result = invoke(*argv)
    assert result.exit_code == 3, result.output
    assert math.isnan(json.loads(result.stdout)["defect"])


def test_failing_suite_never_reports_a_passing_worst(tmp_path, monkeypatch):
    # hbar = 1e-51 once overflowed integrands to NaN; the suites now work in
    # units of a0 and hbar and pass
    path = tmp_path / "si.json"
    path.write_text('{"hbar": 1e-51, "m": 1, "e2": 1}')
    argv = ("check", "--units", "si", "--si-constants", str(path), "--format", "json")
    result = invoke(*argv)
    assert result.exit_code == 0, result.output
    assert all(math.isfinite(row["worst"]) for row in map(json.loads, result.stdout.splitlines()))
    # a NaN ratio must reach worst, and numpy's invalid-value warnings must not reach stderr
    from curvimom import analysis

    residual = analysis.commutator_qp_residual
    monkeypatch.setattr(analysis, "commutator_qp_residual", lambda *args: residual(*args) * np.inf * 0.0)
    result = invoke(*argv)
    assert result.exit_code == 1, result.output
    assert result.stderr == ""
    failing = [row for row in map(json.loads, result.stdout.splitlines()) if not row["passed"]]
    assert [row["suite"] for row in failing] == ["commutators"]
    for row in failing:
        assert not row["worst"] <= 1.0, row


def test_expect_singularity_exit_code(monkeypatch):
    def boom(*args, **kwargs):
        raise SingularityError("measure factor vanishes at the evaluation point")

    monkeypatch.setattr(cli_module, "expectation", boom)
    result = invoke("expect", "canonical:r", "hydrogen:n=1,L=0,M=0")
    assert result.exit_code == 4
    assert "measure factor vanishes" in result.output


def test_hydrogen_table_csv_shape():
    result = invoke("hydrogen-table", "--nmax", "2", "--format", "csv")
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[0] == (
        "n,L,inv_r2_quad,inv_r2_closed,inv_r3_quad,inv_r3_closed,residual,p_r,p_theta"
    )
    assert len(lines) == 4  # header + (1,0) + (2,0) + (2,1)
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0"
    assert first[4] == "" and first[5] == "" and first[6] == ""  # no L >= 1 moments
    last = lines[3].split(",")
    assert last[0] == "2" and last[1] == "1"
    assert float(last[4]) > 0.0


def test_hydrogen_table_builds_each_level_once(monkeypatch):
    # each level's factors are looked up once, for the family, and no state is built per
    # level: the force balance reads the levels' quantum numbers and the moments the family's
    # radial table.  A cold table evaluates each of the 21 radial factors for one value and
    # one derivative table; a warm one keeps its family, so it looks up no factor and evaluates none
    from curvimom import analysis

    levels, states_built, laguerre = [], [], []
    assoc_laguerre, hydrogen_factors = states.assoc_laguerre, states._hydrogen_factors

    def counted(qn, *args, **kwargs):
        states_built.append((qn.n, qn.L))
        return hydrogen_state(qn, *args, **kwargs)

    for module in (cli_module, analysis):
        monkeypatch.setattr(module, "hydrogen_state", counted)
    monkeypatch.setattr(states, "_hydrogen_factors", lambda qn: levels.append((qn.n, qn.L)) or hydrogen_factors(qn))
    monkeypatch.setattr(states, "assoc_laguerre", lambda *args: laguerre.append(args) or assoc_laguerre(*args))
    for cache in (states._hydrogen_radial, states._theta_factor, states._phi_factor, analysis._table_levels):
        cache.cache_clear()
    for lookups, calls in (([(n, L) for n in range(1, 7) for L in range(n)], 42), ([], 0)):
        levels.clear()
        laguerre.clear()
        result = invoke("hydrogen-table", "--nmax", "6", "--format", "csv")
        assert result.exit_code == 0, result.output
        assert levels == lookups
        assert states_built == []
        assert len(laguerre) == calls


def test_tables_are_written_at_once(monkeypatch):
    echoes = []
    write = cli_module._write
    monkeypatch.setattr(cli_module, "_write", lambda text: echoes.append(text) or write(text))
    for args in (("hydrogen-table", "--nmax", "6"), ("p-theta-scan", "--lmax", "10")):
        for fmt in ("text", "csv", "json"):
            echoes.clear()
            result = invoke(*args, "--format", fmt)
            assert result.exit_code == 0, result.output
            assert len(echoes) == 1, (args, fmt)
    # check and expect write their text at once too, passing or not
    for args, code in ((("check",), 0), (("check", "--radial-order", "8"), 1),
                       (("expect", "canonical:r", "hydrogen:n=2,L=1,M=0"), 0),
                       (("expect", "naive:r", "hydrogen:n=1,L=0,M=0"), 3)):
        echoes.clear()
        result = invoke(*args, "--format", "text")
        assert result.exit_code == code, result.output
        assert len(echoes) == 1, args


def _old_fmt(value) -> str:
    # the per-cell formatter the row templates replaced: floats as {:.12e}, None empty, else str()
    if value is None:
        return ""
    return "{:.12e}".format(value) if isinstance(value, float) else str(value)


def _old_lines(fmt: str, columns: list[str], rows: list) -> list[str]:
    # a csv or text table as the per-cell formatter printed it, each text cell padded by ljust
    if fmt == "csv":
        return [",".join(columns)] + [",".join(map(_old_fmt, row)) for row in rows]
    widths = [max(len(k), 20) for k in columns]
    return ["  ".join(text.ljust(width) for text, width in zip(row, widths)) for row in
            [columns, *([_old_fmt(cell) for cell in row] for row in rows)]]


def test_row_templates_print_the_per_cell_bytes(monkeypatch):
    # a table's %-templates, one per row kind, print what _fmt and ljust(20) printed per cell, for
    # every kind of cell a table holds; a bool prints as True, not as %d's 1, and a column may hold None
    cells = [3, -7, True, False, "abc", None, 1.5, math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300,
             np.float64(2.5), np.float64(-math.nan), "a_cell_longer_than_twenty"]
    columns = [f"c{i}" for i in range(len(cells))] + ["a_column_named_past_twenty"]
    rows = [(*cells, 0.1), (*cells[::-1], None), (*cells, 0.1)]
    conversion = {float: cli_module._FLOAT, np.float64: cli_module._FLOAT, type(None): cli_module._EMPTY}
    kinds = [[conversion.get(type(cell), cli_module._STR) for cell in row] for row in rows[:2]]
    written = []
    monkeypatch.setattr(cli_module, "_write", written.append)
    for fmt in ("csv", "text"):
        written.clear()
        cli_module._emit_rows(fmt, columns, rows, *kinds, pick=[0, 1, 0])
        assert written == ["\n".join(_old_lines(fmt, columns, rows))], fmt
    assert [cli_module._fmt(cell) for cell in cells] == [_old_fmt(cell) for cell in cells]


@pytest.mark.parametrize(
    "units", [(), ("--units", "si", "--si-constants", str(Path(__file__).parent / "data" / "si_constants.json"))]
)
def test_table_templates_print_every_accepted_table_as_the_per_cell_formatter(units):
    # each table command's templates, picked per row, against the per-cell formatter on the cells its
    # json prints: every --nmax, whose n = 1 table holds only L = 0 rows, and every --lmax, in both units
    tables = [("hydrogen-table", "--nmax", str(n)) for n in range(1, 7)]
    tables += [("p-theta-scan", "--lmax", str(lmax)) for lmax in range(LMAX_RANGE[1] + 1)]
    for args in tables:
        rows = [json.loads(line) for line in invoke(*args, *units, "--format", "json").stdout.splitlines()]
        if args == ("hydrogen-table", "--nmax", "1"):
            assert [row["L"] for row in rows] == [0]
        for fmt in ("csv", "text"):
            result = invoke(*args, *units, "--format", fmt)
            assert result.exit_code == 0, result.output
            expected = _old_lines(fmt, list(rows[0]), [list(row.values()) for row in rows])
            assert result.stdout.splitlines() == expected, (args, fmt)


_CACHED_MODULES = ("geometry", "quadrature", "specfun", "states", "analysis")


@pytest.mark.parametrize(
    "args", [("hydrogen-table", "--nmax", str(n)) for n in range(1, 7)]
    + [("p-theta-scan", "--lmax", str(lmax)) for lmax in range(LMAX_RANGE[1] + 1)]
    + [("expect", "canonical:r", "hydrogen:n=3,L=2,M=1"), ("expect", "canonical:theta", "trial:seed=42"),
       ("check", "--seed", "1")]
)
def test_warm_output_equals_cold_output(args):
    # what the caches keep (rules, factors, tables, momentum sums, stacks, scan and table levels)
    # never changes a byte: each command prints the same warm, beside a second cached table, as
    # after every cache is cleared
    for fmt in ("text", "csv", "json"):
        for argv in (args, ("hydrogen-table", "--nmax", "3")):
            assert invoke(*argv, "--format", fmt).exit_code == 0
        warm = invoke(*args, "--format", fmt)
        for name in _CACHED_MODULES:
            for cached in vars(getattr(curvimom, name)).values():
                if hasattr(cached, "cache_clear"):
                    cached.cache_clear()
        cold = invoke(*args, "--format", fmt)
        assert warm.exit_code == cold.exit_code == 0
        assert warm.stdout_bytes == cold.stdout_bytes, fmt


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "fixture, args",
    [
        (f"hydrogen-table_nmax6.{ext}", ("hydrogen-table", "--nmax", "6", "--format", fmt))
        for fmt, ext in (("text", "txt"), ("csv", "csv"), ("json", "json"))
    ]
    + [
        (f"p-theta-scan_lmax10.{ext}", ("p-theta-scan", "--lmax", "10", "--format", fmt))
        for fmt, ext in (("text", "txt"), ("csv", "csv"), ("json", "json"))
    ]
    + [
        (
            fixture,
            ("hydrogen-table", "--nmax", "6", "--format", "csv", "--units", "si",
             "--si-constants", str(DATA / "si_constants.json")),
        )
        for fixture in ("hydrogen-table_nmax6_si.csv", "atomic-table-times-units")
    ]
    + [
        (
            f"p-theta-scan_lmax10_si.{ext}",
            ("p-theta-scan", "--lmax", "10", "--format", fmt, "--units", "si",
             "--si-constants", str(DATA / "si_constants.json")),
        )
        for fmt, ext in (("json", "json"), ("text", "txt"), ("csv", "csv"))
    ]
    + [
        (
            f"hydrogen-table_nmax6_si.{ext}",
            ("hydrogen-table", "--nmax", "6", "--format", fmt, "--units", "si",
             "--si-constants", str(DATA / "si_constants.json")),
        )
        for fmt, ext in (("text", "txt"), ("json", "json"))
    ],
)
def test_cli_output_matches_fixture_byte_for_byte(fixture, args):
    # the atomic files under tests/data were written by the CLI before hydrogen
    # families, the SI table csv when units moved to the output, the SI scan json
    # before units moved from the library to the CLI, and the other SI formats
    # before the units were applied per table; every later change must print
    # the same bytes.  The SI table is also the atomic one with each cell times
    # its unit, once.
    result = invoke(*args)
    assert result.exit_code == 0, result.output
    expected = _atomic_table_times_units() if fixture == "atomic-table-times-units" else (DATA / fixture).read_bytes()
    assert result.stdout_bytes == expected


def _atomic_table_times_units() -> bytes:
    c = load_constants(str(DATA / "si_constants.json"))
    lengths = {"inv_r2_quad": -2, "inv_r2_closed": -2, "inv_r3_quad": -3, "inv_r3_closed": -3}
    units = {key: c.length_unit(power) for key, power in lengths.items()}
    units.update(residual=c.e2 * c.length_unit(-2), p_r=momentum_unit("linear", c), p_theta=momentum_unit("angular", c))
    atomic = invoke("hydrogen-table", "--nmax", "6", "--format", "json").stdout.splitlines()
    lines = ["n,L," + ",".join(units)]
    for row in map(json.loads, atomic):
        cells = [row["n"], row["L"]] + [None if row[k] is None else row[k] * unit for k, unit in units.items()]
        lines.append(",".join(map(cli_module._fmt, cells)))
    return ("\n".join(lines) + "\n").encode()


def _expect_grid(units: tuple = ()) -> str:
    # argv, exit code and stdout of `expect --format json` for canonical and
    # naive r, theta and phi on every hydrogen level with n <= 4, and canonical
    # momenta on every axis of every preset system for trial seeds 0-2, each
    # with ``units`` appended
    levels = [(n, L, M) for n in range(1, 5) for L in range(n) for M in range(-L, L + 1)]
    argvs = [
        ["expect", f"{kind}:{axis}", f"hydrogen:n={n},L={L},M={M}", "--format", "json", *units]
        for n, L, M in levels
        for kind in ("canonical", "naive")
        for axis in ("r", "theta", "phi")
    ]
    argvs += [
        ["expect", f"canonical:{spec.name}", f"trial:seed={seed}", "--system", name, "--format", "json", *units]
        for name, system in sorted(preset_systems().items())
        for spec in system.coords
        for seed in range(3)
    ]
    return _records(argvs)


def _records(argvs: list) -> str:
    # each argv with its exit code and stdout, as the fixtures under tests/data hold them
    records = []
    for argv in argvs:
        result = invoke(*argv)
        records.append({"argv": argv, "exit_code": result.exit_code, "stdout": result.stdout_bytes.decode()})
    return json.dumps(records, indent=1) + "\n"


def test_expect_grid_matches_fixture_byte_for_byte(monkeypatch):
    # tests/data/expect_grid.json was written by _expect_grid() before the
    # factors' derivative tables, and expect_grid_si.json before units moved
    # from the library to the CLI; every later change must print the same bytes.
    # The SI argv names the constants file relative to the repository root.
    monkeypatch.chdir(DATA.parent.parent)
    si = ("--units", "si", "--si-constants", "tests/data/si_constants.json")
    for fixture, units in (("expect_grid.json", ()), ("expect_grid_si.json", si)):
        assert _expect_grid(units).encode() == (DATA / fixture).read_bytes(), fixture


def _check_seeds() -> str:
    # argv, exit code and stdout of `check --seed s --format json` at five seeds in
    # atomic units and two in SI units
    si = ("--units", "si", "--si-constants", "tests/data/si_constants.json")
    argvs = [["check", "--seed", str(seed), "--format", "json"] for seed in (0, 1, 5, 42, 99)]
    argvs += [["check", "--seed", str(seed), "--format", "json", *si] for seed in (3, 7)]
    return _records(argvs)


def test_check_seeds_match_fixture_byte_for_byte(monkeypatch):
    # tests/data/check_seeds.json was written by _check_seeds() before the
    # commutator suite moved onto trial families and the Legendre suites onto
    # one climb per identity; every later change must print the same bytes
    monkeypatch.chdir(DATA.parent.parent)
    assert _check_seeds().encode() == (DATA / "check_seeds.json").read_bytes()


def test_hydrogen_table_json_null_for_missing_moments():
    result = invoke("hydrogen-table", "--nmax", "1", "--format", "json")
    assert result.exit_code == 0, result.output
    row = json.loads(result.output.strip().splitlines()[0])
    assert row["inv_r3_quad"] is None and row["residual"] is None
    assert abs(row["inv_r2_quad"] - 2.0) <= 1e-9
    assert invoke("hydrogen-table", "--nmax", "7").exit_code == 2


def test_p_theta_scan_rows_and_exit():
    result = invoke("p-theta-scan", "--lmax", "2", "--format", "csv")
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[0] == "L,M,p_theta_re,p_theta_im,quad_error"
    assert len(lines) == 1 + 9  # header + sum of (2L+1) for L <= 2
    for line in lines[1:]:
        parts = line.split(",")
        assert abs(float(parts[2])) <= 1e-9
    assert invoke("p-theta-scan", "--lmax", "11").exit_code == 2


def test_check_passes_and_reports_each_suite():
    result = invoke("check")
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[-1] == "all suites passed"
    body = "\n".join(lines)
    for name in (
        "legendre-parity",
        "legendre-recurrence",
        "legendre-fd-derivative",
        "normalization",
        "commutators",
        "reality-scan",
        "ci-uniqueness",
    ):
        assert name in body
    assert "FAIL" not in body


def test_check_is_deterministic_per_seed():
    a = invoke("check", "--seed", "5", "--format", "json")
    b = invoke("check", "--seed", "5", "--format", "json")
    c = invoke("check", "--seed", "6", "--format", "json")
    assert a.exit_code == b.exit_code == c.exit_code == 0
    assert a.output == b.output
    assert a.output != c.output


def test_check_degraded_orders_fail():
    result = invoke("check", "--radial-order", "8", "--theta-order", "8", "--phi-order", "8")
    assert result.exit_code == 1, result.output
    assert "FAIL" in result.output


def test_si_units_need_constants_file(tmp_path):
    path = tmp_path / "si.json"
    path.write_text(
        json.dumps(
            {"hbar": 1.054571817e-34, "m": 9.1093837015e-31, "e2": 2.3070775523417355e-28}
        )
    )
    ok = invoke(
        "expect",
        "canonical:r",
        "hydrogen:n=2,L=0,M=0",
        "--units",
        "si",
        "--si-constants",
        str(path),
        "--format",
        "json",
    )
    assert ok.exit_code == 0, ok.output
    payload = json.loads(ok.output)
    assert payload["units"] == "si"
    naive = invoke(
        "expect",
        "naive:r",
        "hydrogen:n=2,L=0,M=0",
        "--units",
        "si",
        "--si-constants",
        str(path),
        "--format",
        "json",
    )
    assert naive.exit_code == 3
    defect = json.loads(naive.output)["defect"]
    hbar, a0 = 1.054571817e-34, 5.29177210903e-11
    assert abs(defect - hbar / (4 * a0)) <= 1e-9 * hbar / a0


def test_expect_text_format_lists_diagnostics():
    result = invoke("expect", "canonical:theta", "hydrogen:n=2,L=1,M=1")
    assert result.exit_code == 0, result.output
    for label in ("operator:", "state:", "value:", "defect:", "boundary_term:", "quad_error:", "units:"):
        assert label in result.output


def test_module_entry_point_help():
    result = invoke("--help")
    assert result.exit_code == 0
    for sub in ("expect", "hydrogen-table", "check", "p-theta-scan"):
        assert sub in result.output


def test_p_theta_scan_exits_1_on_a_nonzero_or_nan_value(monkeypatch):
    # the rows are printed either way; only a |<p_theta>| within 1e-9 exits 0
    levels = SimpleNamespace(L=np.array([0, 1]), M=np.array([0, 0]))
    for value, code in ((0j, 0), (complex(0.0, 1e-6), 1), (complex(math.nan, 0.0), 1)):
        report = ExpectationReport(np.array([0j, value]), np.zeros(2), np.zeros(2))
        monkeypatch.setattr(cli_module, "_scan_columns", lambda l_max, config, report=report: (levels, report))
        result = invoke("p-theta-scan", "--lmax", "1", "--format", "csv")
        assert result.exit_code == code, (value, result.output)
        assert len(result.stdout.splitlines()) == 3


def test_p_theta_scan_refuses_members_off_norm_at_the_orders_in_use():
    # an 8-node polar rule misses the L <= 10 norms by up to 1.0, and radial order 60 the
    # n = 11 ones by 2.9e-6: refused with nothing printed; 16 polar nodes resolve them (8.7e-14)
    for args in (("--theta-order", "8"), ("--radial-order", "60")):
        result = invoke("p-theta-scan", "--lmax", "10", *args)
        assert result.exit_code == 2 and result.stdout == "", (args, result.output)
        assert "not normalised" in result.output
    assert invoke("p-theta-scan", "--lmax", "10", "--theta-order", "16").exit_code == 0


def test_si_constants_without_si_units_is_a_usage_error():
    # the file would be dropped and the numbers printed in atomic units
    si = str(Path(__file__).parent / "data" / "si_constants.json")
    for args in (("expect", "canonical:r", "hydrogen:n=2,L=1,M=0"), ("hydrogen-table",), ("check",),
                 ("p-theta-scan",)):
        for units in ((), ("--units", "atomic")):
            result = invoke(*args, *units, "--si-constants", si, "--format", "json")
            assert result.exit_code == 2 and result.stdout == "", (args, result.output)
            assert "--units si" in result.output


def test_version_and_lmax_cap_come_from_the_library():
    assert invoke("--version").stdout == f"curvimom, version {curvimom.__version__}\n"
    low, high = LMAX_RANGE
    for lmax, code in ((low - 1, 2), (low, 0), (high, 0), (high + 1, 2)):
        result = invoke("p-theta-scan", "--lmax", str(lmax), "--format", "csv")
        assert result.exit_code == code, (lmax, result.output)
        assert len(result.stdout.splitlines()) == (1 + (lmax + 1) ** 2 if code == 0 else 0), lmax


def test_main_alias_and_module_entry_exit_with_the_command_code(monkeypatch, capsys):
    # perfbench's runner calls main.main(args=..., prog_name=...) and python -m curvimom runs
    # main(): both end in SystemExit with the command's exit code
    for argv, code in ((["expect", "naive:r", "hydrogen:n=1,L=0,M=0"], 3), (["expect", "bogus:r", "trial:"], 2),
                       (["--version"], 0)):
        with pytest.raises(SystemExit) as alias:
            main.main(args=argv, prog_name="curvimom")
        monkeypatch.setattr(sys, "argv", ["curvimom", *argv])
        with pytest.raises(SystemExit) as module:
            runpy.run_module("curvimom", run_name="__main__")
        assert alias.value.code == module.value.code == code, argv
    assert capsys.readouterr().out.endswith(f"curvimom, version {curvimom.__version__}\n" * 2)


def test_the_command_line_loads_numpy_alone_beyond_the_standard_library():
    # curvimom's one dependency is numpy: importing the command line in a fresh interpreter loads
    # no top-level module beyond a bare one's that is not the standard library's, numpy or curvimom
    path = [str(Path(curvimom.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

    def loaded(code: str) -> set[str]:
        cmd = [sys.executable, "-c", f"{code}; import sys; print(*sys.modules)"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, env=env).stdout
        return {name.partition(".")[0] for name in out.split()}

    extra = loaded("import curvimom.cli") - loaded("pass")
    assert {"numpy", "curvimom"} <= extra
    assert {name for name in extra if name not in sys.stdlib_module_names} == {"numpy", "curvimom"}
