"""Command line surface: formats, exit codes, determinism."""

import json
import math
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import curvimom
import curvimom.cli as cli_module
from curvimom import states
from curvimom.analysis import LMAX_RANGE, ScanRow
from curvimom.cli import main
from curvimom.errors import SingularityError
from curvimom.geometry import preset_systems
from curvimom.operators import momentum_unit
from curvimom.states import hydrogen_state, load_constants


def invoke(*args, **kwargs):
    runner = CliRunner()
    return runner.invoke(main, list(args), **kwargs)


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
    # so is a trial state, normalised at the default orders: at order 8 on every axis the
    # norm of seed 3 misses 1 by 6.1e-2 to 1.1e-1 over the four systems
    for name, system in preset_systems().items():
        args = ("expect", f"canonical:{system.coords[0].name}", "trial:seed=3", "--system", name)
        result = invoke(*args, "--radial-order", "8", "--theta-order", "8", "--phi-order", "8")
        assert result.exit_code == 2, (name, result.output)
        assert "not normalised" in result.output
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
        return states.FactorFunction(lambda q: f.evaluate(q) * math.nan, f.derivative, scale=f.scale)

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
    assert invoke("hydrogen-table", "--seed", "1").exit_code == 2
    assert invoke("p-theta-scan", "--seed", "1").exit_code == 2


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
    # the moments and the force balance read the state the row already holds,
    # and the moments read its radial table: a cold table evaluates each of the
    # 21 radial factors for one value and one derivative table, a warm one none
    from curvimom import analysis

    built, laguerre = [], []
    assoc_laguerre = states.assoc_laguerre

    def counted(qn, *args, **kwargs):
        built.append((qn.n, qn.L))
        return hydrogen_state(qn, *args, **kwargs)

    for module in (cli_module, analysis):
        monkeypatch.setattr(module, "hydrogen_state", counted)
    monkeypatch.setattr(states, "assoc_laguerre", lambda *args: laguerre.append(args) or assoc_laguerre(*args))
    for cache in (states._hydrogen_radial, states._theta_factor, states._phi_factor):
        cache.cache_clear()
    for calls in (42, 0):
        built.clear()
        laguerre.clear()
        result = invoke("hydrogen-table", "--nmax", "6", "--format", "csv")
        assert result.exit_code == 0, result.output
        assert built == [(n, L) for n in range(1, 7) for L in range(n)]
        assert len(laguerre) == calls


def test_tables_are_written_at_once(monkeypatch):
    echoes = []
    echo = click.echo
    monkeypatch.setattr(click, "echo", lambda *args, **kwargs: echoes.append(args) or echo(*args, **kwargs))
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
            "p-theta-scan_lmax10_si.json",
            ("p-theta-scan", "--lmax", "10", "--format", "json", "--units", "si",
             "--si-constants", str(DATA / "si_constants.json")),
        )
    ],
)
def test_cli_output_matches_fixture_byte_for_byte(fixture, args):
    # the atomic files under tests/data were written by the CLI before hydrogen
    # families, the SI table when units moved to the output and the SI scan
    # before units moved from the library to the CLI; every later change
    # must print the same bytes.  The SI table is also the atomic one with
    # each cell times its unit, once.
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
    for value, code in ((0j, 0), (complex(0.0, 1e-6), 1), (complex(math.nan, 0.0), 1)):
        rows = [ScanRow(0, 0, 0j, 0.0), ScanRow(1, 0, value, 0.0)]
        monkeypatch.setattr(cli_module, "p_theta_spectrum_scan", lambda l_max, config, rows=rows: rows)
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
    lmax = next(p for p in main.commands["p-theta-scan"].params if p.name == "lmax")
    assert (lmax.type.min, lmax.type.max) == LMAX_RANGE
