"""Command line surface: formats, exit codes, determinism."""

import json
import math

import pytest
from click.testing import CliRunner

import curvimom.cli as cli_module
from curvimom.cli import main
from curvimom.errors import SingularityError
from curvimom.states import hydrogen_state


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
    assert invoke("expect", "canonical:z", "hydrogen:n=1,L=0,M=0").exit_code == 2
    assert invoke("expect", "canonical:r", "hydrogen:n=1,L=5,M=0").exit_code == 2
    assert invoke("expect", "canonical:x", "hydrogen:n=1,L=0,M=0", "--system", "cartesian").exit_code == 2
    assert invoke("expect", "canonical:r", "hydrogen:n=1,L=0,M=0", "--units", "si").exit_code == 2


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
    ],
    ids=["not-json", "json-list", "non-numeric", "infinite", "a0-overflow", "a0-underflow"],
)
def test_malformed_constants_file_is_a_usage_error(tmp_path, text):
    path = tmp_path / "si.json"
    path.write_text(text)
    result = invoke(
        "expect", "canonical:r", "hydrogen:n=1,L=0,M=0", "--units", "si", "--si-constants", str(path)
    )
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_defect_breaks_reality_contract(tmp_path):
    # hbar = 1e-45 is accepted, but the radial integrand overflows to NaN
    path = tmp_path / "si.json"
    path.write_text('{"hbar": 1e-45, "m": 1.0, "e2": 1.0}')
    result = invoke(
        "expect", "canonical:r", "hydrogen:n=2,L=1,M=0", "--units", "si", "--si-constants", str(path),
        "--format", "json",
    )
    assert result.exit_code == 3, result.output
    assert math.isnan(json.loads(result.stdout)["defect"])


def test_failing_suite_never_reports_a_passing_worst(tmp_path):
    # hbar = 1e-51 overflows integrands to NaN; a NaN ratio must reach worst,
    # and numpy's overflow warnings must not reach stderr
    path = tmp_path / "si.json"
    path.write_text('{"hbar": 1e-51, "m": 1, "e2": 1}')
    result = invoke("check", "--units", "si", "--si-constants", str(path), "--format", "json")
    assert result.exit_code == 1, result.output
    assert result.stderr == ""
    failing = [row for row in map(json.loads, result.stdout.splitlines()) if not row["passed"]]
    assert failing
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
    # the moments and the force balance read the state the row already holds
    from curvimom import analysis

    built = []

    def counted(qn, *args, **kwargs):
        built.append((qn.n, qn.L))
        return hydrogen_state(qn, *args, **kwargs)

    for module in (cli_module, analysis):
        monkeypatch.setattr(module, "hydrogen_state", counted)
    result = invoke("hydrogen-table", "--nmax", "6", "--format", "csv")
    assert result.exit_code == 0, result.output
    assert built == [(n, L) for n in range(1, 7) for L in range(n)]


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
