"""curvimom command line interface.

Subcommands:

- expect: one expectation value with reality diagnostics;
- hydrogen-table: closed-form vs quadrature moments per (n, L) level;
- check: the full invariant suite;
- p-theta-scan: <p_theta> across angular eigenstates.

Exit codes: 0 success, 1 suite or scan failure, 2 usage error,
3 reality-contract failure, 4 singular evaluation.
"""

from __future__ import annotations

import functools
import json
import sys

import click
import numpy as np

from .analysis import (
    _force_balance,
    _radial_moment,
    expectation,
    inv_r2_closed_form,
    momentum_unit,
    p_theta_spectrum_scan,
    reality_tolerance,
    run_check_suites,
)
from .errors import ConfigurationError, DomainError, SingularityError
from .geometry import preset_systems
from .operators import canonical_momentum, naive_momentum
from .quadrature import QuadratureConfig
from .specfun import QuantumNumbers
from .states import ATOMIC, hydrogen_state, load_constants, random_bound_trial

_FLOAT_FMT = "{:.12e}"


def _fmt(value) -> str:
    """One output cell: floats as %.12e, None empty, anything else str()."""
    if value is None:
        return ""
    if isinstance(value, float):
        return _FLOAT_FMT.format(value)
    return str(value)


def _common_options(fn):
    fn = click.option(
        "--si-constants",
        type=click.Path(exists=True, dir_okay=False),
        default=None,
        help="JSON file with keys hbar, m, e2; required with --units si.",
    )(fn)
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "csv", "text"]),
        default="text",
        show_default=True,
        help="Output format.",
    )(fn)
    # the Newton node solve is O(order^2); 4096 is measured exact to rounding
    order = click.IntRange(8, 4096)
    fn = click.option("--phi-order", type=order, default=32, show_default=True, help="Azimuthal quadrature points.")(fn)
    fn = click.option("--theta-order", type=order, default=64, show_default=True, help="Polar quadrature order.")(fn)
    fn = click.option("--radial-order", type=order, default=120, show_default=True, help="Radial quadrature order.")(fn)
    fn = click.option(
        "--units",
        type=click.Choice(["atomic", "si"]),
        default="atomic",
        show_default=True,
        help="Unit system for constants and output.",
    )(fn)
    return fn


_seed_option = click.option(
    "--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Base seed for trial states."
)


def _resolve(units, radial_order, theta_order, phi_order, si_constants):
    if units == "si":
        if si_constants is None:
            raise click.UsageError("--units si requires --si-constants FILE")
        constants = load_constants(si_constants)
    else:
        constants = ATOMIC
    return QuadratureConfig(radial_order, theta_order, phi_order), constants


def _translate_errors(fn):
    """Map package errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            # non-finite results are reported as failures, not as numpy warnings
            with np.errstate(all="ignore"):
                return fn(*args, **kwargs)
        except SingularityError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4)
        except (DomainError, ConfigurationError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _parse_operator(text: str, system, constants):
    family, _, axis_name = text.partition(":")
    if family not in ("canonical", "naive") or not axis_name:
        raise click.UsageError(
            f"operator must look like 'canonical:r' or 'naive:x', got {text!r}"
        )
    names = [spec.name for spec in system.coords]
    if axis_name not in names:
        raise click.UsageError(
            f"axis {axis_name!r} is not part of system {system.name!r} (axes: {', '.join(names)})"
        )
    axis = names.index(axis_name)
    if family == "canonical":
        return canonical_momentum(system, axis, constants)
    return naive_momentum(system, axis, constants)


def _parse_state(text: str, system, constants, default_seed: int):
    family, _, rest = text.partition(":")
    pairs: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise click.UsageError(f"malformed state argument {text!r}")
            pairs[key.strip()] = value.strip()
    if family == "hydrogen":
        if system.name != "spherical":
            raise click.UsageError("hydrogen states live on the spherical system")
        try:
            qn = QuantumNumbers(int(pairs["n"]), int(pairs["L"]), int(pairs["M"]))
        except KeyError as exc:
            raise click.UsageError(f"hydrogen state needs n, L and M, missing {exc}")
        except (ValueError, DomainError) as exc:
            raise click.UsageError(f"invalid quantum numbers in {text!r}: {exc}")
        return hydrogen_state(qn, constants)
    if family == "trial":
        try:
            seed = int(pairs.get("seed", default_seed))
        except ValueError as exc:
            raise click.UsageError(f"invalid trial seed in {text!r}: {exc}")
        return random_bound_trial(system, seed, constants)
    raise click.UsageError(
        f"state must look like 'hydrogen:n=2,L=1,M=0' or 'trial:seed=42', got {text!r}"
    )


def _emit_rows(fmt: str, columns: list[str], rows: list[dict]) -> None:
    if fmt == "json":
        for row in rows:
            click.echo(json.dumps({k: row[k] for k in columns}))
    elif fmt == "csv":
        click.echo(",".join(columns))
        for row in rows:
            click.echo(",".join(_fmt(row[key]) for key in columns))
    else:
        widths = {k: max(len(k), 20) for k in columns}
        click.echo("  ".join(k.ljust(widths[k]) for k in columns))
        for row in rows:
            click.echo("  ".join(_fmt(row[key]).ljust(widths[key]) for key in columns))


@click.group()
@click.version_option("0.1.0", prog_name="curvimom")
def main() -> None:
    """Canonical momentum operators on curvilinear coordinates, checked by quadrature."""


@main.command()
@click.argument("operator")
@click.argument("state")
@click.option(
    "--system",
    "system_name",
    type=click.Choice(sorted(preset_systems())),
    default="spherical",
    show_default=True,
    help="Coordinate system the operator and state live on.",
)
@_common_options
@_seed_option
@_translate_errors
def expect(operator, state, system_name, units, radial_order, theta_order, phi_order, fmt, seed, si_constants):
    """Expectation value of OPERATOR on STATE.

    OPERATOR looks like 'canonical:r' or 'naive:theta'; STATE like
    'hydrogen:n=2,L=1,M=0' or 'trial:seed=42'.  Exits 3 when the
    hermiticity defect breaks the reality contract.
    """
    config, constants = _resolve(units, radial_order, theta_order, phi_order, si_constants)
    system = preset_systems()[system_name]
    op = _parse_operator(operator, system, constants)
    st = _parse_state(state, system, constants, seed)
    report = expectation(op, st, config)
    tol = reality_tolerance(report, op.kind, constants)

    payload = {
        "command": "expect",
        "value_re": report.value.real,
        "value_im": report.value.imag,
        "defect": report.hermiticity_defect,
        "boundary_term": report.boundary_term,
        "quad_error": report.quadrature_error,
        "units": units,
    }
    if fmt != "text":
        _emit_rows(fmt, list(payload), [payload])
    else:
        click.echo(f"operator:      {operator}")
        click.echo(f"state:         {state}")
        click.echo(f"system:        {system_name}")
        click.echo(f"value:         {_fmt(report.value.real)} + {_fmt(report.value.imag)} i")
        click.echo(f"defect:        {_fmt(report.hermiticity_defect)}")
        click.echo(f"boundary_term: {_fmt(report.boundary_term)}")
        click.echo(f"quad_error:    {_fmt(report.quadrature_error)}")
        click.echo(f"units:         {units}")
    if not abs(report.hermiticity_defect) <= tol:  # a NaN defect fails too
        sys.exit(3)


_TABLE_COLUMNS = [
    "n",
    "L",
    "inv_r2_quad",
    "inv_r2_closed",
    "inv_r3_quad",
    "inv_r3_closed",
    "residual",
    "p_r",
    "p_theta",
]


@main.command("hydrogen-table")
@click.option(
    "--nmax", type=click.IntRange(1, 6), default=4, show_default=True, help="Largest principal quantum number."
)
@_common_options
@_translate_errors
def hydrogen_table(nmax, units, radial_order, theta_order, phi_order, fmt, si_constants):
    """Hydrogen moment table: quadrature vs closed forms per (n, L) level."""
    config, constants = _resolve(units, radial_order, theta_order, phi_order, si_constants)
    system = preset_systems()["spherical"]

    rows = []
    for n in range(1, nmax + 1):
        for L in range(n):
            qn = QuantumNumbers(n, L, 0)
            state = hydrogen_state(qn, constants)
            p_r = expectation(canonical_momentum(system, 0, constants), state, config)
            p_theta = expectation(canonical_momentum(system, 1, constants), state, config)
            if L >= 1:
                fb = _force_balance(state, constants, config)
                row = {
                    "n": n,
                    "L": L,
                    "inv_r2_quad": fb.inv_r2_quad,
                    "inv_r2_closed": fb.inv_r2_closed,
                    "inv_r3_quad": fb.inv_r3_quad,
                    "inv_r3_closed": fb.inv_r3_closed,
                    "residual": fb.residual,
                }
            else:
                row = {
                    "n": n,
                    "L": L,
                    "inv_r2_quad": _radial_moment(state, -2, config),
                    "inv_r2_closed": inv_r2_closed_form(qn, constants),
                    "inv_r3_quad": None,
                    "inv_r3_closed": None,
                    "residual": None,
                }
            row["p_r"] = p_r.value.real
            row["p_theta"] = p_theta.value.real
            rows.append(row)
    _emit_rows(fmt, _TABLE_COLUMNS, rows)


@main.command()
@_common_options
@_seed_option
@_translate_errors
def check(units, radial_order, theta_order, phi_order, fmt, seed, si_constants):
    """Run the full invariant suite; exits 1 if any suite fails."""
    config, constants = _resolve(units, radial_order, theta_order, phi_order, si_constants)
    results = run_check_suites(config, constants, seed)

    if fmt != "text":
        columns = ["suite", "passed", "checks", "failures", "worst"]
        rows = [
            {"command": "check", "suite": res.name, "passed": res.passed, "checks": res.checks,
             "failures": res.failures, "worst": res.worst}
            for res in results
        ]
        # json rows name their command; the csv header does not
        _emit_rows(fmt, ["command"] + columns if fmt == "json" else columns, rows)
    else:
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            click.echo(
                f"{res.name:<24} {status}  checks={res.checks:<5d} "
                f"failures={res.failures:<4d} worst={_fmt(res.worst)}"
            )
        failed = sum(1 for res in results if not res.passed)
        if failed:
            click.echo(f"{failed} suite(s) failed")
        else:
            click.echo("all suites passed")
    if any(not res.passed for res in results):
        sys.exit(1)


@main.command("p-theta-scan")
@click.option(
    "--lmax", type=click.IntRange(0, 10), default=6, show_default=True, help="Largest angular momentum L."
)
@_common_options
@_translate_errors
def p_theta_scan(lmax, units, radial_order, theta_order, phi_order, fmt, si_constants):
    """Scan <p_theta> over eigenstates up to --lmax; exits 1 on any residual."""
    config, constants = _resolve(units, radial_order, theta_order, phi_order, si_constants)
    rows = p_theta_spectrum_scan(lmax, constants, config)

    columns = ["L", "M", "p_theta_re", "p_theta_im", "quad_error"]
    table = [
        {
            "L": row.L,
            "M": row.M,
            "p_theta_re": row.value.real,
            "p_theta_im": row.value.imag,
            "quad_error": row.quadrature_error,
        }
        for row in rows
    ]
    _emit_rows(fmt, columns, table)
    tol = 1e-9 * momentum_unit("angular", constants)
    if any(not abs(row.value) <= tol for row in rows):  # a NaN value fails too
        sys.exit(1)


if __name__ == "__main__":
    main()
