"""curvimom command line interface.

Subcommands:

- expect: one expectation value with reality diagnostics;
- hydrogen-table: closed-form vs quadrature moments per (n, L) level;
- check: the full invariant suite;
- p-theta-scan: <p_theta> across angular eigenstates.

The library returns natural units (lengths in a0, momenta in hbar/a0 or
hbar); each command applies the chosen units once, to the cells it prints.

Exit codes: 0 success, 1 suite or scan failure, 2 usage error,
3 reality-contract failure, 4 singular evaluation.
"""

from __future__ import annotations

import functools
import json
import math
import sys

import click
import numpy as np

from . import __version__
from .analysis import (
    LMAX_RANGE,
    _force_balance,
    expectation,
    expectations,
    inv_r2_closed_form,
    p_theta_spectrum_scan,
    reality_tolerance,
    require_normalised,
    run_check_suites,
)
from .errors import ConfigurationError, DomainError, SingularityError
from .geometry import preset_systems
from .operators import canonical_momentum, momentum_unit, naive_momentum
from .quadrature import ORDER_RANGE, QuadratureConfig
from .specfun import QuantumNumbers
from .states import ATOMIC, hydrogen_family, hydrogen_state, load_constants, random_bound_trial

_FLOAT_FMT = "{:.12e}"


def _fmt(value) -> str:
    """One output cell: floats as %.12e, None empty, anything else str()."""
    if value is None:
        return ""
    if isinstance(value, float):
        return _FLOAT_FMT.format(value)
    return str(value)


def _in_units(value: float, unit: float) -> float:
    """A natural-unit cell times its unit: in atomic units the number itself,
    and DomainError where a normal number leaves the normal floats."""
    if unit == 1.0:
        return value
    scaled = value * unit
    if sys.float_info.min <= abs(value) < math.inf and not sys.float_info.min <= abs(scaled) < math.inf:
        raise DomainError(f"{value!r} in natural units over- or underflows at the unit {unit!r}")
    return scaled


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
    order = click.IntRange(*ORDER_RANGE)
    fn = click.option("--phi-order", type=order, default=QuadratureConfig.phi_order, show_default=True,
                      help="Azimuthal quadrature points.")(fn)
    fn = click.option("--theta-order", type=order, default=QuadratureConfig.theta_order, show_default=True,
                      help="Polar quadrature order.")(fn)
    fn = click.option("--radial-order", type=order, default=QuadratureConfig.radial_order, show_default=True,
                      help="Radial quadrature order.")(fn)
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
    if (units == "si") != (si_constants is not None):
        raise click.UsageError("--units si and --si-constants FILE must be given together")
    constants = load_constants(si_constants) if units == "si" else ATOMIC
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


def _parse_operator(text: str, system):
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
        return canonical_momentum(system, axis)
    return naive_momentum(system, axis)


_STATE_KEYS = {"hydrogen": ("n", "L", "M"), "trial": ("seed",)}
# the largest n at which hydrogen norms met the acceptance tolerances on every L
# (1.5e-12 at n = 9, 1.1e-10 at n = 10, default orders); expect refuses larger n,
# and at any order a state that require_normalised refuses
_EXPECT_NMAX = 9


def _parse_state(text: str, system, default_seed: int):
    family, _, rest = text.partition(":")
    if family not in _STATE_KEYS:
        raise click.UsageError(
            f"state must look like 'hydrogen:n=2,L=1,M=0' or 'trial:seed=42', got {text!r}"
        )
    pairs: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in _STATE_KEYS[family] or key in pairs:
                keys = ", ".join(_STATE_KEYS[family])
                raise click.UsageError(f"malformed state {text!r}: {family} takes {keys}, each at most once")
            pairs[key] = value.strip()
    if family == "hydrogen":
        if system.name != "spherical":
            raise click.UsageError("hydrogen states live on the spherical system")
        try:
            qn = QuantumNumbers(int(pairs["n"]), int(pairs["L"]), int(pairs["M"]))
        except KeyError as exc:
            raise click.UsageError(f"hydrogen state needs n, L and M, missing {exc}")
        except (ValueError, DomainError) as exc:
            raise click.UsageError(f"invalid quantum numbers in {text!r}: {exc}")
        if qn.n > _EXPECT_NMAX:
            raise DomainError(f"expect is verified on hydrogen states with n <= {_EXPECT_NMAX}, got n={qn.n}")
        return hydrogen_state(qn)
    try:
        seed = int(pairs.get("seed", default_seed))
    except ValueError as exc:
        raise click.UsageError(f"invalid trial seed in {text!r}: {exc}")
    return random_bound_trial(system, seed)


def _emit_rows(fmt: str, columns: list[str], rows: list[dict]) -> None:
    if fmt == "json":
        lines = [json.dumps({k: row[k] for k in columns}) for row in rows]
    elif fmt == "csv":
        lines = [",".join(columns)] + [",".join(_fmt(row[key]) for key in columns) for row in rows]
    else:
        widths = {k: max(len(k), 20) for k in columns}
        lines = ["  ".join(k.ljust(widths[k]) for k in columns)]
        lines += ["  ".join(_fmt(row[key]).ljust(widths[key]) for key in columns) for row in rows]
    click.echo("\n".join(lines))


@click.group()
@click.version_option(__version__, prog_name="curvimom")
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
    hermiticity defect breaks the reality contract, and 2 when the state's
    norm misses 1 by more than 1e-10 at the orders in use.
    """
    config, constants = _resolve(units, radial_order, theta_order, phi_order, si_constants)
    system = preset_systems()[system_name]
    op = _parse_operator(operator, system)
    st = _parse_state(state, system, seed)
    require_normalised(st, config, state)
    report = expectation(op, st, config)

    unit = momentum_unit(op.kind, constants)
    natural = {
        "value_re": report.value.real,
        "value_im": report.value.imag,
        "defect": report.hermiticity_defect,
        "boundary_term": report.boundary_term,
        "quad_error": report.quadrature_error,
    }
    payload = {"command": "expect", **{key: _in_units(x, unit) for key, x in natural.items()}, "units": units}
    if fmt != "text":
        _emit_rows(fmt, list(payload), [payload])
    else:
        fields = {"operator": operator, "state": state, "system": system_name,
                  "value": f"{_fmt(payload['value_re'])} + {_fmt(payload['value_im'])} i",
                  **{key: _fmt(payload[key]) for key in ("defect", "boundary_term", "quad_error")}, "units": units}
        click.echo("\n".join(f"{key + ':':<15}{text}" for key, text in fields.items()))
    if not abs(report.hermiticity_defect) <= reality_tolerance(report):  # a NaN defect fails too
        sys.exit(3)


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
    # the unit of each number column, in column order
    lengths = {"inv_r2_quad": -2, "inv_r2_closed": -2, "inv_r3_quad": -3, "inv_r3_closed": -3}
    column_units = {key: constants.length_unit(power) for key, power in lengths.items()}
    column_units.update(residual=constants.e2 * constants.length_unit(-2), p_r=momentum_unit("linear", constants),
                        p_theta=momentum_unit("angular", constants))

    states = [hydrogen_state(QuantumNumbers(n, L, 0)) for n in range(1, nmax + 1) for L in range(n)]
    family = hydrogen_family([state.quantum_numbers for state in states])
    require_normalised(family, config, f"a state of the n <= {nmax} hydrogen table")
    p_r, p_theta = (expectations(canonical_momentum(system, axis), family, config) for axis in (0, 1))
    # <1/r^2> and <1/r^3> on every level, from the family's radial table; L = 0 prints no <1/r^3>
    inv_r2s, inv_r3s = (family.moments(0, lambda r: r**p, config) for p in (-2.0, -3.0))

    rows = []
    for state, rep_r, rep_theta, inv_r2, inv_r3 in zip(states, p_r, p_theta, inv_r2s, inv_r3s):
        qn = state.quantum_numbers
        row = {"inv_r2_quad": inv_r2, "inv_r2_closed": inv_r2_closed_form(qn)}
        if qn.L >= 1:
            fb = _force_balance(state, inv_r2, inv_r3)
            row.update(inv_r3_quad=fb.inv_r3_quad, inv_r3_closed=fb.inv_r3_closed, residual=fb.residual)
        row.update(p_r=rep_r.value.real, p_theta=rep_theta.value.real)
        cells = {key: _in_units(row[key], unit) if key in row else None for key, unit in column_units.items()}
        rows.append({"n": qn.n, "L": qn.L, **cells})
    _emit_rows(fmt, ["n", "L", *column_units], rows)


@main.command()
@_common_options
@_seed_option
@_translate_errors
def check(units, radial_order, theta_order, phi_order, fmt, seed, si_constants):
    """Run the full invariant suite; exits 1 if any suite fails."""
    config, _ = _resolve(units, radial_order, theta_order, phi_order, si_constants)  # suites need no units
    results = run_check_suites(config, seed)

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
        lines = [
            f"{res.name:<24} {'PASS' if res.passed else 'FAIL'}  checks={res.checks:<5d} "
            f"failures={res.failures:<4d} worst={_fmt(res.worst)}"
            for res in results
        ]
        failed = sum(1 for res in results if not res.passed)
        lines.append(f"{failed} suite(s) failed" if failed else "all suites passed")
        click.echo("\n".join(lines))
    if any(not res.passed for res in results):
        sys.exit(1)


@main.command("p-theta-scan")
@click.option(
    "--lmax", type=click.IntRange(*LMAX_RANGE), default=6, show_default=True, help="Largest angular momentum L."
)
@_common_options
@_translate_errors
def p_theta_scan(lmax, units, radial_order, theta_order, phi_order, fmt, si_constants):
    """Scan <p_theta> over eigenstates up to --lmax; exits 1 on any residual."""
    config, constants = _resolve(units, radial_order, theta_order, phi_order, si_constants)
    rows = p_theta_spectrum_scan(lmax, config)

    columns = ["L", "M", "p_theta_re", "p_theta_im", "quad_error"]
    hbar = momentum_unit("angular", constants)
    table = [
        {
            "L": row.L,
            "M": row.M,
            "p_theta_re": _in_units(row.value.real, hbar),
            "p_theta_im": _in_units(row.value.imag, hbar),
            "quad_error": _in_units(row.quadrature_error, hbar),
        }
        for row in rows
    ]
    _emit_rows(fmt, columns, table)
    if any(not abs(row.value) <= 1e-9 for row in rows):  # a NaN value fails too
        sys.exit(1)


if __name__ == "__main__":
    main()
