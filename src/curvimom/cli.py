"""curvimom command line interface: one argparse parser, built at import.

Subcommands:

- expect: one expectation value with reality diagnostics;
- hydrogen-table: closed-form vs quadrature moments per (n, L) level;
- check: the full invariant suite;
- p-theta-scan: <p_theta> across angular eigenstates.

The library returns natural units (lengths in a0, momenta in hbar/a0 or
hbar); each command applies the chosen units once, as one product over
the table it prints.

Each command returns its exit code: 0 success, 1 suite or scan failure,
2 usage error, 3 reality-contract failure, 4 singular evaluation; ``main``
prints a refusal as ``error: ...`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from types import SimpleNamespace

import numpy as np

from . import __version__
from .analysis import (
    LMAX_RANGE,
    NMAX_RANGE,
    _force_balance,
    _scan_columns,
    _table_levels,
    expectation,
    expectations,
    inv_r2_closed_form,
    reality_tolerance,
    require_normalised,
    run_check_suites,
)
from .errors import ConfigurationError, DomainError, SingularityError
from .geometry import preset_systems
from .operators import canonical_momentum, momentum_unit, naive_momentum
from .quadrature import ORDER_RANGE, QuadratureConfig
from .specfun import QuantumNumbers
from .states import ATOMIC, hydrogen_state, load_constants, random_bound_trial


# the %-conversions of the kinds of cell a table holds: a float, an empty (None) cell, and anything else by str()
_FLOAT, _EMPTY, _STR = ".12e", ".0s", "s"


def _fmt(value) -> str:
    """One output cell as text, by its kind's conversion."""
    return f"%{_FLOAT if isinstance(value, float) else _EMPTY if value is None else _STR}" % (value,)


def _in_units(cells, units):
    """A (k, c) table in natural units times its c units, or one cell times one unit, as one product: in atomic
    units the cells themselves, and DomainError on the first normal cell, in row order, that over- or underflows."""
    if units == 1.0 or isinstance(units, tuple) and set(units) == {1.0}:
        return cells
    with np.errstate(all="ignore"):
        scaled = np.multiply(cells, units)
    normal = [(sys.float_info.min <= x) & (x < math.inf) for x in np.abs([cells, scaled])]
    refused = np.flatnonzero(normal[0] & ~normal[1])
    if refused.size:
        value, unit = np.ravel(cells)[refused[0]], np.broadcast_to(units, np.shape(cells)).flat[refused[0]]
        raise DomainError(f"{value.item()!r} in natural units over- or underflows at the unit {unit.item()!r}")
    return scaled


def _write(text: str) -> None:
    """A command's whole output, written at once."""
    sys.stdout.write(text + "\n")


def _resolve(args):
    if (args.units == "si") != (args.si_constants is not None):
        raise DomainError("--units si and --si-constants FILE must be given together")
    constants = load_constants(args.si_constants) if args.units == "si" else ATOMIC
    return QuadratureConfig(args.radial_order, args.theta_order, args.phi_order), constants


def _parse_operator(text: str, system):
    family, _, axis_name = text.partition(":")
    if family not in ("canonical", "naive") or not axis_name:
        raise DomainError(f"operator must look like 'canonical:r' or 'naive:x', got {text!r}")
    names = [spec.name for spec in system.coords]
    if axis_name not in names:
        raise DomainError(f"axis {axis_name!r} is not part of system {system.name!r} (axes: {', '.join(names)})")
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
        raise DomainError(f"state must look like 'hydrogen:n=2,L=1,M=0' or 'trial:seed=42', got {text!r}")
    pairs: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in _STATE_KEYS[family] or key in pairs:
                keys = ", ".join(_STATE_KEYS[family])
                raise DomainError(f"malformed state {text!r}: {family} takes {keys}, each at most once")
            pairs[key] = value.strip()
    if family == "hydrogen":
        if system.name != "spherical":
            raise DomainError("hydrogen states live on the spherical system")
        try:
            qn = QuantumNumbers(int(pairs["n"]), int(pairs["L"]), int(pairs["M"]))
        except KeyError as exc:
            raise DomainError(f"hydrogen state needs n, L and M, missing {exc}")
        except (ValueError, DomainError) as exc:
            raise DomainError(f"invalid quantum numbers in {text!r}: {exc}")
        if qn.n > _EXPECT_NMAX:
            raise DomainError(f"expect is verified on hydrogen states with n <= {_EXPECT_NMAX}, got n={qn.n}")
        return hydrogen_state(qn)
    try:
        seed = int(pairs.get("seed", default_seed))
    except ValueError as exc:
        raise DomainError(f"invalid trial seed in {text!r}: {exc}")
    return random_bound_trial(system, seed)


def _emit_rows(fmt: str, columns: list[str], rows: list[tuple], *kinds: list[str], pick=None) -> None:
    """A table with one tuple of cells per row, in column order: a json object per row, or a csv or padded text
    header and one line per row, through the conversions of the row's kind (``pick``'s index, 0 by default)."""
    if fmt == "json":
        lines = [json.dumps(dict(zip(columns, cells))) for cells in rows]
    else:
        # one %-template per row kind, made once per table; text pads each cell to its column
        sep, pads = (",", [""] * len(columns)) if fmt == "csv" else ("  ", [f"-{max(len(k), 20)}" for k in columns])
        header, *templates = (sep.join(map("%{}{}".format, pads, kind)) for kind in ([_STR] * len(columns), *kinds))
        lines = [header % tuple(columns)]
        lines += [templates[i] % cells for i, cells in zip(pick or [0] * len(rows), rows)]
    _write("\n".join(lines))


def expect(args) -> int:
    """Expectation value of OPERATOR on STATE.

    OPERATOR looks like 'canonical:r' or 'naive:theta'; STATE like
    'hydrogen:n=2,L=1,M=0' or 'trial:seed=42'.  Exits 3 when the
    hermiticity defect breaks the reality contract, and 2 when the state's
    norm misses 1 by more than 1e-10 at the orders in use.
    """
    config, constants = _resolve(args)
    system = preset_systems()[args.system]
    op = _parse_operator(args.operator, system)
    st = _parse_state(args.state, system, args.seed)
    require_normalised(st, config, args.state)
    report = expectation(op, st, config)

    columns = ["value_re", "value_im", "defect", "boundary_term", "quad_error"]
    cells = _in_units((report.value.real, report.value.imag, report.hermiticity_defect, report.boundary_term,
                       report.quadrature_error), momentum_unit(op.kind, constants))
    if args.format != "text":
        _emit_rows(args.format, ["command", *columns, "units"], [("expect", *cells, args.units)],
                   [_STR, *[_FLOAT] * 5, _STR])
    else:
        value_re, value_im, *texts = map(_fmt, cells)
        fields = [("operator", args.operator), ("state", args.state), ("system", args.system),
                  ("value", f"{value_re} + {value_im} i"), *zip(columns[2:], texts), ("units", args.units)]
        _write("\n".join(f"{key + ':':<15}{text}" for key, text in fields))
    return 0 if abs(report.hermiticity_defect) <= reality_tolerance(report) else 3  # a NaN defect fails too


def hydrogen_table(args) -> int:
    """Hydrogen moment table: quadrature vs closed forms per (n, L) level."""
    config, constants = _resolve(args)
    # the unit of each number column, in column order
    lengths = {"inv_r2_quad": -2, "inv_r2_closed": -2, "inv_r3_quad": -3, "inv_r3_closed": -3}
    column_units = {key: constants.length_unit(power) for key, power in lengths.items()}
    column_units.update(residual=constants.e2 * constants.length_unit(-2), p_r=momentum_unit("linear", constants),
                        p_theta=momentum_unit("angular", constants))

    levels, family = _table_levels(args.nmax)
    require_normalised(family, config, f"a state of the n <= {args.nmax} hydrogen table")
    p_r, p_theta = (expectations(canonical_momentum(family.system, axis), family, config).value.real for axis in (0, 1))
    # the force balance on the L >= 1 levels: L = 0 has no <1/r^3>, so its three cells hold 0 and print empty
    inv_r2, inv_r3 = (np.array(family.moments(0, lambda r: r**p, config)) for p in (-2.0, -3.0))
    orbital = levels.L >= 1
    fb = _force_balance(SimpleNamespace(n=levels.n[orbital], L=levels.L[orbital]), inv_r2[orbital], inv_r3[orbital])
    table = np.column_stack([inv_r2, inv_r2_closed_form(levels), np.zeros((orbital.size, 3)), p_r, p_theta])
    table[orbital, 2:5] = np.transpose([fb.inv_r3_quad, fb.inv_r3_closed, fb.residual])
    cells = zip(levels.n.tolist(), levels.L.tolist(), _in_units(table, tuple(column_units.values())).tolist())
    rows = [(n, L, *row) if L else (n, L, *row[:2], None, None, None, *row[5:]) for n, L, row in cells]
    l0_kinds = [_STR, _STR, _FLOAT, _FLOAT, _EMPTY, _EMPTY, _EMPTY, _FLOAT, _FLOAT]
    _emit_rows(args.format, ["n", "L", *column_units], rows, l0_kinds, [_STR, _STR, *[_FLOAT] * 7],
               pick=orbital.tolist())
    return 0


def check(args) -> int:
    """Run the full invariant suite; exits 1 if any suite fails."""
    config, _ = _resolve(args)  # suites need no units
    results = run_check_suites(config, args.seed)

    if args.format != "text":
        columns = ["suite", "passed", "checks", "failures", "worst"]
        rows = [(res.name, res.passed, res.checks, res.failures, res.worst) for res in results]
        if args.format == "json":  # json rows name their command; the csv header does not
            columns, rows = ["command", *columns], [("check", *row) for row in rows]
        _emit_rows(args.format, columns, rows, [_STR] * 4 + [_FLOAT])
    else:
        lines = [
            f"{res.name:<24} {'PASS' if res.passed else 'FAIL'}  checks={res.checks:<5d} "
            f"failures={res.failures:<4d} worst={_fmt(res.worst)}"
            for res in results
        ]
        failed = sum(1 for res in results if not res.passed)
        lines.append(f"{failed} suite(s) failed" if failed else "all suites passed")
        _write("\n".join(lines))
    return 1 if any(not res.passed for res in results) else 0


def p_theta_scan(args) -> int:
    """Scan <p_theta> over eigenstates up to --lmax; exits 1 on any residual."""
    config, constants = _resolve(args)
    levels, report = _scan_columns(args.lmax, config)
    table = np.column_stack([report.value.real, report.value.imag, report.quadrature_error])
    columns = _in_units(table, momentum_unit("angular", constants)).T.tolist()
    _emit_rows(args.format, ["L", "M", "p_theta_re", "p_theta_im", "quad_error"],
               list(zip(levels.L.tolist(), levels.M.tolist(), *columns)), [_STR, _STR, *[_FLOAT] * 3])
    return 0 if (np.abs(report.value) <= 1e-9).all() else 1  # a NaN value fails too


def _int_range(low: int, high: float = math.inf):
    """An argparse type: an int in [low, high]."""

    def integer(text: str) -> int:
        if not low <= int(text) <= high:
            raise argparse.ArgumentTypeError(f"{text} is not in [{low}, {high}]")
        return int(text)

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvimom", allow_abbrev=False,
        description="Canonical momentum operators on curvilinear coordinates, checked by quadrature.")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    order, seed = _int_range(*ORDER_RANGE), _int_range(0)

    def command(name: str, run, seeded: bool = False) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=run.__doc__.splitlines()[0], description=run.__doc__,
                                  allow_abbrev=False, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sub.set_defaults(run=run)
        sub.add_argument("--units", choices=["atomic", "si"], default="atomic",
                         help="Unit system for constants and output.")
        for axis, text in (("radial", "Radial quadrature order."), ("theta", "Polar quadrature order."),
                           ("phi", "Azimuthal quadrature points.")):
            sub.add_argument(f"--{axis}-order", type=order, default=getattr(QuadratureConfig, f"{axis}_order"),
                             help=text)
        sub.add_argument("--format", choices=["json", "csv", "text"], default="text", help="Output format.")
        sub.add_argument("--si-constants", metavar="PATH",
                         help="JSON file with keys hbar, m, e2; required with --units si.")
        if seeded:
            sub.add_argument("--seed", type=seed, default=0, help="Base seed for trial states.")
        return sub

    sub = command("expect", expect, seeded=True)
    sub.add_argument("operator", metavar="OPERATOR")
    sub.add_argument("state", metavar="STATE")
    sub.add_argument("--system", choices=sorted(preset_systems()), default="spherical",
                     help="Coordinate system the operator and state live on.")
    command("hydrogen-table", hydrogen_table).add_argument(
        "--nmax", type=_int_range(*NMAX_RANGE), default=4, help="Largest principal quantum number.")
    command("check", check, seeded=True)
    command("p-theta-scan", p_theta_scan).add_argument(
        "--lmax", type=_int_range(*LMAX_RANGE), default=6, help="Largest angular momentum L.")
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` by default) and return its exit code; argparse
    itself exits 2 on a malformed command line and 0 after ``--help`` or ``--version``."""
    args = _PARSER.parse_args(argv)
    try:
        # non-finite results are reported as failures, not as numpy warnings
        with np.errstate(all="ignore"):
            return args.run(args)
    except (SingularityError, DomainError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, SingularityError) else 2


# perfbench's runner calls main.main(args=..., prog_name=...) and expects SystemExit with the code
main.main = lambda args=None, prog_name="curvimom": sys.exit(main(args))


if __name__ == "__main__":
    sys.exit(main())
