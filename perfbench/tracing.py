"""Per-layer tracing of curvimom from outside the package.

``Tracer.install`` wraps the public functions of each curvimom module (and
the seven check suites) in every module namespace that holds them, so
calls between modules are traced too; ``uninstall`` puts the originals
back.  Nothing under src/ is edited.

Every wrapped call records a span: name, start, end, parent span and
operation id.  Spans are kept in compact in-memory arrays and written out
once, at the end.  A span's self time is its duration minus the durations
of its direct children; calls are single-threaded and strictly nested, so
that is exactly the part of the interval the children cover.
"""

from __future__ import annotations

import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# (module, function) pairs traced as "<module>.<function>"
FUNCTIONS = (
    ("quadrature", "gauss_legendre"),
    ("quadrature", "coordinate_rule"),
    ("quadrature", "coordinate_integral"),
    ("quadrature", "integrate_separable"),
    ("specfun", "assoc_legendre"),
    ("specfun", "assoc_legendre_deriv"),
    ("specfun", "assoc_laguerre"),
    ("specfun", "assoc_laguerre_deriv"),
    ("states", "hydrogen_state"),
    ("states", "random_bound_trial"),
    ("operators", "apply"),
    ("operators", "commutator_qp_residual"),
    ("operators", "commutator_pp_residual"),
    ("operators", "operator_applied_state"),
    ("analysis", "expectation"),
    ("analysis", "radial_moment"),
    ("analysis", "drift_expectation"),
    ("analysis", "force_balance"),
)
# the suite functions run_check_suites dispatches to, traced as analysis.suite.<key>
SUITES = (
    "parity",
    "recurrence",
    "fd_derivative",
    "normalization",
    "commutators",
    "reality",
    "ci_uniqueness",
)
DRIFT = "geometry.drift"  # MeasureFactor.drift
FACTOR = "states.factor"  # a state factor's evaluate or derivative callable
CLI = "cli.command"  # one CLI command, wrapped by the benchmark loop
TOTAL_S = ("analysis.expectation", CLI) + tuple(f"analysis.suite.{s}" for s in SUITES)


def _size(x) -> int:
    return int(getattr(x, "size", 1))


class Tracer:
    """Spans and counters for one traced run; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names = array("i")
        self._parents = array("q")
        self._ops = array("i")
        self._starts = array("q")
        self._ends = array("q")
        self._stack = [-1]  # open span indices
        self._open = [-1]  # their name ids
        self._errors: dict[int, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._specfun: set[int] = set()
        self._rule_keys: set = set()
        self.op = -1
        self.missing: list[str] = []
        self.counts = dict.fromkeys(
            (
                "rule_builds",
                "rule_repeats",
                "integral_points",
                "specfun_points",
                "factor_evals",
                "factor_points",
                "bytes_out",
            ),
            0,
        )

    # ------------------------------------------------------------- spans

    def _id(self, name: str) -> int:
        return self._ids.setdefault(name, len(self._ids))

    def begin_op(self, op: int) -> None:
        self.op = op
        self._rule_keys = set()

    def _open_span(self, nid: int) -> int:
        idx = len(self._names)
        self._names.append(nid)
        self._parents.append(self._stack[-1])
        self._ops.append(self.op)
        self._starts.append(0)
        self._ends.append(0)
        self._stack.append(idx)
        self._open.append(nid)
        return idx

    def _close_span(self, idx: int, start: int) -> None:
        self._ends[idx] = perf_counter_ns()
        self._starts[idx] = start
        self._stack.pop()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn, prepare=None):
        nid = self._id(name)
        errors = self._errors

        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            idx = self._open_span(nid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[nid] = errors.get(nid, 0) + 1
                raise
            finally:
                self._close_span(idx, start)

        return traced

    def _wrap_factor(self, fn):
        nid = self._id(FACTOR)
        traced = self._wrap(FACTOR, fn)
        counts = self.counts

        def factor(q, *rest):
            if self._open[-1] == nid:  # a factor built on top of another one
                return fn(q, *rest)
            counts["factor_evals"] += 1
            counts["factor_points"] += _size(q)
            return traced(q, *rest)

        return factor

    # ---------------------------------------------------------- argument hooks

    def _rule_key(self, args, kwargs):
        spec = args[0] if args else kwargs["spec"]
        order = args[1] if len(args) > 1 else kwargs["order"]
        scale = args[2] if len(args) > 2 else kwargs.get("scale", 1.0)
        key = (spec.topology, int(order), float(scale))
        self.counts["rule_builds"] += 1
        if key in self._rule_keys:
            self.counts["rule_repeats"] += 1
        else:
            self._rule_keys.add(key)
        return args, kwargs

    def _count_nodes(self, args, kwargs):
        counts = self.counts

        def counted(f):
            def integrand(q):
                counts["integral_points"] += _size(q)
                return f(q)

            return integrand

        if len(args) > 1:
            args = (args[0], counted(args[1])) + tuple(args[2:])
        else:
            kwargs = dict(kwargs, integrand=counted(kwargs["integrand"]))
        return args, kwargs

    def _specfun_points(self, args, kwargs):
        if self._open[-1] not in self._specfun:  # only arguments asked for from outside
            self.counts["specfun_points"] += _size(args[2] if len(args) > 2 else kwargs["x"])
        return args, kwargs

    # --------------------------------------------------------------- patching

    def _replace(self, original, wrapped) -> None:
        for name, module in list(sys.modules.items()):
            if name == "curvimom" or name.startswith("curvimom."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def install(self) -> None:
        hooks = {"coordinate_rule": self._rule_key, "coordinate_integral": self._count_nodes}
        targets = [(f"{m}.{f}", m, f) for m, f in FUNCTIONS]
        targets += [(f"analysis.suite.{s}", "analysis", f"_suite_{s}") for s in SUITES]
        for span, module, attr in targets:
            original = getattr(sys.modules[f"curvimom.{module}"], attr, None)
            if original is None:
                self.missing.append(span)
                continue
            prepare = hooks.get(attr)
            if module == "specfun":
                self._specfun.add(self._id(span))
                prepare = self._specfun_points
            self._replace(original, self._wrap(span, original, prepare))

        measure = sys.modules["curvimom.geometry"].MeasureFactor
        drift = measure.__dict__["drift"]
        self._undo.append((measure, "drift", drift))
        measure.drift = self._wrap(DRIFT, drift)

        factor_cls = sys.modules["curvimom.states"].FactorFunction
        init = factor_cls.__init__
        tracer = self

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            object.__setattr__(obj, "evaluate", tracer._wrap_factor(obj.evaluate))
            object.__setattr__(obj, "derivative", tracer._wrap_factor(obj.derivative))

        self._undo.append((factor_cls, "__init__", init))
        factor_cls.__init__ = __init__

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ---------------------------------------------------------------- results

    @property
    def span_count(self) -> int:
        return len(self._names)

    def span_stats(self) -> dict[str, tuple[int, float, float]]:
        """(calls, self seconds, total seconds) per span name."""
        names = np.frombuffer(self._names, dtype=np.int32)
        parents = np.frombuffer(self._parents, dtype=np.int64)
        dur = (np.frombuffer(self._ends, dtype=np.int64) - np.frombuffer(self._starts, dtype=np.int64)) * 1e-9
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        width = len(self._ids)
        calls = np.bincount(names, minlength=width)
        self_s = np.bincount(names, weights=dur - covered, minlength=width)
        total_s = np.bincount(names, weights=dur, minlength=width)
        return {name: (int(calls[i]), float(self_s[i]), float(total_s[i])) for name, i in self._ids.items()}

    def summary(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics, each per operation, keyed by metric name."""
        stats = self.span_stats()
        none = (0, 0.0, 0.0)
        out: dict[str, float] = {}
        for span in [f"{m}.{f}" for m, f in FUNCTIONS] + [DRIFT]:
            calls, self_s, _ = stats.get(span, none)
            out[f"{span}.calls"] = calls / n_ops
            out[f"{span}.self_s"] = self_s / n_ops
            out[f"{span}.errors"] = self._errors.get(self._ids.get(span), 0) / n_ops
        for span in TOTAL_S:
            out[f"{span}.total_s"] = stats.get(span, none)[2] / n_ops
        out[f"{FACTOR}.self_s"] = stats.get(FACTOR, none)[1] / n_ops
        out["cli.self_s"] = stats.get(CLI, none)[1] / n_ops
        c = self.counts
        out["quadrature.coordinate_rule.repeat_ratio"] = c["rule_repeats"] / c["rule_builds"] if c["rule_builds"] else 0.0
        out["quadrature.coordinate_integral.points"] = c["integral_points"] / n_ops
        out["specfun.points"] = c["specfun_points"] / n_ops
        out["states.factor_evals"] = c["factor_evals"] / n_ops
        out["states.factor_points"] = c["factor_points"] / n_ops
        out["cli.bytes_out"] = c["bytes_out"] / n_ops
        return out

    def save(self, path: Path) -> None:
        """Write every span: name table plus name, parent, op, start, end arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        ordered = sorted(self._ids, key=self._ids.get)
        np.savez(
            path,
            span_names=np.array(ordered),
            name=np.frombuffer(self._names, dtype=np.int32),
            parent=np.frombuffer(self._parents, dtype=np.int64),
            op=np.frombuffer(self._ops, dtype=np.int32),
            start_ns=np.frombuffer(self._starts, dtype=np.int64),
            end_ns=np.frombuffer(self._ends, dtype=np.int64),
        )
