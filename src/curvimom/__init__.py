"""Canonical momentum operators in orthogonal curvilinear coordinates.

The measure-factor ansatz p_i = -i hbar (d/dq_i + w_i'/(2 w_i)) turns the
coordinate weight w_i into a drift term that restores hermiticity on the
weighted domain.  This package builds those operators for the standard
coordinate systems and verifies every reality, commutator and hydrogen
identity by quadrature.
"""

from .analysis import (
    ExpectationReport,
    ForceBalanceReport,
    ScanRow,
    SuiteResult,
    cartesian_reality_check,
    ci_uniqueness_demo,
    drift_expectation,
    expectation,
    expectations,
    force_balance,
    inv_r2_closed_form,
    inv_r3_closed_form,
    naive_ehrenfest_residual,
    p_theta_spectrum_scan,
    radial_moment,
    reality_tolerance,
    run_check_suites,
)
from .errors import (
    ConfigurationError,
    CurvimomError,
    DomainError,
    PreconditionError,
    SingularityError,
    UnsupportedAxisError,
    UnsupportedStateError,
)
from .geometry import (
    CoordinateSpec,
    CoordinateSystem,
    MeasureFactor,
    Weight,
    WEIGHTS,
    make_cartesian,
    make_cylindrical,
    make_plane_polar,
    make_spherical,
    measure_factor,
    preset_systems,
)
from .operators import (
    MomentumOperator,
    apply,
    canonical_momentum,
    commutator_pp_residual,
    commutator_qp_residual,
    coordinate_scaled_state,
    l_squared_expectation,
    momentum_unit,
    naive_momentum,
    operator_applied_state,
)
from .quadrature import (
    QuadratureConfig,
    QuadratureRule,
    coordinate_integral,
    coordinate_rule,
    gauss_legendre,
    half_line_rule,
    integrate_separable,
    line_rule,
    periodic_rule,
)
from .specfun import (
    QuantumNumbers,
    assoc_laguerre,
    assoc_laguerre_deriv,
    assoc_legendre,
    assoc_legendre_deriv,
)
from .states import (
    ATOMIC,
    FactorFunction,
    PhysicalConstants,
    SeparableState,
    apply_phase_twist,
    hydrogen_family,
    hydrogen_state,
    load_constants,
    random_bound_trial,
    state_overlap,
    trial_family,
)

__version__ = "0.1.0"
