"""Range-only 3D localization from a single fixed beacon.

The package simulates a kinematic agent whose squared distance to one
beacon is measured, recasts that nonlinear output as a linear function of
the state via the running integral of the commanded velocity, and provides

* observability analysis (regression rank, integral Gramians) for the
  drift-free and unknown-constant-current models,
* persistently exciting sinusoid input design,
* linear Kalman estimators for both models (3-state and 8-state), and
* a command line front end (``singlerange``) for scenario simulation,
  analysis, estimation and the two bundled reference experiments.
"""

from singlerange.frames import rotation_from_axis_angle, skew, to_inertial
from singlerange.signals import (
    IntegralTrace,
    SampledSignal,
    SinusoidInput,
    integrate,
    literature_profile,
)
from singlerange.truthsim import (
    NoiseSpec,
    ScenarioConfig,
    TruthTrace,
    measure,
    propagate_current,
    propagate_free,
)
from singlerange.observability import (
    GramianReport,
    LsResult,
    RegressionSystem,
    build_regression,
    drift_matrices,
    exp_At,
    g11_condition,
    gramian_current,
    gramian_free,
    mu_free,
    solve_ls,
)
from singlerange.estimators import (
    CovarianceError,
    DerivedOutput,
    FilterState,
    derived_output,
    kf_step,
    output_row_current,
    reanchor,
    run_current_filter,
    run_free_filter,
    truth_z,
)

__version__ = "0.1.0"
