"""Numerical verification toolkit for the moment-curve line transform."""

from .geometry import (
    PHI,
    PSI,
    CdEstimate,
    closed_form_degree,
    estimate_c_d,
    incidence_path,
    jacobian_closed_form,
    jacobian_numeric,
    line_step,
    psi_map_closed,
    sample_incidence_params,
    split_params,
)
from .lorentz import (
    SimpleFunction,
    blockwise_lorentz_norm,
    lorentz_norm,
    lorentz_norm_from_steps,
    lp_norm,
)
from .refinement import (
    Tower,
    TowerCollapse,
    TowerConfig,
    TowerLevel,
    build_tower,
    check_tower_structure,
    enumerate_tower_bruteforce,
    image_volume_lower_bound,
    rasterized_image_measure,
    tower_report,
)
from .sets import BoxUnionSet, Interval, fiber_cells
from .sharpness import (
    CounterexampleSpec,
    FitResult,
    Lemma2Report,
    NecessityReport,
    RwtReport,
    ScalingResult,
    SuperlevelMassReport,
    build_counterexample_f,
    build_xf_lower_bound,
    check_rwt,
    counterexample_f_lp,
    critical_exponents,
    delta_region_vertices,
    dilate_configuration,
    dual_exponent,
    fit_power_law,
    homogeneous_dimension,
    lemma2_grid_dual,
    lemma2_grid_primal,
    lemma2_shrinking_sweep,
    necessity_check,
    predicted_f_slope,
    predicted_xf_slope,
    region_contains,
    resolve_k_max,
    scaling_experiment,
    superlevel_mass_check,
    verify_minorant,
    xf_lower_block_norm,
    xf_lower_exact_lorentz,
)
from .transform import (
    NoIncidence,
    QuadSpec,
    adjointness_gap,
    bilinear_form,
    bilinear_form_dual,
    fiber_measure_batch,
    fiber_pieces,
)

__version__ = "0.1.0"
