"""Fock-state quantum metrology toolkit.

Truncated Fock-space simulation of photon-number filtration, displacement
and phase interrogation, parity readout, open-system noise models, and
Fisher-information precision extraction.
"""

__version__ = "0.1.0"

from .composite import (
    DeviceParams,
    FilterKind,
    FilterOutcome,
    FilterSpec,
    PnrTrace,
    apply_filter,
    default_fock_schedule,
    binary_fock_schedule,
    gaussian_filter,
    gaussian_sigma_from_pulse,
    generalized_filter,
    prepare_fock,
    ramsey_trace,
    resolve_photon_cascade,
    sinusoidal_filter,
    spectroscopy_signal,
)
from .errors import (
    AllocationLimitError,
    ConfigError,
    FilterStarvationError,
    FockmetError,
    InteriorAccuracyError,
    ModelBreakdownError,
    SubstepLimitError,
    TruncationError,
)
from .estimation import (
    FitResult,
    ShotRecord,
    bootstrap_precision,
    fit_displacement_curve,
    fit_multi_gaussian,
    fit_phase_curve,
    fit_ramsey_frequency,
    fit_scaling_exponent,
)
from .fockspace import (
    HilbertSpec,
    LinearOp,
    MixedState,
    PureState,
    coherent_state,
    default_spec,
    displacement,
    fock_state,
    ladder_ops,
    number_op,
    parity_expectation,
    parity_op,
    wigner_value,
)
from .metrology import (
    Parameter,
    PrecisionReport,
    cfi_of_curve,
    displacement_generator,
    optimal_phase_displacement,
    parity_curve_ideal,
    phase_curve_ideal,
    phase_generator,
    precision_report,
    qfi_pure,
    sql_baselines,
    weighted_fisher,
)
from .noise import (
    LindbladSpec,
    ToyModelResult,
    displacement_dephasing_bias,
    init_fidelity_model,
    lindblad_evolve,
    parity_prob_noisy,
    perturbation_first_order,
    toy_model,
)
