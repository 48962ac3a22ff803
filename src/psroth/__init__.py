"""Regularly varying functions, floor-image primes, and 3AP counting on Z_N.

The package splits into a function-family layer (hfun), integer machinery
(sieve), cyclic-group Fourier analysis (zn_fourier, measures), exponential
sum decompositions (expsums), and the progression-counting harness (roth).
checks collects the fast exact-identity suite; cli exposes the experiments.
"""

from .errors import ConvergenceError, DomainError, NumericalError, ResourceError
from .hfun import (
    FunctionSpec,
    InverseSpec,
    eval_h,
    eval_h_deriv,
    eval_h_quadrature,
    eval_phi,
    eval_phi_clamped,
    eval_phi_deriv,
    example_specs,
    inverse_of,
    iterated_log,
    ps_exponent_spec,
    pure_power,
    power_explog,
    power_log,
    sigma_tau,
    spec_from_config,
    spec_to_config,
    theta_h,
    theta_phi,
    vtheta,
)
from .sieve import (
    PrimeTable,
    PsPrimeSet,
    count_in_class,
    enumerate_ps_primes,
    euler_phi,
    mangoldt,
    mobius,
    mobius_array,
    ps_member,
    sieve_primes,
    small_p_threshold,
    vaughan_coefficients,
)
from .zn_fourier import (
    convolve,
    dft,
    fourier_on_grid,
    inverse_dft,
    sparse_fourier_on_grid,
    trilinear_direct,
    trilinear_fft,
)
from .measures import (
    SpectrumReport,
    WTrickParams,
    WeightedSequence,
    bohr_indicator,
    bohr_set,
    build_lambda,
    build_lambda_h,
    restrict,
    smooth,
    spectrum_and_bohr,
    w_trick,
)
from .expsums import (
    BoundReport,
    ErrorTermReport,
    PhaseParams,
    VaughanSplit,
    abel_summation,
    b_coefficient_bound,
    bilinear_check,
    default_bilinear_R,
    default_cutoff,
    error_term_sup,
    exp_sum_direct,
    sawtooth_expansion,
    sawtooth_phi,
    type_I_bound_check,
    vaughan_decompose,
    vdc_single_bound,
)
from .roth import (
    ApReport,
    RestrictionReport,
    TransferReport,
    VarnavidesReport,
    count_3aps,
    fourier_sup_decay,
    restriction_ratio,
    smoothing_bound_chain,
    transference_build,
    varnavides_count,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
