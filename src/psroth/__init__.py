"""Regularly varying functions, floor-image primes, and 3AP counting on Z_N.

The package splits into a function-family layer (hfun), integer machinery
(sieve), cyclic-group Fourier analysis (zn_fourier, measures), exponential
sum decompositions (expsums), and the progression-counting harness (roth).
checks collects the exact-identity suite, cli the experiments, run the pool.
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
    mangoldt,
    mobius,
    mobius_array,
    prime_powers,
    ps_member,
    sieve_primes,
    small_p_threshold,
    vaughan_coefficients,
)
from .zn_fourier import (
    dft,
    fourier_on_grid,
    grid_power_sums,
    inverse_dft,
    sparse_fourier_on_grid,
    trilinear_direct,
    trilinear_fft,
)
from .measures import (
    SpectrumReport,
    WeightedSequence,
    bohr_indicator,
    bohr_set,
    smooth,
    spectrum_and_bohr,
)
from .expsums import (
    ErrorTermInputs,
    ErrorTermReport,
    PhaseParams,
    VaughanSplit,
    default_cutoff,
    error_term_inputs,
    error_term_sup,
    exp_sum_direct,
    sawtooth_phi,
    vaughan_decompose,
)
from .roth import (
    ApReport,
    RestrictionReport,
    TransferReport,
    VarnavidesReport,
    count_3aps,
    restriction_ratio,
    smoothing_bound_chain,
    transference_build,
    varnavides_count,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
