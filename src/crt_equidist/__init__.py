"""Residue sets assembled by the Chinese Remainder Theorem, and measurements
of how evenly their fractional parts spread over the torus.

The package builds local residue data at prime powers from pluggable
generators (polynomial roots, Veronese and graph images, curve intersections,
pseudo-polynomials), assembles the global sets by CRT, and measures
equidistribution through exact discrepancy, Weyl sums and Erdos-Turan bounds.
"""

__version__ = "0.1.0"

from .modarith import PrimePower, Factorization, sieve_primes, factorize, mod_inverse, crt_combine
from .crt_sets import (
    LocalSystem,
    ResidueSet,
    ModulusSet,
    TorusPointSet,
    residue_set,
    point_count,
    hyperplane_max_local,
    hyperplane_max,
    local_profile,
    iter_supported,
    supported_blocks,
    supported_moduli,
    fractional_points,
    prime_support_stat,
    load_local_system,
    save_local_system,
)
from .generators import (
    IntPolynomial,
    BivariatePoly,
    PseudoPoly,
    poly_roots_mod_prime_power,
    prime_root_arrays,
    roots_mod_primes,
    roots_system,
    veronese_system,
    image_system,
    graph_system,
    bezout_system,
    pseudo_poly_roots,
    initial_segment_system,
    restrict_primes,
    full_system,
)
from .analysis import (
    WeylSpectrum,
    DiscrepancyResult,
    weyl_sum,
    weyl_spectrum,
    frequency_modulus,
    second_moment_check,
    interval_discrepancy,
    box_discrepancy,
    erdos_turan_bound,
    reciprocal_prime_sum,
    damped_reciprocal_prime_sum,
    theorem_bound,
    aggregate_stats,
)
from .expsums import (
    RationalExpSumSpec,
    normalized_exp_sum,
    twisted_mult_check,
    weil_bound_scan,
    curve_exp_sums,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    run_theorem_sweep,
    poisson_table,
    counterexample_contrast,
    prime_weyl_averages,
)
