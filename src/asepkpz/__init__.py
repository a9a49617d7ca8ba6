"""Open ASEP simulation and numerical verification of its stochastic heat
equation scaling limit with Robin boundary conditions."""

__version__ = "0.1.0"

from .params import (ScalingParams, ModelParams, PhaseDiagnostics, Phase,
                     build_params, params_from_mu, phase_point, expansion_audit,
                     equal_density_mu)
from .engine import (Lattice, Configuration, HeightField, Trajectory,
                     event_rates, simulate, simulate_replicas, state_etas,
                     exact_generator, stationary_measure, bernoulli_eta,
                     alternating_eta, replica_rng, run_replicas)
from .gartner import (ZField, ScaledField, z_field, drift_identity_residual,
                      bracket_rate, bracket_decomposition, rescale)
from .kernels import (free_walk_kernel, halfline_robin_kernel, SpectralData,
                      solve_interval_spectrum, KernelMatrix,
                      interval_kernel_spectral, interval_kernel_image,
                      build_image_expansion, continuous_halfline_kernel,
                      kernel_bound_audit)
from .greens import (green_matrix, green_corner_closed_form, halfline_green,
                     f_matrix, c_closed_form, key_identity, c_star_estimate,
                     c_star_weighted, summation_by_parts_audit)
from .she import (SheGrid, build_grid, sample_she, sample_she_ensemble,
                  mean_field, second_moment, TestFunction, neumann_cosine,
                  robin_test_function, martingale_diagnostics, asep_she_compare,
                  run_interval_ensemble)
