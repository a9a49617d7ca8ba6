"""Open ASEP simulation and numerical verification of its stochastic heat
equation scaling limit with Robin boundary conditions."""

__version__ = "0.1.0"

from .params import (ModelParams, PhaseDiagnostics, Phase, build_params, params_from_mu,
                     phase_point, expansion_audit, equal_density_mu)
from .engine import (Lattice, Trajectory, event_rates, simulate_replicas, state_etas,
                     exact_generator, bernoulli_eta, alternating_eta, replica_rng, z_field)
from .kernels import (SpectralData, solve_interval_spectrum, interval_kernel_spectral,
                      interval_kernel_image, build_image_expansion, kernel_bound_audit)
from .greens import (green_matrix, green_corner_closed_form, f_matrix, c_closed_form,
                     key_identity, c_star_estimate, summation_by_parts_audit)
from .she import (SheGrid, build_grid, sample_she, sample_she_ensemble,
                  mean_field, second_moment, TestFunction, robin_test_function,
                  martingale_diagnostics, run_interval_ensemble, compare)
