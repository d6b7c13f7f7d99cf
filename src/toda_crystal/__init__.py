"""Exact-arithmetic toolkit for melting-crystal partition functions,
quantum-torus shift symmetries, and 2D Toda tau functions."""

from .algebra import SeriesContext, TruncatedSeries, series_exp, series_partial
from .fock import SectorConfig
from .models import (
    ModelParams,
    charge_offset,
    l0_eigenvalue,
    phi_potential,
    schur_qrho,
    w0_eigenvalue,
    z_series,
    zprime_series,
)
from .partitions import Partition, enumerate_partitions
from .symmetries import (
    commutator_check,
    first_shift_check,
    second_shift_check,
    torus_constant,
)
from .toda import (
    CalibrationError,
    build_g,
    build_gprime,
    calibrate_bilinear_sign,
    check_prev_forms,
    check_prev_reduction,
    ground_action_constants,
    intertwining_residual,
    tau_prev_series,
    tau_prime_family,
    tau_prime_series,
    toda_bilinear_residual,
    trivial_tau,
    trivial_tau_compare,
    verify_main_identity,
    verify_prev_identity,
    zprime_family,
)

__version__ = "0.1.0"
