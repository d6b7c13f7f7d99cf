"""Exact-arithmetic toolkit for melting-crystal partition functions,
quantum-torus shift symmetries, and 2D Toda tau functions.

Each public name, and each submodule, is loaded on first use (PEP 562):
importing the package, or one submodule of it, compiles only the code that
is used.
"""

import sys as _sys

_EXPORTS = {
    "algebra": ("ModelParams", "SeriesContext", "charge_offset"),
    "truncated": ("TruncatedSeries",),
    "fock": ("SectorConfig",),
    "models": ("l0_eigenvalue", "phi_potential", "schur_qrho", "w0_eigenvalue", "z_series",
               "zprime_series"),
    "partitions": ("Partition", "enumerate_partitions"),
    "checks": ("torus_constant",),
    "symmetries": ("commutator_check",),
    "shifts": ("first_shift_check", "second_shift_check"),
    "toda": ("build_g", "build_gprime", "tau_prev_series", "tau_prime_series", "trivial_tau"),
    "identities": ("CalibrationError", "calibrate_bilinear_sign", "check_prev_forms",
                   "check_prev_reduction", "ground_action_constants", "intertwining_residual",
                   "tau_prime_family", "toda_bilinear_residual", "trivial_tau_compare",
                   "verify_main_identity", "verify_prev_identity", "zprime_family"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_HOME]

__version__ = "0.1.0"


def _load(module: str):
    # __import__, not importlib.import_module: -X importtime reports it
    full = f"{__name__}.{module}"
    __import__(full)
    return _sys.modules[full]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _load(name)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_load(module), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
