"""fluxlab: angular-momentum channel numerics for 2D magnetic Schrodinger operators.

The package discretizes rotationally symmetric flux models into radial
channels, assembles Gevrey-coupled block Hamiltonians, computes spectra and
spectral projections, measures tunnelling decay of projections into
classically forbidden regions, and propagates window states to test moment
growth bounds.

Submodules are imported lazily so the CLI can pin BLAS thread counts before
any numerical library loads.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("flux", "grid", "angular", "spectral", "weights", "dynamics",
               "runio", "cli")

_EXPORTS = {
    "FluxProfile": "flux", "ClassicalRegion": "flux", "classical_region": "flux",
    "validate_growth_conditions": "flux",
    "RadialGrid": "grid", "ChannelOperator": "grid", "build_grid": "grid",
    "build_channel_operator": "grid",
    "AngularPotential": "angular", "GevreyEnvelope": "angular",
    "DecayClass": "angular", "CoefficientTable": "angular",
    "fourier_coefficients": "angular", "gevrey_validate": "angular",
    "xi_constant": "angular",
    "BlockHamiltonian": "spectral", "SpectralWindow": "spectral",
    "SpectralProjection": "spectral", "assemble_hamiltonian": "spectral",
    "diagonalize": "spectral", "spectral_projection": "spectral",
    "estimate_c0": "spectral", "channel_projection_norm": "spectral",
    "WeightSequence": "weights", "build_weight": "weights",
    "weight_validate": "weights", "twisted_gap_check": "weights",
    "tunnelling_interior_sum": "weights", "tunnelling_exterior_sum": "weights",
    "decay_rate_fit": "weights", "forbidden_region_check": "weights",
    "WaveState": "dynamics", "ObservableSeries": "dynamics",
    "prepare_state": "dynamics", "propagate": "dynamics",
    "moment_x": "dynamics", "moment_j": "dynamics",
    "record_observables": "dynamics", "heisenberg_check": "dynamics",
    "bound_check_thm1": "dynamics", "growth_fit_thm2": "dynamics",
    "mobility_edge_scan": "dynamics", "geometric_times": "dynamics",
    "RunConfig": "runio",
}

__all__ = sorted(_EXPORTS) + list(_SUBMODULES)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
