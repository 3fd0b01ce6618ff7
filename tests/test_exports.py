import importlib

import fluxlab


def test_every_export_resolves():
    # the export lists are kept by hand; each name must still exist
    missing = [name for name in fluxlab.__all__ if not hasattr(fluxlab, name)]
    for sub in fluxlab._SUBMODULES:
        module = importlib.import_module(f"fluxlab.{sub}")
        missing += [f"{sub}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_every_package_export_is_in_its_module_all():
    # a deletion that leaves the package export behind fails here, not at use
    stray = []
    for name, sub in fluxlab._EXPORTS.items():
        module = importlib.import_module(f"fluxlab.{sub}")
        if hasattr(module, "__all__") and name not in module.__all__:
            stray.append(f"{sub}.{name}")
    assert stray == []


# Every attribute bench/tracing.py (Tracer.install) replaces by name; traced
# benchmark runs break when one is renamed, and tier-1 runs no traced call.
TRACED_NAMES = {
    "angular": ["AngularPotential.coefficients"],
    "spectral": ["assemble_hamiltonian", "eigsh", "diagonalize", "splu", "make_window",
                 "SpectralProjection.idempotency_error", "EigenSystem.gram_error",
                 "spectral_projection", "channel_projection_norm"],
    "weights": ["channel_projection_norm", "build_weight", "weight_validate",
                "forbidden_region_check", "twisted_gap_check", "splu",
                "tunnelling_interior_sum", "tunnelling_exterior_sum"],
    "dynamics": ["prepare_state", "propagate", "record_observables", "bound_check_thm1",
                 "growth_fit_thm2", "mobility_edge_scan"],
    "grid": ["ChannelOperator.eigenpairs"],
    "cli": ["write_csv", "write_json"],
}


def test_every_name_the_bench_tracer_patches_exists():
    missing = []
    for sub, names in TRACED_NAMES.items():
        module = importlib.import_module(f"fluxlab.{sub}")
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{sub}.{name}")
    assert missing == []
