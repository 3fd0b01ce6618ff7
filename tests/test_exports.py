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
