"""The benchmark's per-layer trace wraps program names by string; a name
that no longer resolves would read 0 calls there instead of failing, so
each one is checked here against the package."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, names in tracing.LAYERS.items():
        module = importlib.import_module(f"graphforge.{module_name}")
        for name in names:
            if name.startswith("Graph."):
                found = name.split(".", 1)[1] in vars(module.Graph)
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append(f"{module_name}.{name}")
    assert missing == []
