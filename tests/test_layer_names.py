import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _traced_functions():
    """``(module, function)`` of each per-layer metric named
    ``<module>.<function>.<metric>``.  ``cli.runner`` is the span around the
    scenario runners, not a module function, and two-part names such as
    ``shifts.h_bytes_built`` or ``trace.errors`` are counters."""
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    pairs = {tuple(n.split(".")[:2]) for n in names if n.count(".") >= 2}
    return sorted(pairs - {("cli", "runner")})


def test_each_traced_layer_is_a_public_function():
    # the traced benchmark looks each of these names up among the functions
    # in the module's __all__ and fails on one it cannot find
    pairs = _traced_functions()
    assert ("diagnostics", "default_test_functions") in pairs
    missing = []
    for module, function in pairs:
        mod = importlib.import_module(f"actionlab.{module}")
        if function not in mod.__all__ or not inspect.isfunction(getattr(mod, function)):
            missing.append(f"{module}.{function}")
    assert not missing, missing
