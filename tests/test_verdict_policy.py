import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layer_modules():
    """``LAYER_MODULES`` of the benchmark's tracer, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "LAYER_MODULES":
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYER_MODULES in perfbench/tracing.py")


def test_only_verdict_reads_a_threshold():
    # the diagnostics measure and diagnostics.verdict alone decides: no other
    # public function, method or dataclass of a layer module takes or keeps a
    # threshold, and no public class carries a verdict of its own
    found = []
    for short in _layer_modules():
        mod = importlib.import_module(f"actionlab.{short}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            where = f"{short}.{attr}"
            if inspect.isclass(obj):
                if hasattr(obj, "verdict"):
                    found.append(f"{where}.verdict")
                if dataclasses.is_dataclass(obj) and "threshold" in {
                        f.name for f in dataclasses.fields(obj)}:
                    found.append(f"{where} field")
                callables = [(f"{where}.{name}", fn) for name, fn in vars(obj).items()
                             if inspect.isfunction(fn) and not name.startswith("_")]
            else:
                callables = [(where, obj)] if inspect.isfunction(obj) else []
            for name, fn in callables:
                if ("threshold" in inspect.signature(fn).parameters
                        and name != "diagnostics.verdict"):
                    found.append(name)
    assert not found, found
    assert "threshold" in inspect.signature(
        importlib.import_module("actionlab.diagnostics").verdict).parameters
