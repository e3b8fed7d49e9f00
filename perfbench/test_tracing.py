"""Self-tests of the benchmark's span arithmetic and binding patcher.

    python3 -m pytest -q perfbench/test_tracing.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from tracing import Tracer, install, layer_metrics, self_times  # noqa: E402


def _span(name, start, end, parent=None):
    return [name, start, end, parent, "run"]


def test_self_time_nested_and_back_to_back():
    spans = [_span("root", 0.0, 10.0),
             _span("a", 1.0, 4.0, 0),
             _span("a.inner", 2.0, 3.0, 1),
             _span("b", 4.0, 7.0, 0)]       # starts where "a" ends
    assert self_times(spans) == [4.0, 2.0, 1.0, 3.0]


def test_self_time_counts_overlapping_children_once():
    spans = [_span("root", 0.0, 10.0),
             _span("a", 1.0, 5.0, 0),
             _span("b", 3.0, 6.0, 0),
             _span("c", 9.0, 12.0, 0)]      # clipped to the parent's end
    assert self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_raising_call_counts_an_error_and_closes_its_span():
    tracer = Tracer()

    def fail():
        raise ValueError("boom")

    wrapped = tracer.wrap("m.fail", fail)
    for _ in range(2):
        try:
            wrapped()
        except ValueError:
            pass
    layers = layer_metrics(tracer, ["m.fail"])
    assert (layers["m.fail.calls"], layers["m.fail.errors"]) == (2, 2)
    assert all(s[3] is None and s[2] >= s[1] for s in tracer.spans)


def test_install_traces_every_binding_and_restores_it():
    import actionlab
    from actionlab import TimeGrid, catalog, diagnostics, lagrangians

    original = diagnostics.el_process
    tracer = Tracer()
    names, uninstall = install(tracer)
    try:
        assert diagnostics.el_process is not original
        assert diagnostics.el_process.__wrapped__ is original
        ens = catalog.build_law("brownian", TimeGrid(20), 2000, seed=5)
        actionlab.el_certify(ens, catalog.get_lagrangian("kinetic"))
    finally:
        uninstall()
    assert diagnostics.el_process is original is lagrangians.el_process
    by_name = {s[0]: i for i, s in enumerate(tracer.spans)}
    certify = by_name["diagnostics.el_certify"]
    assert tracer.spans[by_name["lagrangians.el_process"]][3] == certify
    assert tracer.spans[by_name["diagnostics.martingale_test"]][3] == certify
    layers = layer_metrics(tracer, names)
    assert layers["paths.simulate.path_steps"] == 2000 * 20
    assert layers["lagrangians.el_process.path_steps"] == 2000 * 20
    assert layers["diagnostics.martingale_test.statistics"] > 0
    assert layers["trace.errors"] == 0
