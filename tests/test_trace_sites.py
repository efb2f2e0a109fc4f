"""The benchmark's traced run wraps package functions by module and name.

``perfbench/tracing.py`` lists them in ``SITES``; a rename inside the
package would silently drop a layer from the traced figures, so every site
must resolve to the function its span is named after.
"""

import importlib
import importlib.util
from pathlib import Path

import soundreach as sr
from conftest import two_route_mdp_model

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_site_resolves():
    for module_name, attr, span in load_tracing().SITES:
        module = importlib.import_module(f"soundreach.{module_name}")
        fn = getattr(module, attr, None)
        assert callable(fn), f"soundreach.{module_name}.{attr} is missing"
        defining = span.split(".")[0]
        assert fn.__module__ == f"soundreach.{defining}", (module_name, attr, span)


def test_traced_solve_records_engine_spans():
    tracer = load_tracing().Tracer()
    tracer.install(sr)
    try:
        config = sr.SolverConfig(topological=True)
        sr.solve(two_route_mdp_model(), "goal", config)
    finally:
        tracer.uninstall()
    names = {row[0] for row in tracer.spans}
    for span in (
        "analysis.prob0",
        "analysis.collapse_end_components",
        "solvers.svi_solve",
        "variants.topological_solve",
        "analysis.scc_order",
    ):
        assert span in names, span
    assert not hasattr(sr.solvers.svi_solve, "__wrapped__")  # uninstalled


def test_solve_makes_no_absorbing_copy():
    # the goal state's two choices stay in the model every solve runs on
    model = sr.validate_model(
        [[{0: 0.5, 1: 0.5}, {1: 1.0}], [{0: 1.0}, {1: 1.0}]],
        rewards=[[1.0, 2.0], [3.0, 4.0]],
        labels={"init": [0], "goal": [1]},
    )
    tracer = load_tracing().Tracer()
    tracer.install(sr)
    try:
        for objective in sr.Objective:
            for direction in sr.Direction:
                for topological in (False, True):
                    config = sr.SolverConfig(
                        objective=objective, direction=direction, topological=topological
                    )
                    sr.solve(model, "goal", config)
    finally:
        tracer.uninstall()
    names = {row[0] for row in tracer.spans}
    assert "solvers.svi_solve" in names and "variants.topological_solve" in names
    assert "model.make_absorbing" not in names
