"""The benchmark's tracer still finds every function it hooks.

``bench/tracing.py`` rebinds private names of the package (``_theta_scan``,
``_refine``, ``_golden``, ``_make_pointwise``, ``_Ctx.w`` and ``_Ctx.wb``,
...) from outside it. Renaming or dropping one breaks only the benchmark, so
this runs a small traced pass and checks that every layer it counts saw
work, and that leaving the tracer restores every hooked attribute.
"""

import pathlib
import sys
import types

import numpy as np

import anumrad
from anumrad import FuzzConfig, fuzz, new_frame
from anumrad.catalog import _Ctx

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _tracing():
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import tracing

    return tracing


def _bindings() -> dict:
    """Every function bound in an anumrad module, and the hooked _Ctx reads."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if isinstance(mod, types.ModuleType) and (name == "anumrad"
                                                  or name.startswith("anumrad.")):
            out.update(((name, attr), val) for attr, val in vars(mod).items()
                       if callable(val))
    out.update((("_Ctx", attr), getattr(_Ctx, attr)) for attr in ("w", "c", "cc", "wb"))
    return out


def test_tracer_hooks_every_layer_and_restores_them():
    tracing = _tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    f = new_frame(np.diag([2.0, 1.0, 0.0]))
    t = np.array([[1.0, 2.0, 0.0], [0.5j, -1.0, 0.0], [0.0, 0.0, 3.0]])
    with tracer.installed():
        assert anumrad.gauges._refine is not before[("anumrad.gauges", "_refine")]
        fuzz(FuzzConfig(trials=3, master_seed=11))
        # looked up at call time: the tracer rebinds the package's names
        anumrad.a_numerical_radius(f, t)
        anumrad.oracle_gauge(f, t, "w", samples=20, seed=0)
    layer = tracer.layer_metrics()
    for key in ("gauges.theta_scan.calls", "gauges.theta_scan.eig_problems",
                "gauges.refine.calls", "gauges.refine.point_evals",
                "catalog.gauge_reads", "catalog.run_all.calls",
                "adjoint.reduced.calls", "frame.new_frame.calls",
                "harness.make_instance.calls", "gauges.oracle_gauge.calls"):
        assert layer[key] > 0, key
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
