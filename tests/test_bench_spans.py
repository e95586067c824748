"""The benchmark tracer (`bench/spans.py`) wraps robinwg callables by name.

A renamed or removed callable, or a result key or attribute that a counter
reads, would only show when a traced benchmark run (`bench/run.py --trace 1`)
fails; this checks the names and the counters without running it.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from robinwg.effective_1d import (Grid1D, build_h_n_eps, bump_probe,
                                  resolvent_solve)
from robinwg.geometry import (RECTANGULAR, CurvatureProfile, ScalingParams,
                              WaveguideGeometry, default_bump)
from robinwg.resonance import find_resonant_coupling
from robinwg.waveguide2d import (FULL, Grid2D, ModeProjector, build_waveguide,
                                 reduced_resolvent)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_wrapped_callable_resolves():
    spans = _load_spans()
    missing = []
    for module, names in spans.WRAPPED.items():
        mod = importlib.import_module(f"robinwg.{module}")
        for qual in names:
            # looked up as Tracer.install looks them up
            cls_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            target = vars(owner).get(attr) if owner is not None else None
            if not (callable(target) or isinstance(target, classmethod)):
                missing.append(f"robinwg.{module}.{qual}")
    assert not missing, f"bench/spans.py wraps missing callables: {missing}"


def test_every_result_hook_reads_the_real_output():
    # each hook of bench/spans.py run on what its callable returns for a
    # small call, so a dropped key or attribute fails here
    spans = _load_spans()
    square = CurvatureProfile(RECTANGULAR, amplitude=1.0, center=0.5,
                              half_width=0.5)
    line = Grid1D(8.0, 800)
    # a source that vanishes at the end nodes, as the transparent ends need
    f = bump_probe(-3.0, 2.0)(line.points)
    geometry = WaveguideGeometry(default_bump(), 1.0,
                                 ScalingParams(epsilon=0.4, delta_ratio=0.05))
    grid = Grid2D(6.0, 800, 16, 1.0)
    op = build_waveguide(geometry, FULL, 1, grid)
    reduced = reduced_resolvent(op, ModeProjector(geometry, grid, 1), 0, 0, 1j,
                                np.exp(-(grid.s_interior + 3.0) ** 2))
    outputs = {
        "resonance.find_resonant_coupling":
            find_resonant_coupling(square, (-15.0, -1.0)),
        "effective_1d.resolvent_solve":
            resolvent_solve(build_h_n_eps(square, -1.0, 1.0, 0.0, line), 1j, f),
        "waveguide2d.build_waveguide": op,
        "waveguide2d.reduced_resolvent": reduced,
    }
    assert set(spans._RESULT_HOOKS) == set(outputs)
    tracer = spans.Tracer()
    for name, hook in spans._RESULT_HOOKS.items():
        hook(tracer, (), outputs[name])
    assert tracer.counters == {
        "resonance.roots": 1,
        "effective_1d.unknowns": len(line.points) - 2,
        "waveguide2d.nnz": op.matrix.nnz,
        "waveguide2d.gmres_iterations": 0,
    }
