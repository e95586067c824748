"""Layer spans for robinwg, recorded by wrappers installed from outside.

`Tracer.install()` replaces the public functions and methods listed in
`WRAPPED` with timing wrappers, in their own module and under every name
another robinwg module bound on import (`robinwg.cli.find_resonant_coupling`,
`robinwg.waveguide2d.resolvent_solve`, ...).  `uninstall()` puts the
originals back.  No library file changes.

A span records its name, start, end and parent span; spans stay in memory
and are written once the run ends.  A span's self time is its duration
minus the time its child spans cover.  `geometry.sample` runs ~10^5 times a
round inside the zero-energy RHS, so it is counted and timed in aggregate
(its time still counts as child time of the enclosing span) instead of
being kept span by span.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

# module -> callables to wrap; "Class.method" wraps the method on the class
WRAPPED = {
    "geometry": ["CurvatureProfile.sample"],
    "transverse": ["symmetric_spectrum", "asymmetric_spectrum", "beta_table",
                   "mu_table", "perturbation_coefficients"],
    "resonance": ["find_resonant_coupling", "zero_energy_solve",
                  "detect_resonance", "Potential1D.from_profile"],
    "graph_limit": ["resolvent_apply", "green_function"],
    "effective_1d": ["convergence_study", "build_h_n_eps", "resolvent_solve",
                     "extract_vertex_data"],
    "waveguide2d": ["theorem_check", "build_waveguide",
                    "ModeProjector.__init__", "reduced_resolvent"],
    "cli": ["main"],
}
AGGREGATED = {"geometry.sample"}


def span_name(module: str, qualname: str) -> str:
    cls, _, meth = qualname.rpartition(".")
    if meth == "__init__":
        return f"{module}.{cls}"
    return f"{module}.{meth}"


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self.stack = []        # open frames: [child time, span index, name]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.by_parent = defaultdict(int)      # (name, parent name) -> calls
        self.counters = defaultdict(float)
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        hook = _RESULT_HOOKS.get(name)
        aggregated = name in AGGREGATED
        stack, spans = self.stack, self.spans

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if aggregated:
                idx = -1
            else:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, parent[1] if parent else -1])
                self.by_parent[(name, parent[2] if parent else None)] += 1
            frame = [0.0, idx, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[0]
                if idx >= 0:
                    spans[idx][1], spans[idx][2] = t0, t1
            if hook is not None:
                hook(self, args, out)
            return out
        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "robinwg" or n.startswith("robinwg.")]
        for mod_name, names in WRAPPED.items():
            mod = importlib.import_module(f"robinwg.{mod_name}")
            for qual in names:
                name = span_name(mod_name, qual)
                cls_name, _, attr = qual.rpartition(".")
                if cls_name:
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    self._saved.append((cls, attr, raw))
                    setattr(cls, attr, new)
                    continue
                orig = getattr(mod, attr)
                new = self._wrap(name, orig)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._saved.append((m, key, orig))
                            setattr(m, key, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def write(self, path):
        path.write_text(json.dumps({
            "spans": self.spans,
            "aggregated": {n: {"calls": self.calls[n], "s": self.total[n]}
                           for n in AGGREGATED},
            "counters": dict(self.counters)}) + "\n")

    # -- per-layer metrics -------------------------------------------------

    def metrics(self, rounds: int, probe_eps_pairs: int) -> dict:
        """Per-round layer figures over `rounds` traced rounds."""
        c, t, st, cnt = self.calls, self.total, self.self_time, self.counters
        per = lambda x: x / rounds
        roots = cnt["resonance.roots"]
        scan_solves = self.by_parent[("resonance.zero_energy_solve",
                                      "resonance.find_resonant_coupling")]
        study_solves = self.by_parent[("effective_1d.resolvent_solve",
                                       "effective_1d.convergence_study")]
        gmres = cnt["waveguide2d.gmres_iterations"]
        return {
            "geometry.sample.calls": per(c["geometry.sample"]),
            "geometry.sample.s": per(t["geometry.sample"]),
            "resonance.find_resonant_coupling.s": per(t["resonance.find_resonant_coupling"]),
            "resonance.zero_energy_solve.calls": per(c["resonance.zero_energy_solve"]),
            "resonance.zero_energy_solve.s": per(t["resonance.zero_energy_solve"]),
            "resonance.from_profile.calls": per(c["resonance.from_profile"]),
            "resonance.from_profile.s": per(t["resonance.from_profile"]),
            "resonance.solves_per_root": scan_solves / roots if roots else 0.0,
            "resonance.detect_resonance.s": per(t["resonance.detect_resonance"]),
            "transverse.beta_table.s": per(t["transverse.beta_table"]),
            "transverse.symmetric_spectrum.calls": per(c["transverse.symmetric_spectrum"]),
            "transverse.asymmetric_spectrum.calls": per(c["transverse.asymmetric_spectrum"]),
            "transverse.asymmetric_spectrum.s": per(t["transverse.asymmetric_spectrum"]),
            "graph_limit.resolvent_apply.calls": per(c["graph_limit.resolvent_apply"]),
            "graph_limit.resolvent_apply.s": per(t["graph_limit.resolvent_apply"]),
            "graph_limit.green_function.s": per(t["graph_limit.green_function"]),
            "effective_1d.resolvent_solve.calls": per(c["effective_1d.resolvent_solve"]),
            "effective_1d.resolvent_solve.s": per(t["effective_1d.resolvent_solve"]),
            "effective_1d.resolvent_solve.unknowns": per(cnt["effective_1d.unknowns"]),
            "effective_1d.solves_per_probe_eps": (
                study_solves / (rounds * probe_eps_pairs) if probe_eps_pairs else 0.0),
            "effective_1d.build_h_n_eps.s": per(t["effective_1d.build_h_n_eps"]),
            "effective_1d.extract_vertex_data.s": per(t["effective_1d.extract_vertex_data"]),
            "effective_1d.convergence_study.self_s": per(st["effective_1d.convergence_study"]),
            "waveguide2d.build_waveguide.s": per(t["waveguide2d.build_waveguide"]),
            "waveguide2d.build_waveguide.nnz": per(cnt["waveguide2d.nnz"]),
            "waveguide2d.ModeProjector.s": per(t["waveguide2d.ModeProjector"]),
            "waveguide2d.reduced_resolvent.calls": per(c["waveguide2d.reduced_resolvent"]),
            "waveguide2d.reduced_resolvent.s": per(t["waveguide2d.reduced_resolvent"]),
            "waveguide2d.gmres_iterations": per(gmres),
            "waveguide2d.s_per_gmres_iteration": (
                t["waveguide2d.reduced_resolvent"] / gmres if gmres else 0.0),
            "waveguide2d.theorem_check.self_s": per(st["waveguide2d.theorem_check"]),
            "cli.main.self_s": per(st["cli.main"]),
        }


def _count_root(tracer, args, out):
    if out is not None:
        tracer.counters["resonance.roots"] += 1


def _count_unknowns(tracer, args, out):
    tracer.counters["effective_1d.unknowns"] += len(out) - 2


def _count_nnz(tracer, args, out):
    tracer.counters["waveguide2d.nnz"] += out.matrix.nnz


def _count_gmres(tracer, args, out):
    tracer.counters["waveguide2d.gmres_iterations"] += out[1]["iterations"]


_RESULT_HOOKS = {
    "resonance.find_resonant_coupling": _count_root,
    "effective_1d.resolvent_solve": _count_unknowns,
    "waveguide2d.build_waveguide": _count_nnz,
    "waveguide2d.reduced_resolvent": _count_gmres,
}
