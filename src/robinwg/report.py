"""The convergence-study driver shared by the 1D and 2D checks, and its report."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RobinwgError
from .graph_limit import DECOUPLED, GraphOperatorSpec, resolvent_apply
from .resonance import Potential1D, detect_resonance

VERDICT_MATCH = "converges-to-predicted"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_MISMATCH = "mismatch"

EXIT_CODE = {VERDICT_MATCH: 0, VERDICT_INCONCLUSIVE: 3, VERDICT_MISMATCH: 4}


def fit_decay_exponent(eps_list, errors):
    """Least-squares slope of log(error) against log(eps); nan below 2 eps."""
    e = np.asarray(errors, dtype=float)
    x = np.log(np.asarray(eps_list, dtype=float))
    if len(e) < 2 or np.any(e <= 0):
        return float("nan")
    coef = np.polyfit(x, np.log(e), 1)
    return float(coef[0])


def extrapolate_linear(eps_list, values, n_points=3):
    """Linear-in-eps extrapolation to eps = 0 from the smallest entries."""
    eps = np.asarray(eps_list, dtype=float)[-n_points:]
    vals = np.asarray(values)[-n_points:]
    X = np.vstack([np.ones_like(eps), eps]).T
    coef, *_ = np.linalg.lstsq(X, vals, rcond=None)
    return coef[0]


@dataclass
class ConvergenceReport:
    predicted: dict                 # GraphOperatorSpec.to_dict()
    eps_list: list
    errors: list                    # per-eps error vs the predicted limit
    alt_kind: str                   # competitor operator kind
    alt_errors: list
    z: complex
    norm: str                       # where the error norm lives
    verdict: str
    fitted_exponent: float
    leakage: list = field(default_factory=list)
    transmission: list = field(default_factory=list)
    transmission_extrapolated: complex | None = None
    vertex_residuals: list = field(default_factory=list)
    vertex_residual_extrapolated: dict = field(default_factory=dict)
    offdiagonal: dict = field(default_factory=dict)
    discretization_estimate: float | None = None
    notes: list = field(default_factory=list)
    # (s, u, values) of the first probe's 2D field at the last eps; not
    # serialised by to_dict
    probe_field: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def exit_code(self) -> int:
        return EXIT_CODE[self.verdict]

    def to_dict(self):
        def c2(v):
            if v is None:
                return None
            if isinstance(v, complex):
                return {"re": v.real, "im": v.imag}
            return float(v)

        return {
            "predicted": self.predicted,
            "eps_list": [float(e) for e in self.eps_list],
            "errors": [float(e) for e in self.errors],
            "alt_kind": self.alt_kind,
            "alt_errors": [float(e) for e in self.alt_errors],
            "z": {"re": complex(self.z).real, "im": complex(self.z).imag},
            "norm": self.norm,
            "verdict": self.verdict,
            "fitted_exponent": self.fitted_exponent,
            "leakage": [float(x) for x in self.leakage],
            "transmission": [c2(t) for t in self.transmission],
            "transmission_extrapolated": c2(self.transmission_extrapolated),
            "vertex_residuals": [
                {k: float(v) for k, v in r.items()} for r in self.vertex_residuals],
            "vertex_residual_extrapolated": {
                k: float(v) for k, v in self.vertex_residual_extrapolated.items()},
            "offdiagonal": {str(k): [float(x) for x in v]
                            for k, v in self.offdiagonal.items()},
            "discretization_estimate": c2(self.discretization_estimate),
            "notes": list(self.notes),
        }


def predicted_limit(profile, beta: float, b: float):
    """Graph limit predicted by the resonance analysis of v = beta gamma^2.

    Returns (predicted, alt): the competitor is free when the prediction is
    decoupled, decoupled otherwise.
    """
    res = detect_resonance(Potential1D.from_profile(profile, beta))
    predicted = GraphOperatorSpec.from_resonance(res, b)
    alt = (GraphOperatorSpec.free() if predicted.kind == DECOUPLED
           else GraphOperatorSpec.decoupled())
    return predicted, alt


def _trapezoid_weights(s, *runs):
    """Weights w with sum(w * y) the trapezoid rule of y on each run.

    Each run is a mask of consecutive nodes; a cell counts only when both
    its nodes lie in one run, so no cell bridges the gap between two runs.
    """
    w = np.zeros(len(s))
    for run in runs:
        half = np.where(run[:-1] & run[1:], np.diff(s) / 2, 0.0)
        w[:-1] += half
        w[1:] += half
    return w


def _weighted_norm(t, w):
    """sqrt(sum(w |t|^2)) without forming |t|^2."""
    return np.sqrt(np.vdot(t, w * t).real)


def run_study(predicted: GraphOperatorSpec, alt: GraphOperatorSpec, z, probes,
              eps_list, solver, error_threshold: float, free_line,
              on_first=None, floor_estimate=None, notes=()) -> ConvergenceReport:
    """Per-eps resolvent errors against the predicted limit, and the verdict.

    `solver(eps)` returns (s, solve): solve(F) takes the probes sampled on s
    as one (probes, len(s)) block and returns (G, info), G the solutions
    row by row and info the backend's record of the first row's solve.
    `probes` is a callable or a non-empty list of them, each a pure function
    of s; the error is the max over the probes of the L2(|s| > 1) distance
    to the limit output over ||f||, where the limit output is smooth: the
    trapezoid rule on the two half-lines s < -1 and s > 1, with no cell
    across the gap between them.  Only this per-grid pass decides whether an
    eps is on the last eps's grid (the same s, bit for bit), and only a new
    grid samples the probe block (each norm finite and positive), makes one
    `resolvent_apply` call for the predicted and competitor outputs and
    forms the first probe's free_line reference and the error and leakage
    weights, none of which depends on eps.  Each eps gets its own solve,
    handed the same block object while the grid stays, so a backend may
    key its per-grid work on that object.  The first probe's solve, when
    that probe lies left of the vertex, gives the leakage past s = 1 and,
    for a limit that couples the edges, the transmission: the mean of
    g / free_line(s, f) over 2 < s < 6, extrapolated linearly to eps = 0
    from three or more eps, else the last value.
    `on_first(eps, s, f, ||f||, g, info)` sees that solve at every eps;
    `floor_estimate(probe, g)` gets the first probe and its solve at the
    smallest eps, and its value is reported as the discretisation estimate.
    """
    eps_list = list(eps_list)
    if not eps_list or any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise RobinwgError("eps_list must be non-empty and strictly decreasing")
    probes = probes if isinstance(probes, (list, tuple)) else [probes]
    if not probes:
        raise RobinwgError("probes must hold at least one probe")

    errors, alt_errors, leakage, taus = [], [], [], []
    grid = None
    for eps in eps_list:
        s, solve = solver(eps)
        if grid is None or not np.array_equal(s, grid):
            # the limit side depends on the grid only, not on eps
            grid = s
            outer = _trapezoid_weights(s, s < -1.0, s > 1.0)
            far = slice(int(np.searchsorted(s, 1.0, side="right")), None)
            win = (s > 2.0) & (s < 6.0)
            F = np.array([probe(s) for probe in probes])
            norms = [np.sqrt(np.trapezoid(np.abs(fs) ** 2, s)) for fs in F]
            for i, nf in enumerate(norms):
                if not 0.0 < nf < np.inf:
                    raise RobinwgError(f"probe {i} has sampled norm {nf:.3g} "
                                       "on the s-grid: need finite and > 0")
            limits = resolvent_apply([predicted, alt], z, s, F)
            mass_left = np.trapezoid(np.abs(F[0][s < 0]) ** 2, s[s < 0])
            left = mass_left > (1 - 1e-12) * norms[0] ** 2
            ref = (free_line(s, F[0])
                   if left and predicted.kind != DECOUPLED else None)
        G, info = solve(F)
        e_pred = e_alt = 0.0
        for g, nf, g_pred, g_alt in zip(G, norms, *limits):
            e_pred = max(e_pred, _weighted_norm(g - g_pred, outer) / nf)
            e_alt = max(e_alt, _weighted_norm(g - g_alt, outer) / nf)
        g, nf = G[0], norms[0]
        if on_first is not None:
            on_first(eps, s, F[0], nf, g, info)
        if left:
            # on s > 1 the outer weights are that half-line's own
            leakage.append(float(_weighted_norm(g[far], outer[far]) / nf))
        if ref is not None:
            taus.append(complex(np.mean(g[win] / ref[win])))
        errors.append(e_pred)
        alt_errors.append(e_alt)

    floor = None if floor_estimate is None else floor_estimate(probes[0], g)
    notes = list(notes)
    strictly = all(a > b for a, b in zip(errors, errors[1:]))
    if len(errors) < 2:
        verdict = VERDICT_INCONCLUSIVE
        notes.append("one eps shows no decay; the verdict and the fitted "
                     "exponent need two or more")
    elif not errors[-1] < alt_errors[-1]:
        verdict = VERDICT_MISMATCH
    elif strictly and errors[-1] < error_threshold:
        verdict = VERDICT_MATCH
    else:
        verdict = VERDICT_INCONCLUSIVE
        if floor is not None:
            notes.append("error sequence not strictly decreasing below "
                         f"threshold; discretization floor estimate {floor:.3g}")

    tau_ext = None
    if len(taus) >= 3:
        tau_ext = complex(extrapolate_linear(eps_list, np.array(taus)))
    elif taus:
        tau_ext = taus[-1]

    return ConvergenceReport(
        predicted=predicted.to_dict(), eps_list=eps_list, errors=errors,
        alt_kind=alt.kind, alt_errors=alt_errors, z=complex(z),
        norm="L2(|s|>1)/||f||", verdict=verdict,
        fitted_exponent=fit_decay_exponent(eps_list, errors),
        leakage=leakage, transmission=taus, transmission_extrapolated=tau_ext,
        discretization_estimate=floor, notes=notes)
