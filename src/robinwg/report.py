"""The convergence-study driver shared by the 1D and 2D checks, and its report."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import RobinwgError
from .graph_limit import (DECOUPLED, GraphOperatorSpec,
                          resolvent_apply_rows, sqrt_upper)
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
    # (s, u, values): the first probe's 2D field at the last eps
    probe_field: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def exit_code(self) -> int:
        return EXIT_CODE[self.verdict]

    def to_dict(self):
        """The `repr=True` fields, JSON-ready (see `_plain`)."""
        return {f.name: _plain(getattr(self, f.name))
                for f in fields(self) if f.repr}


def _plain(v):
    """complex -> {"re", "im"}, a number -> float, dict keys -> str,
    sequences -> lists, recursively; str, bool and None as they are."""
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, (complex, np.complexfloating)):
        return {"re": float(v.real), "im": float(v.imag)}
    if isinstance(v, (int, float, np.number)) and not isinstance(v, bool):
        return float(v)
    return v


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


def _weighted_norm(t, w, tail=0.0):
    """sqrt(sum(w |t|^2) + tail) without forming |t|^2; tail is the squared
    norm beyond the end nodes, if any."""
    return np.sqrt(np.vdot(t, w * t).real + tail)


def _end_tail(a, b, r, q, h):
    """The trapezoid rule's share of |g - l|^2 from one end node outwards,
    where the run ends: h/2 |a - b|^2 at the end node, where g = a and
    l = b, and sum_{j >= 1} h |a r^j - b q^j|^2 beyond it, in closed form
    (geometric series in |r|^2, |q|^2 and r conj(q))."""
    rr, qq, rq = abs(r) ** 2, abs(q) ** 2, r * q.conjugate()
    return h * (abs(a - b) ** 2 / 2 + abs(a) ** 2 * rr / (1 - rr)
                + abs(b) ** 2 * qq / (1 - qq)
                - 2 * (a * b.conjugate() * rq / (1 - rq)).real)


def _grid_runs(grid_at, eps_list):
    """Yield (g, s, eps_run) for each run of consecutive eps whose grids
    grid_at(eps) = (g, s) have node arrays s equal bit for bit; the next
    run's first eps is gridded before its run is yielded."""
    run = None
    for eps in eps_list:
        g, s = grid_at(eps)
        if run and np.array_equal(s, run[1]):
            run[2].append(eps)
        else:
            if run:
                yield run
            run = (g, s, [eps])
        del g, s            # a repeated grid goes at once
    yield run


def run_study(predicted: GraphOperatorSpec, alt: GraphOperatorSpec, z, probes,
              eps_list, backend, error_threshold: float, free_line,
              floor_estimate=None, notes=(), outgoing=None) -> ConvergenceReport:
    """Per-eps resolvent errors against the predicted limit, and the verdict.

    `backend` is the pair (grid_at, solve): grid_at(eps) returns (g, s), the
    backend's grid at that eps and the nodes s its solutions live on, and
    the eps go in runs of consecutive eps whose s are equal bit for bit.
    solve(g, eps_run, F) takes a whole run, F the probes sampled on s as
    one (probes, len(s)) block, makes each eps's one block solve and
    returns one row function per eps, row(p) probe p's solution on s;
    whatever a backend decides per grid lives in that call.
    `probes` is a callable or a non-empty list of them, each a pure function
    of s; the error is the max over the probes of the L2(|s| > 1) distance
    to the limit output over ||f||, where the limit output is smooth: the
    trapezoid rule on the two half-lines s < -1 and s > 1, with no cell
    across the gap between them.  `outgoing(h)`, when given, is the root r
    with which the backend's solutions continue beyond the end nodes
    (g_end r^j, j nodes out; the 1D lattice's transparent ends), and the
    error and leakage norms then run to infinity: the limit continues as
    l_end e^{i sqrt(z) j h}, so each half-line's tail is a closed-form
    geometric sum (`_end_tail`).  Without it (the 2D backend, whose caps
    are Dirichlet) the norms stop at the end nodes.
    Each run samples the probe block (each norm finite and positive), makes
    one `resolvent_apply_rows` pass for the predicted and competitor
    operators, and forms the first probe's free_line reference and the
    error and leakage weights and tails, none of which depends on eps, then
    hands the run to solve.  It then goes probe by probe: the probe's two
    limit rows, then its row of every eps, each error folded into that
    eps's max.  The first probe, when it lies left of the vertex, gives the
    leakage past s = 1 and, for a limit that couples the edges, the
    transmission: the mean of g / free_line(s, f) over 2 < s < 6,
    extrapolated linearly to eps = 0 from three or more eps, else the last
    value.
    `floor_estimate(probe, g, grid, eps)` gets the first probe, a copy of
    its solution at the smallest eps, the last run's grid and that eps; its
    value is reported as the discretisation estimate.  The driver holds one
    run's working set at a time: the probe block, the reference, what the
    row functions hold, and one probe's limit and solution rows.  The old
    run's arrays go before the next run's probe block is sampled, and every
    array but the last grid's before the floor estimate runs.
    """
    eps_list = list(eps_list)
    if not eps_list or any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise RobinwgError("eps_list must be non-empty and strictly decreasing")
    probes = probes if isinstance(probes, (list, tuple)) else [probes]
    if not probes:
        raise RobinwgError("probes must hold at least one probe")

    errors, alt_errors, leakage, taus = [], [], [], []
    grid_at, solve = backend

    def run(grid, s, eps_run):
        """One run's errors, leakage and transmission, appended; returns
        the first probe's row at the run's last eps.  Every array of the
        run is a local here, so all go when it returns."""
        outer = _trapezoid_weights(s, s < -1.0, s > 1.0)
        far = slice(int(np.searchsorted(s, 1.0, side="right")), None)
        win = (s > 2.0) & (s < 6.0)
        F = np.array([probe(s) for probe in probes])
        norms = [np.sqrt(np.trapezoid(np.abs(fs) ** 2, s)) for fs in F]
        for i, nf in enumerate(norms):
            if not 0.0 < nf < np.inf:
                raise RobinwgError(f"probe {i} has sampled norm {nf:.3g} "
                                   "on the s-grid: need finite and > 0")
        limit_rows = resolvent_apply_rows([predicted, alt], z, s)
        tail = None
        if outgoing is not None:
            h = s[1] - s[0]
            rqh = (complex(outgoing(h)),
                   complex(np.exp(1j * sqrt_upper(z) * h)), h)
            tail = lambda g, lim: (_end_tail(g[0], lim[0], *rqh)
                                   + _end_tail(g[-1], lim[-1], *rqh))
        mass_left = np.trapezoid(np.abs(F[0][s < 0]) ** 2, s[s < 0])
        left = mass_left > (1 - 1e-12) * norms[0] ** 2
        ref = (free_line(s, F[0])
               if left and predicted.kind != DECOUPLED else None)
        rows = solve(grid, eps_run, F)
        errs = [[0.0] * len(rows), [0.0] * len(rows)]
        for p, nf in enumerate(norms):
            lims = limit_rows(F[p])
            for i, row in enumerate(rows):
                g = row(p)
                for e, lim in zip(errs, lims):
                    e[i] = max(e[i], _weighted_norm(
                        g - lim, outer, 0.0 if tail is None else tail(g, lim))
                        / nf)
                if p:
                    continue
                if left:
                    # on s > 1 the outer weights are that half-line's own
                    beyond = 0.0 if tail is None else _end_tail(g[-1], 0j,
                                                                *rqh)
                    leakage.append(float(_weighted_norm(g[far], outer[far],
                                                        beyond) / norms[0]))
                if ref is not None:
                    taus.append(complex(np.mean(g[win] / ref[win])))
                first = g
        errors.extend(errs[0])
        alt_errors.extend(errs[1])
        return first.copy()

    # each run's arrays go before the next run samples its probe block
    for grid, s, eps_run in _grid_runs(grid_at, eps_list):
        g = run(grid, s, eps_run)
    floor = (None if floor_estimate is None
             else floor_estimate(probes[0], g, grid, eps_run[-1]))
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
