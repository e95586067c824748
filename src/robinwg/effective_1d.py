"""Scaled effective 1D Hamiltonians and their resolvent convergence studies.

h_eps = -d^2/ds^2 + beta (1 + eps b) / eps^2 * gamma^2(s/eps), discretised by
second-order central differences on a Dirichlet-truncated interval.  The
convergence driver compares (h_eps - z)^{-1} f against the graph-limit
resolvent predicted by the resonance analysis of v = beta gamma^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from .errors import GridResolutionError, RobinwgError
from .geometry import CurvatureProfile
from .graph_limit import (DECOUPLED, GraphOperatorSpec, resolvent_apply,
                          sqrt_upper)
from .report import (VERDICT_INCONCLUSIVE, VERDICT_MATCH, VERDICT_MISMATCH,
                     ConvergenceReport, extrapolate_linear, fit_decay_exponent)
from .resonance import Potential1D, detect_resonance

RESOLUTION_FACTOR = 50  # grid cells across the scaled support, per the contract


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [-L, L] with Dirichlet caps; n_cells even so 0 is a node."""

    half_length: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells % 2 or self.n_cells < 4:
            raise GridResolutionError("n_cells must be even and >= 4")
        if self.half_length <= 0:
            raise GridResolutionError("half_length must be positive")

    @property
    def h(self) -> float:
        return 2 * self.half_length / self.n_cells

    @property
    def points(self) -> np.ndarray:
        return np.linspace(-self.half_length, self.half_length, self.n_cells + 1)

    def check_truncation(self, z):
        """L >= 10 / Im sqrt(z) keeps the truncation below discretisation error."""
        w = sqrt_upper(z)
        if self.half_length * w.imag < 10.0:
            raise GridResolutionError(
                f"half_length {self.half_length} < 10/Im(sqrt z) = {10 / w.imag:.3g}")


@dataclass(frozen=True)
class Discrete1DOperator:
    """Symmetric tridiagonal -D2 + diag(V) on the interior nodes."""

    grid: Grid1D
    potential: np.ndarray      # all nodes, caps included
    epsilon: float
    beta: float
    b: float
    profile: CurvatureProfile | None = None

    def apply(self, g):
        """Operator action on full-node samples (caps pinned to zero)."""
        h = self.grid.h
        out = np.zeros_like(g, dtype=np.result_type(g, self.potential))
        out[1:-1] = ((-g[:-2] + 2 * g[1:-1] - g[2:]) / h ** 2
                     + self.potential[1:-1] * g[1:-1])
        return out

    def lowest_eigenvalues(self, count: int):
        h = self.grid.h
        diag = 2.0 / h ** 2 + self.potential[1:-1]
        off = np.full(len(diag) - 1, -1.0 / h ** 2)
        vals = eigh_tridiagonal(diag, off, select="i",
                                select_range=(0, count - 1),
                                eigvals_only=True)
        return vals


def build_h_n_eps(profile: CurvatureProfile, beta: float, eps: float,
                  b: float, grid: Grid1D) -> Discrete1DOperator:
    """Assemble the discrete scaled operator; b = 0 is the undeformed case."""
    if eps <= 0:
        raise RobinwgError("eps must be positive")
    width = profile.support_width
    nontrivial = beta != 0.0 and profile.sup_abs() > 0
    if nontrivial and grid.h > eps * width / RESOLUTION_FACTOR:
        raise GridResolutionError(
            f"h = {grid.h:.3g} exceeds eps*support/{RESOLUTION_FACTOR} "
            f"= {eps * width / RESOLUTION_FACTOR:.3g}: scaled potential under-resolved")
    s = grid.points
    V = beta * (1.0 + eps * b) / eps ** 2 * profile.sample_squared(s / eps)
    return Discrete1DOperator(grid, V, eps, beta, b, profile)


def resolvent_solve(op: Discrete1DOperator, z, f_samples) -> np.ndarray:
    """(H - z)^{-1} f by a banded LU solve with partial pivoting.

    f is sampled on the full node set; the output carries zeros at the
    Dirichlet caps.  The residual is verified to 1e-12 relative.
    """
    if complex(z).imag == 0:
        raise RobinwgError("resolvent_solve needs Im z != 0")
    f = np.asarray(f_samples)
    s = op.grid.points
    if f.shape != s.shape:
        raise RobinwgError("f must be sampled on the full grid")
    h = op.grid.h
    n = len(s) - 2
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = -1.0 / h ** 2
    ab[1, :] = 2.0 / h ** 2 + op.potential[1:-1] - z
    ab[2, :-1] = -1.0 / h ** 2
    g = np.zeros(len(s), dtype=complex)
    g[1:-1] = solve_banded((1, 1), ab, f[1:-1].astype(complex))
    resid = op.apply(g)[1:-1] - z * g[1:-1] - f[1:-1]
    rel = np.linalg.norm(resid) / max(np.linalg.norm(f[1:-1]), 1e-300)
    # backward-stable solve: the attainable residual scales with eps*||A||
    a_scale = 4.0 / h ** 2 + np.max(np.abs(op.potential)) + abs(z)
    floor = 50 * np.finfo(float).eps * a_scale * (
        np.linalg.norm(g[1:-1]) / max(np.linalg.norm(f[1:-1]), 1e-300))
    if rel > max(1e-12, floor):
        raise RobinwgError(f"banded solve residual {rel:.3g} above target")
    return g


# ---------------------------------------------------------------------------
# probes and study drivers
# ---------------------------------------------------------------------------

def bump_probe(center: float, half_width: float):
    """Smooth compactly supported probe function."""
    def f(s):
        t = (np.asarray(s, dtype=float) - center) / half_width
        out = np.zeros_like(t)
        m = np.abs(t) < 1
        out[m] = np.exp(-1.0 / (1.0 - t[m] ** 2))
        return out
    return f


def probe_set():
    """Fixed 10-probe family sampling both sides, odd/even combinations."""
    probes = []
    for c in (-4.0, -2.75, 2.75, 4.0):
        probes.append(bump_probe(c, 1.5))
        probes.append(bump_probe(c, 0.8))
    even = bump_probe(-3.5, 1.2)
    odd = bump_probe(3.5, 1.2)
    probes.append(lambda s: even(s) + odd(s))
    probes.append(lambda s: even(s) - odd(s))
    return probes[:10]


def _grid_for(profile, eps, z, half_length, h_target):
    w = sqrt_upper(z)
    L = max(half_length, 10.0 / w.imag + 1.0)
    h = min(h_target, eps * profile.support_width / RESOLUTION_FACTOR)
    n = int(np.ceil(2 * L / h))
    n += n % 2
    return Grid1D(L, n)


def _window_transmission(s, g, ref, lo=2.0, hi=6.0):
    win = (s > lo) & (s < hi)
    return complex(np.mean(g[win] / ref[win]))


@dataclass(frozen=True)
class VertexData:
    value_minus: complex
    deriv_minus: complex
    value_plus: complex
    deriv_plus: complex


def extract_vertex_data(s, g, eps, support_radius, fit_width=None,
                        degree=5) -> VertexData:
    """One-sided extrapolation of (f, f') at 0 from outside the scaled core.

    Polynomial least squares on [a, a + width] per side with
    a = 1.05 * eps * support_radius; raises when the window would swallow
    half the grid.
    """
    a = max(1.05 * eps * support_radius, 5 * (s[1] - s[0]))
    width = fit_width if fit_width is not None else max(0.4, 2 * a)
    if a + width > 0.5 * s[-1]:
        raise GridResolutionError("extrapolation window exceeds half the grid")
    out = {}
    for sign in (+1, -1):
        sel = (sign * s >= a) & (sign * s <= a + width)
        X = np.vander(s[sel], degree + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(X, g[sel], rcond=None)
        out[sign] = (coef[0], coef[1])
    return VertexData(out[-1][0], out[-1][1], out[+1][0], out[+1][1])


def vertex_condition_residuals(spec: GraphOperatorSpec, vd: VertexData) -> dict:
    """Relative residuals of the operator's gluing conditions on vertex data."""
    if spec.kind == DECOUPLED:
        scale = max(abs(vd.value_minus), abs(vd.value_plus),
                    abs(vd.deriv_minus), abs(vd.deriv_plus), 1e-300)
        return {"value": max(abs(vd.value_minus), abs(vd.value_plus)) / scale}
    cm, cp, bh = spec.c_minus, spec.c_plus, spec.b_hat
    lhs1 = cm * vd.value_plus
    rhs1 = cp * vd.value_minus
    r1 = abs(lhs1 - rhs1) / max(abs(lhs1), abs(rhs1), 1e-300)
    lhs2 = cp * vd.deriv_plus - cm * vd.deriv_minus
    rhs2 = bh * (cm * vd.value_minus + cp * vd.value_plus)
    r2 = abs(lhs2 - rhs2) / max(abs(lhs2), abs(rhs2),
                                abs(cp * vd.deriv_plus), 1e-300)
    return {"value": r1, "derivative": r2}


def convergence_study(profile: CurvatureProfile, beta: float, b: float, z,
                      f, eps_list, half_length: float = 16.0,
                      h_target: float = 2e-3, error_threshold: float = 0.02,
                      compute_vertex: bool = True) -> ConvergenceReport:
    """Per-eps resolvent errors against the resonance-predicted graph limit.

    f may be a callable or a list of callables; with a list the error is the
    max over the probe set (a sampled stand-in for the operator norm).  The
    headline error is L2 over |s| > 1, where the limit output is smooth.
    """
    eps_list = list(eps_list)
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise RobinwgError("eps_list must be strictly decreasing")
    probes = f if isinstance(f, (list, tuple)) else [f]

    pot = Potential1D.from_profile(profile, beta)
    res = detect_resonance(pot)
    predicted = GraphOperatorSpec.from_resonance(res, b)
    if predicted.kind == DECOUPLED:
        alt = GraphOperatorSpec.free()
    else:
        alt = GraphOperatorSpec.decoupled()

    support_radius = max(abs(profile.support[0]), abs(profile.support[1]))
    errors, alt_errors, leak_list, tau_list, vres_list = [], [], [], [], []
    vdata_list = []
    notes = []
    g_small = None
    for eps in eps_list:
        grid = _grid_for(profile, eps, z, half_length, h_target)
        grid.check_truncation(z)
        s = grid.points
        op = build_h_n_eps(profile, beta, eps, b, grid)
        outer = np.abs(s) > 1.0
        e_pred = e_alt = 0.0
        first = None
        for probe in probes:
            fs = probe(s)
            nf = np.sqrt(np.trapezoid(np.abs(fs) ** 2, s))
            g = resolvent_solve(op, z, fs)
            g_pred = resolvent_apply(predicted, z, s, fs)
            g_alt = resolvent_apply(alt, z, s, fs)
            d2 = np.abs(g - g_pred) ** 2
            e_pred = max(e_pred, np.sqrt(np.trapezoid(d2[outer], s[outer])) / nf)
            d2 = np.abs(g - g_alt) ** 2
            e_alt = max(e_alt, np.sqrt(np.trapezoid(d2[outer], s[outer])) / nf)
            if first is None:
                first = (fs, nf, g)
        errors.append(e_pred)
        alt_errors.append(e_alt)

        # one-sided diagnostics use the first probe's solve
        fs, nf, g = first
        g_small = (eps, grid, fs, g)
        mass_left = np.trapezoid(np.abs(fs[s < 0]) ** 2, s[s < 0])
        one_sided = mass_left < 1e-12 * nf ** 2 or mass_left > (1 - 1e-12) * nf ** 2
        if one_sided and mass_left > 0.5 * nf ** 2:
            far = s > 1.0
            leak_list.append(
                float(np.sqrt(np.trapezoid(np.abs(g[far]) ** 2, s[far])) / nf))
            if predicted.kind != DECOUPLED:
                free_out = resolvent_apply(GraphOperatorSpec.free(), z, s, fs)
                tau_list.append(_window_transmission(s, g, free_out))
        if compute_vertex and predicted.kind != DECOUPLED:
            vd = extract_vertex_data(s, g, eps, support_radius)
            vdata_list.append(vd)
            vres_list.append(vertex_condition_residuals(predicted, vd))

    # discretisation control: halve h at the smallest eps, re-measure
    eps, grid, fs, g = g_small
    fine = Grid1D(grid.half_length, 2 * grid.n_cells)
    sf = fine.points
    opf = build_h_n_eps(profile, beta, eps, b, fine)
    gf = resolvent_solve(opf, z, probes[0](sf))
    disc = float(np.max(np.abs(gf[::2] - g)))

    strictly_decreasing = all(a > b_ for a, b_ in zip(errors, errors[1:]))
    final_ok = errors[-1] < error_threshold
    pred_wins = errors[-1] < alt_errors[-1]
    if not pred_wins:
        verdict = VERDICT_MISMATCH
    elif strictly_decreasing and final_ok:
        verdict = VERDICT_MATCH
    else:
        verdict = VERDICT_INCONCLUSIVE
        notes.append("error sequence not strictly decreasing below threshold; "
                     f"discretization floor estimate {disc:.3g}")

    tau_ext = None
    if len(tau_list) >= 3:
        tau_ext = complex(extrapolate_linear(eps_list, np.array(tau_list)))

    vres_ext = {}
    if len(vdata_list) >= 3:
        # vertex data converges linearly in eps; extrapolate then test the
        # gluing conditions on the limit
        fields = np.array([[vd.value_minus, vd.deriv_minus,
                            vd.value_plus, vd.deriv_plus] for vd in vdata_list])
        ext = extrapolate_linear(eps_list, fields)
        vres_ext = vertex_condition_residuals(predicted, VertexData(*ext))

    return ConvergenceReport(
        predicted=predicted.to_dict(), eps_list=eps_list, errors=errors,
        alt_kind=alt.kind, alt_errors=alt_errors, z=complex(z),
        norm="L2(|s|>1)/||f||", verdict=verdict,
        fitted_exponent=fit_decay_exponent(eps_list, errors),
        leakage=leak_list, transmission=tau_list,
        transmission_extrapolated=tau_ext,
        vertex_residuals=vres_list, vertex_residual_extrapolated=vres_ext,
        discretization_estimate=disc, notes=notes)
