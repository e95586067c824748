"""Scaled effective 1D Hamiltonians and their resolvent convergence studies.

h_eps = -d^2/ds^2 + beta (1 + eps b) / eps^2 * gamma^2(s/eps), discretised by
second-order central differences on a Dirichlet-truncated interval.  The
convergence driver compares (h_eps - z)^{-1} f against the graph-limit
resolvent predicted by the resonance analysis of v = beta gamma^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import zgtsv
from .errors import GridResolutionError, ProfileError, RobinwgError
from .geometry import CurvatureProfile
from .graph_limit import (DECOUPLED, GraphOperatorSpec, resolvent_apply,
                          sqrt_upper)
from .report import (ConvergenceReport, extrapolate_linear, predicted_limit,
                     run_study)

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

    @cached_property
    def points(self) -> np.ndarray:
        """The nodes, built once per grid and read-only."""
        pts = np.linspace(-self.half_length, self.half_length, self.n_cells + 1)
        pts.flags.writeable = False
        return pts


def s_grid(profile: CurvatureProfile, eps: float, z, min_half_length: float,
           h_max: float = np.inf) -> Grid1D:
    """The s-grid of both backends at one eps: the one place grids are sized.

    L = max(min_half_length, 10/Im sqrt(z) + 1), so the decay e^(-Im sqrt(z) L)
    measured from s = 0 is below e^-10 (that does not bound the truncation
    error of a probe supported away from the vertex); h = min(h_max,
    eps * support_width / RESOLUTION_FACTOR), and the cell count 2L/h is
    rounded up to an even number so that s = 0 is a node, plus 2 where the
    step 2L/n would still exceed the `check_resolution` bound by an ulp.
    """
    L = max(min_half_length, 10.0 / sqrt_upper(z).imag + 1.0)
    bound = eps * profile.support_width / RESOLUTION_FACTOR
    n = int(np.ceil(2 * L / min(h_max, bound)))
    n += n % 2
    return Grid1D(L, n + 2 if 2 * L / n > bound else n)


def check_resolution(h: float, eps: float, profile: CurvatureProfile):
    """Reject a step h that under-resolves the scaled curvature gamma(s/eps):
    a curved profile needs h <= eps * support_width / RESOLUTION_FACTOR."""
    bound = eps * profile.support_width / RESOLUTION_FACTOR
    if profile.sup_abs() > 0 and h > bound:
        raise GridResolutionError(
            f"h = {h:.3g} exceeds eps*support/{RESOLUTION_FACTOR} "
            f"= {bound:.3g}: scaled potential under-resolved")


@dataclass(frozen=True)
class Discrete1DOperator:
    """Symmetric tridiagonal -D2 + diag(V) on the interior nodes."""

    grid: Grid1D
    potential: np.ndarray      # all nodes, caps included

    def diagonal(self, shift=0.0):
        """Diagonal of H - shift on the interior nodes."""
        return 2.0 / self.grid.h ** 2 + self.potential[1:-1] - shift

    def apply_interior(self, g, diag, out, work):
        """(H - shift) g on the interior nodes of one full-node row g, written
        into out; diag = `diagonal(shift)`, work is scratch of out's shape."""
        np.multiply(diag, g[1:-1], out=out)
        np.add(g[:-2], g[2:], out=work)
        # times 1/h^2: numpy divides a complex array by a float as by a
        # complex number, several times slower than this product
        work *= 1.0 / self.grid.h ** 2
        out -= work
        return out


def build_h_n_eps(profile: CurvatureProfile, beta: float, eps: float,
                  b: float, grid: Grid1D) -> Discrete1DOperator:
    """Assemble the discrete scaled operator; b = 0 is the undeformed case."""
    if eps <= 0:
        raise RobinwgError("eps must be positive")
    if beta != 0.0:
        check_resolution(grid.h, eps, profile)
    s = grid.points
    V = beta * (1.0 + eps * b) / eps ** 2 * profile.sample_squared(s / eps)
    return Discrete1DOperator(grid, V)


def _gtsv(diag, off, b):
    """Solve the tridiagonal system with diagonal diag and off-diagonals off
    (a scalar or one entry per gap) for b, (n,) or (n, rhs) with n >= 2, by
    LAPACK zgtsv (LU with partial pivoting); diag and b are overwritten."""
    bands = np.full((2, len(diag) - 1), off, dtype=complex)
    *_, x, info = zgtsv(bands[0], diag, bands[1], b, overwrite_dl=1,
                        overwrite_d=1, overwrite_du=1, overwrite_b=1)
    if info != 0:
        raise RobinwgError(f"tridiagonal solve failed: gtsv info = {info}")
    return x


def exterior_solve(h, z, B_left, B_right, scale):
    """The free Dirichlet exteriors on both sides of a window, for each z_j.

    Each side's operator is E_j = tridiag(-c, 2c - z_j, -c), c = 1/h^2, on
    its m nodes between a Dirichlet cap and the window.  B_left (1, k,
    m_left) holds k right-hand sides, B_right likewise; the system of z_j
    takes them times scale[j] (a real array, one per z_j), formed as it is
    filled, so no scaled copy of the whole B is made.  Returns (U_left,
    phi_left, U_right, phi_right): U = E_j^{-1} scale[j] B and phi the Green
    column E_j^{-1} e of the node next to the window.  All systems go end to
    end, zero couplings at the joints and left row i sharing a column with
    right row i, into one LAPACK `gtsv` call of at least two unknowns; each
    comes out bit for bit as its own solve would.
    """
    z = np.atleast_1d(z)
    J = len(z)
    (_, kl, ml), (_, kr, mr) = B_left.shape, B_right.shape
    m, k = ml + mr, max(kl, kr)
    X = np.zeros((k + 1, J, m), dtype=complex)
    for B, part in ((B_left, X[:kl, :, :ml]), (B_right, X[:kr, :, ml:])):
        np.multiply(scale[:, None, None], B, out=part.transpose(1, 0, 2))
    X[k, :, max(ml - 1, 0):ml + 1] = 1.0        # the nodes next to the window
    if m:
        off = np.full((J, m), -1.0 / h ** 2)
        off[:, [ml - 1, m - 1]] = 0.0           # the joints
        X = _gtsv(np.repeat(2.0 / h ** 2 - z, m), off.ravel()[:-1],
                  X.reshape(k + 1, -1).T).T.reshape(X.shape)
    return (X[:kl, :, :ml].transpose(1, 0, 2), X[k, :, :ml],
            X[:kr, :, ml:].transpose(1, 0, 2), X[k, :, ml:])


def _core_half_width(op: Discrete1DOperator) -> int:
    """k such that the core window W is the nodes i0 - k .. i0 + k around the
    vertex node i0: the smallest k covering |s| <= 1 and every node where
    the potential is nonzero.  Each exterior then holds none or at least
    two interior nodes, and W at least three."""
    i0 = op.grid.n_cells // 2
    k = int(np.searchsorted(op.grid.points[i0:], 1.0, side="right")) - 1
    nz = np.flatnonzero(op.potential)
    if nz.size:
        k = max(k, i0 - nz[0], nz[-1] - i0)
    k = max(k, 1)
    return i0 - 1 if i0 - k - 1 < 2 else int(k)


@dataclass(frozen=True, eq=False)
class FlatExterior:
    """The free problem outside the core window W for one grid, z and block
    of `n_rows` rows: per side of W, (left, right), the rows nonzero there,
    their particular solutions U and the Green column phi of the node next
    to W (the other rows' particular solution is zero)."""

    grid: Grid1D
    z: complex
    k: int
    n_rows: int
    rows: tuple
    U: tuple
    phi: tuple


def flat_exterior(op: Discrete1DOperator, z, f_samples) -> FlatExterior:
    """The flat exterior of (op.grid, z, f), f one row or a (probes, nodes)
    block, from one `exterior_solve`.  W depends on the grid and op's
    potential only, so several eps on one grid can share an exterior while
    their potentials sit inside the same W; the caller decides when."""
    F = np.atleast_2d(f_samples)
    i0, k = op.grid.n_cells // 2, _core_half_width(op)
    sides = (F[:, 1:i0 - k], F[:, i0 + k + 1:-1])
    rows = tuple(np.flatnonzero(np.any(side != 0, axis=1)) for side in sides)
    # times 1.0, exact: the rows as they are
    U_l, phi_l, U_r, phi_r = exterior_solve(
        op.grid.h, complex(z), sides[0][None, rows[0]], sides[1][None, rows[1]],
        np.ones(1))
    return FlatExterior(op.grid, complex(z), k, len(F), rows,
                        (U_l[0], U_r[0]), (phi_l[0], phi_r[0]))


def resolvent_solve(op: Discrete1DOperator, z, f_samples,
                    exterior: FlatExterior | None = None) -> np.ndarray:
    """(H - z)^{-1} f by the exact Schur split of W and its flat exterior.

    f is sampled on the full node set, one probe or a (probes, nodes)
    block; the output has f's shape and zeros at the Dirichlet caps.
    Outside the core window W each row is g = U + c g(edge) phi, c = 1/h^2
    (`flat_exterior`, built here when `exterior` is None), so W's
    tridiagonal takes the Schur corner terms c^2 phi(edge) and the
    right-hand side c U(edge): one LAPACK `gtsv` call for all rows, each
    bit for bit its own solve.  An `exterior` of another grid, z, W or row
    count raises RobinwgError; one of another block of f's shape fails the
    check that every row's residual is within 1e-12 of its own ||f||, as
    does a row that is not finite.
    """
    if complex(z).imag == 0:
        raise RobinwgError("resolvent_solve needs Im z != 0")
    f = np.asarray(f_samples)
    s = op.grid.points
    if f.shape[-1:] != s.shape or f.ndim > 2:
        raise RobinwgError("f must be sampled on the full grid")
    F = np.atleast_2d(f)
    ext = exterior or flat_exterior(op, z, F)
    if ((ext.grid, ext.z, ext.k, ext.n_rows)
            != (op.grid, complex(z), _core_half_width(op), len(F))):
        raise RobinwgError("the flat exterior was built for another grid, "
                           "z, core window or row count")
    h = op.grid.h
    c = 1.0 / h ** 2
    i0 = op.grid.n_cells // 2
    lo, hi = i0 - ext.k, i0 + ext.k
    diag = 2.0 / h ** 2 + op.potential[lo:hi + 1] - z
    b = F[:, lo:hi + 1].astype(complex).T
    flat = len(ext.phi[0]) > 0        # W short of the caps
    if flat:
        diag[0] -= c * c * ext.phi[0][-1]
        diag[-1] -= c * c * ext.phi[1][0]
        b[0, ext.rows[0]] += c * ext.U[0][:, -1]
        b[-1, ext.rows[1]] += c * ext.U[1][:, 0]
    x = _gtsv(diag, -c, b)
    G = np.empty(F.shape, dtype=complex)
    G[:, [0, -1]] = 0.0
    G[:, lo:hi + 1] = x.T
    if flat:
        for nodes, g_edge, rows, U, phi in zip(
                (slice(1, lo), slice(hi + 1, -1)), (x[0], x[-1]), ext.rows,
                ext.U, ext.phi):
            for r, ge in enumerate(g_edge):
                np.multiply(phi, c * ge, out=G[r, nodes])
            for r, u in zip(rows, U):
                G[r, nodes] += u
    # backward-stable solve: the attainable residual scales with eps*||A||
    a_scale = 4.0 / h ** 2 + np.max(np.abs(op.potential)) + abs(z)
    diag = op.diagonal(z)
    n = len(s) - 2
    resid, work = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    for fr, gr in zip(F, G):
        f_norm = max(np.linalg.norm(fr[1:-1]), 1e-300)
        op.apply_interior(gr, diag, resid, work)
        resid -= fr[1:-1]
        rel = np.linalg.norm(resid) / f_norm
        floor = 50 * np.finfo(float).eps * a_scale * (
            np.linalg.norm(gr[1:-1]) / f_norm)
        # judged as "not below": a NaN residual fails
        if not rel <= max(1e-12, floor):
            raise RobinwgError(f"banded solve residual {rel:.3g} above target")
    return G if f.ndim == 2 else G[0]


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


@dataclass(frozen=True)
class VertexData:
    value_minus: complex
    deriv_minus: complex
    value_plus: complex
    deriv_plus: complex


def extract_vertex_data(s, g, eps, support_radius) -> VertexData:
    """One-sided extrapolation of (f, f') at 0 from outside the scaled core.

    Quintic least squares on [a, a + max(0.4, 2a)] per side with
    a = 1.05 * eps * support_radius; raises when the window would swallow
    half the grid.
    """
    a = max(1.05 * eps * support_radius, 5 * (s[1] - s[0]))
    width = max(0.4, 2 * a)
    if a + width > 0.5 * s[-1]:
        raise GridResolutionError("extrapolation window exceeds half the grid")
    out = {}
    for sign in (+1, -1):
        sel = (sign * s >= a) & (sign * s <= a + width)
        X = np.vander(s[sel], 6, increasing=True)
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
                      h_target: float = 2e-3,
                      error_threshold: float = 0.02) -> ConvergenceReport:
    """Per-eps resolvent errors against the resonance-predicted graph limit.

    The 1D backend of `report.run_study`: f may be a callable or a list of
    callables (the error is then the max over the probe set, a sampled
    stand-in for the operator norm), and all probes of one eps share one
    banded solve of the block.  A flat exterior (`flat_exterior`) is built
    when run_study hands over a new probe block, which it does only on a new
    grid, or when the core window W changes; the other eps solve only the
    core.  The backend holds that one exterior and the block it was built
    for, and lets both go on a new grid before run_study samples its block,
    on a new W before the next exterior is built, and before the
    discretisation estimate.  The transmission is measured against the
    continuum free resolvent.  For a limit that couples the edges each
    solve fits the first probe's vertex data, and the gluing conditions are
    tested on them and on their eps -> 0 extrapolation.  The
    discretisation estimate re-solves
    the first probe on a grid with h halved at the smallest eps.  An eps
    with 1 + eps*b <= 0, where the deformation flips the coupling's sign,
    raises ProfileError before any solve.
    """
    eps_list = list(eps_list)
    for eps in eps_list:
        if 1.0 + eps * b <= 0:
            raise ProfileError(f"deformation requires 1 + eps*b > 0, got "
                               f"{1.0 + eps * b!r} at eps = {eps!r}")
    predicted, alt = predicted_limit(profile, beta, b)
    support_radius = max(abs(profile.support[0]), abs(profile.support[1]))
    last = {"grid": None, "block": None, "exterior": None}
    vdata = []

    def solver(eps):
        grid = s_grid(profile, eps, z, half_length, h_target)
        if grid != last["grid"]:
            # run_study samples a new block on a new grid: the old block
            # and its exterior go before any array of the new grid is made
            last.update(block=None, exterior=None)
        op = build_h_n_eps(profile, beta, eps, b, grid)
        last.update(eps=eps, grid=grid)

        def solve(F):
            # run_study hands over the same block while the grid stays, so
            # the flat exterior of its first eps serves the later ones
            if (F is not last["block"]
                    or last["exterior"].k != _core_half_width(op)):
                # the old exterior goes before the next one is built
                last.update(block=None, exterior=None)
                last.update(block=F, exterior=flat_exterior(op, z, F))
            G = resolvent_solve(op, z, F, last["exterior"])
            if predicted.kind != DECOUPLED:
                vdata.append(extract_vertex_data(grid.points, G[0], eps,
                                                 support_radius))
            return G
        return grid.points, solve

    def floor_estimate(probe, g):
        last.update(block=None, exterior=None)
        fine = Grid1D(last["grid"].half_length, 2 * last["grid"].n_cells)
        op = build_h_n_eps(profile, beta, last["eps"], b, fine)
        gf = resolvent_solve(op, z, probe(fine.points))
        return float(np.max(np.abs(gf[::2] - g)))

    free = GraphOperatorSpec.free()
    report = run_study(predicted, alt, z, f, eps_list, solver, error_threshold,
                       lambda s, fs: resolvent_apply(free, z, s, fs),
                       floor_estimate=floor_estimate)
    report.vertex_residuals = [vertex_condition_residuals(predicted, vd)
                               for vd in vdata]
    if len(vdata) >= 3:
        # vertex data converges linearly in eps; extrapolate then test the
        # gluing conditions on the limit
        fields = np.array([[vd.value_minus, vd.deriv_minus,
                            vd.value_plus, vd.deriv_plus] for vd in vdata])
        ext = extrapolate_linear(report.eps_list, fields)
        report.vertex_residual_extrapolated = vertex_condition_residuals(
            predicted, VertexData(*ext))
    return report
