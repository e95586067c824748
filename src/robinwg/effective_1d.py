"""Scaled effective 1D Hamiltonians and their resolvent convergence studies.

h_eps = -d^2/ds^2 + beta (1 + eps b) / eps^2 * gamma^2(s/eps), discretised by
second-order central differences on [-L, L] with exact discrete transparent
ends: outside the probes and the potential the lattice is the free line,
whose outgoing solution g_{i+1} = r g_i closes each end (Engquist & Majda
1977; Ehrhardt & Arnold 2001), so the finite grid returns the infinite
lattice's solution.  The convergence driver compares (h_eps - z)^{-1} f
against the graph-limit resolvent predicted by the resonance analysis of
v = beta gamma^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import zgtsv
from .errors import GridResolutionError, ProfileError, RobinwgError
from .geometry import CurvatureProfile
from .graph_limit import DECOUPLED, GraphOperatorSpec, resolvent_apply
from .report import (ConvergenceReport, extrapolate_linear, predicted_limit,
                     run_study)

RESOLUTION_FACTOR = 50  # grid cells across the scaled support, per the contract


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [-L, L], n_cells even so 0 is a node.

    `resolvent_solve` closes the end nodes by the outgoing lattice condition;
    the 2D backend, which shares the grid, keeps Dirichlet caps there."""

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

    def apply_interior(self, g, diag, out, work):
        """(-D2 + diag) g on the interior nodes of one full-node row g,
        written into out: with diag = `Discrete1DOperator.diagonal(shift)`
        it is (H - shift) g.  work is scratch of out's shape.  g's end nodes
        close the end rows: r times the neighbour there is
        `resolvent_solve`'s transparent end, 0 a Dirichlet cap."""
        np.multiply(diag, g[1:-1], out=out)
        np.add(g[:-2], g[2:], out=work)
        # times 1/h^2: numpy divides a complex array by a float as by a
        # complex number, several times slower than this product
        work *= 1.0 / self.h ** 2
        out -= work
        return out


def s_grid(profile: CurvatureProfile, eps: float, half_length: float,
           h_max: float = np.inf) -> Grid1D:
    """The s-grid of both backends at one eps: the one place h and n are sized.

    The grid is [-L, L], L = half_length (the backend chooses it: in 1D
    every probe vanishes outside it, in 2D `waveguide2d.s_half_length`
    keeps its Dirichlet caps away).  The cell count n is the smallest even
    one whose step 2L/n is within min(h_max, eps * support_width /
    RESOLUTION_FACTOR), as computed in floats, so that s = 0 is a node and
    `check_resolution` passes.  Where 2L over that bound is an integer, n
    is that integer (made even): a rectangle whose scaled edges sit on
    multiples of the step keeps them on nodes.
    """
    bound = min(h_max, eps * profile.support_width / RESOLUTION_FACTOR)
    n = max(int(np.round(2 * half_length / bound)), 1)
    while 2 * half_length / n > bound:   # at most twice: rounding, an ulp
        n += 1
    return Grid1D(half_length, n + n % 2)


def outgoing_root(h, z):
    """The root r, |r| < 1, of r + 1/r = 2 - h^2 z (z, or an array of z,
    off [0, 4/h^2]): away from its sources the free lattice line -D2 - z of
    step h has the outgoing solution g_{i+1} = r g_i.  With t = h^2 z and
    a = 2 - t, a^2 - 4 = t (t - 4) and r = 2 / (a +- sqrt(a^2 - 4)), the
    sign giving the larger modulus: no cancellation near r = 1 or r = 0."""
    t = h * h * np.asarray(z, dtype=complex)
    q = np.sqrt(t * (t - 4.0))
    a = 2.0 - t
    return 2.0 / np.where(np.abs(a + q) >= np.abs(a - q), a + q, a - q)


def check_support(profile: CurvatureProfile, eps: float, half_length: float):
    """Raise GridResolutionError unless the scaled potential's support
    eps * profile.support lies in [-L, L], L = half_length: the transparent
    ends take the line beyond +-L to be free."""
    lo, hi = profile.support
    if eps * lo < -half_length or eps * hi > half_length:
        raise GridResolutionError(
            f"the potential's support [{eps * lo!r}, {eps * hi!r}] at eps = "
            f"{eps!r} leaves [-L, L], L = {half_length!r}: the transparent "
            "ends need it inside")


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


def build_h_n_eps(profile: CurvatureProfile, beta: float, eps: float,
                  b: float, grid: Grid1D) -> Discrete1DOperator:
    """Assemble the discrete scaled operator; b = 0 is the undeformed case."""
    if eps <= 0:
        raise RobinwgError("eps must be positive")
    if beta != 0.0:
        check_resolution(grid.h, eps, profile)
    s = grid.points
    V = (beta * (1.0 + eps * b) / eps ** 2
         * profile.sample_squared(s / eps, grid.h / eps))
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


def green_columns(h, z, m: int, transparent: bool) -> np.ndarray:
    """The Green column of a free lattice exterior of m nodes, for each z.

    The exterior is tridiag(-c, 2c - z, -c), c = 1/h^2, on nodes k = 1..m
    counted from its window, whose side (node 0) it sees as a Dirichlet
    cap; beyond node m it has a Dirichlet cap, or with `transparent` the
    outgoing lattice g_{m+1} = r g_m, r = `outgoing_root(h, z)`.  Its
    column phi = E^{-1} e_1 has the closed form (Ehrhardt & Arnold 2001)

        phi_k = r^k (1 - r^(2(m+1-k))) / (c (1 - r^(2(m+1))))   cap
        phi_k = r^k / c                                         transparent

    taken as exp(k log r), and only while |r|^k is a normal float: past
    that reach the entries are exact zeros, so the cost is the sum over z of
    min(m, reach).  The cap's reflection r^(2(m+1)-k), k <= m, is below
    |r|^(m+2): it is a normal float only in a column that reaches node m,
    and only such a column takes the cap factors, by expm1.
    Returns (len(z), m), row j for z[j], column k - 1 for node k.
    """
    t = h * h * np.atleast_1d(z).astype(complex)
    # r = s e^L, Re L < 0: with w = sqrt(-t)/2 (s = 1) or sqrt(t - 4)/2
    # (s = -1, Re t >= 2) the roots' product 1 and sum 2 - t give
    # L = -2 asinh(w), with no cancellation near r = 1 or r = -1
    top = t.real >= 2
    log_r = -2 * np.arcsinh(np.sqrt(np.where(top, t - 4, -t)) / 2)
    with np.errstate(divide="ignore"):       # |r| = 1 in floats reaches m
        reach = np.minimum(m, np.log(np.finfo(float).tiny) / log_r.real)
    reach = reach.astype(int)
    # every column's nodes 1..reach_j, end to end
    row = np.repeat(np.arange(len(log_r)), reach)
    k = np.arange(1, len(row) + 1) - np.repeat(np.cumsum(reach) - reach, reach)
    lr = log_r[row]
    col = np.exp(k * lr) * h ** 2
    col[top[row] & (k % 2 == 1)] *= -1
    if not transparent:
        far = reach[row] == m
        col[far] *= (np.expm1(2 * (m + 1 - k[far]) * lr[far])
                     / np.expm1(2 * (m + 1) * lr[far]))
    phi = np.zeros((len(log_r), m), dtype=complex)
    phi[row, k - 1] = col
    return phi


def exterior_solve(h, z, B_left, B_right, outer):
    """The particular solutions of the free exteriors on both sides of a
    window, at one z.

    Each side's operator is E = tridiag(-c, 2c - z, -c), c = 1/h^2, on its
    m nodes, with `outer` added to the diagonal of the node at the far end:
    0 is a Dirichlet cap, -c r (`outgoing_root`) the exact transparent end.
    The node next to the window sees it as a Dirichlet cap.  B_left
    (k, m_left) holds k right-hand sides, B_right likewise.  Returns
    (U_left, U_right), U = E^{-1} B; the Green column of the node next to
    the window is `green_columns`'.  Both sides go end to end, zero
    coupling at the joint and left row i sharing a column with right row i,
    into one LAPACK `gtsv` call, a column per row (one unknown is a
    division).
    """
    (kl, ml), (kr, mr) = B_left.shape, B_right.shape
    m, k = ml + mr, max(kl, kr)
    X = np.zeros((m, k), dtype=complex, order="F")
    X[:ml, :kl] = B_left.T
    X[ml:, :kr] = B_right.T
    if m and k:
        diag = np.full(m, 2.0 / h ** 2 - z)
        diag[[i for i, side in ((0, ml), (m - 1, mr)) if side]] += outer
        off = np.full(m - 1, -1.0 / h ** 2)
        if ml and mr:
            off[ml - 1] = 0.0                   # the joint
        X = _gtsv(diag, off, X) if m > 1 else X / diag
    return X[:ml, :kl].T, X[ml:, :kr].T


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
    """The free problem outside the core window W, nodes i0 - k .. i0 + k
    around the vertex node i0, for one block of rows: per side of W, (left,
    right), the rows nonzero there, their particular solutions U and the
    Green column phi of the node next to W (other rows have U = 0)."""

    k: int
    rows: tuple
    U: tuple
    phi: tuple


def flat_exterior(op: Discrete1DOperator, z, F) -> FlatExterior:
    """The flat exterior of op's W for the (probes, nodes) block F: the
    particular solutions from one `exterior_solve`, the Green columns from
    `green_columns`, transparent far ends.  W depends on the grid and op's
    potential only (`_core_half_width`)."""
    i0, k = op.grid.n_cells // 2, _core_half_width(op)
    sides = (F[:, 1:i0 - k], F[:, i0 + k + 1:-1])
    rows = tuple(np.flatnonzero(np.any(side != 0, axis=1)) for side in sides)
    h = op.grid.h
    U = exterior_solve(h, complex(z), sides[0][rows[0]], sides[1][rows[1]],
                       -outgoing_root(h, z) / h ** 2)
    phi_l, phi_r = (green_columns(h, z, side.shape[1], True)[0]
                    for side in sides)
    return FlatExterior(k, rows, U, (phi_l[::-1], phi_r))


def resolvent_solve(op: Discrete1DOperator, z, f_samples) -> np.ndarray:
    """(H - z)^{-1} f on the infinite lattice, f one probe or a (probes,
    nodes) block sampled on the full node set: a loop over the rows of a
    one-operator `resolvent_solve_rows` call, so the output has f's shape
    and each row equals its own solve bit for bit."""
    f = np.asarray(f_samples)
    row, = resolvent_solve_rows([op], z, f)
    if f.ndim == 1:
        return row(0)
    G = np.empty(f.shape, dtype=complex)
    for p in range(len(G)):
        G[p] = row(p)
    return G


def resolvent_solve_rows(ops, z, f_samples):
    """The block core solves of (H - z)^{-1} f on the infinite lattice for
    one run of operators on one grid (another grid raises RobinwgError),
    taken one at a time, by the exact Schur split of each core window W
    and its flat exterior, with transparent ends; returns one row(p) per
    operator, which assembles and checks row p's solution.

    f is sampled on the full node set, one probe or a (probes, nodes)
    block; f and each operator's potential must vanish at both end nodes
    (GridResolutionError otherwise), as they do beyond s = +-L, so the
    lattice solution there is g_{i+1} = r g_i, r = `outgoing_root(h, z)`,
    and each end row takes the diagonal 2c - z - c r, c = 1/h^2.  Each row
    holds r times its neighbour at the end nodes, so the residual gate
    below checks the operator that was solved.  Outside W each row is g =
    U + c g(edge) phi (`flat_exterior`, built for the first operator and
    again wherever W changes), so W's tridiagonal takes the Schur corner
    terms c^2 phi(edge) and the right-hand side c U(edge); a W that
    reaches the end nodes takes the end term itself.  One LAPACK `gtsv`
    call per operator solves all rows on W, each bit for bit its own
    solve.  row(p) returns a fresh whole-grid row and raises RobinwgError
    unless its residual is within 1e-12 of its own ||f|| (or of the
    backward-stable floor): so fails a row of another block's exterior, or
    one that is not finite.  Between rows each returned function holds its
    W's solution block and diagonal, the exterior and f, not the operator:
    outside W the potential is zero, so the gate's diagonal there is the
    constant 2c - z, bit for bit `op.diagonal(z)`.
    """
    if complex(z).imag == 0:
        raise RobinwgError("resolvent_solve needs Im z != 0")
    f = np.asarray(f_samples)
    F = np.atleast_2d(f)
    rows, grid, ext = [], None, None
    for op in ops:
        if grid not in (None, op.grid):
            raise RobinwgError("the operators of one run must share one grid")
        grid = op.grid
        if f.shape[-1:] != grid.points.shape or f.ndim > 2:
            raise RobinwgError("f must be sampled on the full grid")
        for name, v in (("f", F), ("the potential", op.potential[None])):
            if np.any(v[:, [0, -1]] != 0):
                raise GridResolutionError(
                    f"{name} is nonzero at an end node s = "
                    f"+-{grid.half_length!r}: the transparent ends need it "
                    "to vanish outside [-L, L]")
        if ext is None or ext.k != _core_half_width(op):
            ext = flat_exterior(op, z, F)
        rows.append(_window_solve(op, z, F, ext))
    return rows


def _window_solve(op: Discrete1DOperator, z, F, ext: FlatExterior):
    """One operator's block solve on W, and its row(p)."""
    grid = op.grid
    h = grid.h
    c = 1.0 / h ** 2
    r = complex(outgoing_root(h, z))
    i0 = grid.n_cells // 2
    lo, hi = i0 - ext.k, i0 + ext.k
    # `op.diagonal(z)` on W, interior node i at i - 1; the Schur corners
    # and gtsv take a copy
    diag_w = 2.0 / h ** 2 + op.potential[lo:hi + 1] - z
    diag = diag_w.copy()
    b = F[:, lo:hi + 1].astype(complex).T
    flat = len(ext.phi[0]) > 0        # W short of the end nodes
    if flat:
        diag[0] -= c * c * ext.phi[0][-1]
        diag[-1] -= c * c * ext.phi[1][0]
        b[0, ext.rows[0]] += c * ext.U[0][:, -1]
        b[-1, ext.rows[1]] += c * ext.U[1][:, 0]
    else:
        diag[[0, -1]] -= c * r
    x = _gtsv(diag, -c, b)
    # backward-stable solve: the attainable residual scales with eps*||A||
    a_scale = 4.0 / h ** 2 + np.max(np.abs(op.potential)) + abs(z)

    def row(p):
        g = np.empty(len(grid.points), dtype=complex)
        g[lo:hi + 1] = x[:, p]
        if flat:
            for nodes, ge, rows, U, phi in zip(
                    (slice(1, lo), slice(hi + 1, -1)), (x[0, p], x[-1, p]),
                    ext.rows, ext.U, ext.phi):
                np.multiply(phi, c * ge, out=g[nodes])
                for j in np.flatnonzero(rows == p):
                    g[nodes] += U[j]
        # the lattice beyond each end node: g_{i+1} = r g_i
        g[0], g[-1] = r * g[1], r * g[-2]
        fr = F[p]
        d = np.full(len(g) - 2, 2.0 / h ** 2 - z)     # op.diagonal(z)
        d[lo - 1:hi] = diag_w
        f_norm = max(np.linalg.norm(fr[1:-1]), 1e-300)
        resid = grid.apply_interior(g, d, np.empty_like(d), np.empty_like(d))
        resid -= fr[1:-1]
        rel = np.linalg.norm(resid) / f_norm
        floor = 50 * np.finfo(float).eps * a_scale * (
            np.linalg.norm(g[1:-1]) / f_norm)
        # judged as "not below": a NaN residual fails
        if not rel <= max(1e-12, floor):
            raise RobinwgError(f"banded solve residual {rel:.3g} above target")
        return g
    return row


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
    a = 1.05 * eps * support_radius; raises when the window would run off
    the grid.  The transparent ends leave no cap reflection to keep the
    window away from (the Dirichlet caps of earlier versions needed it
    within half the grid).
    """
    a = max(1.05 * eps * support_radius, 5 * (s[1] - s[0]))
    width = max(0.4, 2 * a)
    if a + width > s[-1]:
        raise GridResolutionError("extrapolation window runs off the grid")
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
                      f, eps_list, half_length: float = 8.0,
                      h_target: float = 2e-3,
                      error_threshold: float = 0.02) -> ConvergenceReport:
    """Per-eps resolvent errors against the resonance-predicted graph limit.

    The 1D backend of `report.run_study`: f may be a callable or a list of
    callables (the error is then the max over the probe set, a sampled
    stand-in for the operator norm), and all probes of one eps share one
    banded solve of the block.  Every probe must vanish outside [-L, L],
    L = half_length (one nonzero at an end node raises
    GridResolutionError), as must the potential: a scaled support
    eps * profile.support that leaves [-L, L] raises GridResolutionError
    before any solve (`check_support`).  The grid needs no margin beyond
    that, because its transparent ends return the infinite lattice's
    solution, and run_study takes the error and leakage norms to infinity
    with the lattice's `outgoing_root`.  The default L = 8 holds |s| <= 1,
    the 2 < s < 6 transmission window and probes out to |s| = 8.  Each run
    of eps on one grid is one `resolvent_solve_rows` call, handed the
    run's operators as they are built, which returns each eps's row(p)
    and decides where the flat exterior is built; no row holds the
    operator, so between rows an eps holds only its core window's solution
    block and diagonal, and its exterior.  The transmission is measured
    against the continuum free resolvent.  For a limit that couples the
    edges the first probe's row of each eps fits that eps's vertex data,
    and the gluing conditions are tested on them and on their eps -> 0
    extrapolation.
    The discretisation estimate re-solves the first probe on a grid with h
    halved at the smallest eps, after run_study has let every array of the
    study go.  An eps with 1 + eps*b <= 0, where the deformation flips the
    coupling's sign, raises ProfileError before any solve.
    """
    eps_list = list(eps_list)
    for eps in eps_list:
        if 1.0 + eps * b <= 0:
            raise ProfileError(f"deformation requires 1 + eps*b > 0, got "
                               f"{1.0 + eps * b!r} at eps = {eps!r}")
        if beta != 0.0:
            check_support(profile, eps, half_length)
    predicted, alt = predicted_limit(profile, beta, b)
    support_radius = max(abs(profile.support[0]), abs(profile.support[1]))
    vdata = []

    def fitted(row, s, eps):
        """row, with probe 0's row fitting that eps's vertex data."""
        def fit(p):
            g = row(p)
            if p == 0:
                vdata.append(extract_vertex_data(s, g, eps, support_radius))
            return g
        return row if predicted.kind == DECOUPLED else fit

    def grid_at(eps):
        g = s_grid(profile, eps, half_length, h_target)
        return g, g.points

    def solve(grid, eps_run, F):
        ops = (build_h_n_eps(profile, beta, eps, b, grid) for eps in eps_run)
        return [fitted(row, grid.points, eps) for eps, row
                in zip(eps_run, resolvent_solve_rows(ops, z, F))]

    def floor_estimate(probe, g, grid, eps):
        fine = Grid1D(grid.half_length, 2 * grid.n_cells)
        op = build_h_n_eps(profile, beta, eps, b, fine)
        gf = resolvent_solve(op, z, probe(fine.points))
        return float(np.max(np.abs(gf[::2] - g)))

    free = GraphOperatorSpec.free()
    report = run_study(
        predicted, alt, z, f, eps_list, (grid_at, solve), error_threshold,
        lambda grid, fs: resolvent_apply(free, z, grid.points, fs),
        floor_estimate=floor_estimate, outgoing=lambda h: outgoing_root(h, z))
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
