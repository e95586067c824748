"""Test-only references that share no code with the library paths they check.

`whole_grid_resolvent` solves the 1D scaled operator on every interior node
with scipy's banded solver, without the core/exterior split of
`effective_1d.resolvent_solve`, closing its ends by the outgoing root that
`lattice_root` takes from numpy's polynomial roots, or by Dirichlet caps
(`dirichlet_line`, the 2D strip's free line).  `capped_line_green` is the
Green column of one exterior line by elimination in extended precision,
the reference of the closed form `effective_1d.green_columns`.  `full_grid_matrix` assembles the 2D
waveguide operator on the whole grid by successive sparse sums, the direct
discretisation that the matrix-free apply of `waveguide2d` must reproduce.  `scalar_asymmetric_spectrum` solves the
asymmetric transverse problem one root at a time with scalar brentq, the
oracle of the lane-wise solve and the continuum limit that the 2D
backend's discrete transverse modes converge to; `scalar_resonant_couplings` brackets the
roots of a resonance scan by the signs of scipy's solves and refines each
by scalar brentq likewise.  `scipy_integrate` is
the zero-energy integration with every piece solved by scipy's `solve_ivp`
DOP853, the oracle of the library's port of that stepper.  `apply_1d` and
`apply_2d` (the operator actions), `lowest_eigenvalues` (the 1D spectrum)
and `gram_deviation` (the projector's mode Gram check) are called by the
tests only.  `traced_peak` reads a call's peak working set from tracemalloc.
"""

import tracemalloc
from unittest import mock

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.optimize import brentq

from robinwg import resonance
from robinwg.errors import RobinwgError
from robinwg.resonance import _ODE_TOL
from robinwg.transverse import _BRENT_KW
from robinwg.waveguide2d import FULL


def traced_peak(fn):
    """The peak bytes tracemalloc sees while fn() runs; numpy reports every
    array buffer to it, so the figure repeats from run to run."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def lattice_root(h, z):
    """The root |r| < 1 of r^2 - (2 - h^2 z) r + 1, by numpy's roots."""
    roots = np.roots([1.0, -(2.0 - h * h * z), 1.0])
    return roots[np.argmin(np.abs(roots))]


def whole_grid_resolvent(h, potential, z, F, r=0.0):
    """(H - z)^{-1} f for each row of F, H = -D2 + diag(potential) by central
    differences with step h on the interior nodes, each end node holding r
    times its neighbour: r = `lattice_root(h, z)` the transparent end, 0 a
    Dirichlet cap."""
    F = np.atleast_2d(F)
    n = F.shape[1] - 2
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = ab[2, :-1] = -1.0 / h ** 2
    ab[1] = 2.0 / h ** 2 + potential[1:-1] - z
    ab[1, [0, -1]] -= r / h ** 2
    G = np.zeros(F.shape, dtype=complex)
    G[:, 1:-1] = solve_banded((1, 1), ab, F[:, 1:-1].T).T
    G[:, 0], G[:, -1] = r * G[:, 1], r * G[:, -2]
    return G


def capped_line_green(h, z, m, transparent):
    """The Green column E^{-1} e_1 of the m-node lattice line E = tridiag(-c,
    2c - z, -c), c = 1/h^2, with a Dirichlet cap beyond node m, or with
    `transparent` the outgoing end g_{m+1} = r g_m, r the root |r| < 1 of
    r^2 - (2 - t) r + 1, t = h h z as rounded in double.  Elimination from
    node m up, in numpy's extended precision: each pivot is the ratio
    q_k = g_{k-1}/g_k, q_k = 2 - t - 1/q_{k+1}, carried as p_k = q_k - 1 =
    p_{k+1}/(1 + p_{k+1}) - t so that t is not lost beside 2; the
    transparent end starts from q_m = 1/r, p_m = (t (t - 4))^(1/2)/2 - t/2
    with the sign that makes |q_m| > 1."""
    x = np.clongdouble
    t = x(h * h * complex(z))
    root = np.sqrt(t * (t - 4)) / 2
    p = np.empty(m + 1, dtype=x)
    p[m] = (max(root, -root, key=lambda w: abs(1 + w - t / 2)) - t / 2
            if transparent else 1 - t)
    for k in range(m - 1, 0, -1):
        p[k] = p[k + 1] / (1 + p[k + 1]) - t
    g = np.empty(m, dtype=x)
    g[0] = x(h * h) / (1 + p[1])
    for k in range(1, m):
        g[k] = g[k - 1] / (1 + p[k + 1])
    return g.astype(complex)


def dirichlet_line(h, z, f):
    """The free line's (-D2 - z)^{-1} f with Dirichlet caps, f on the
    interior nodes: the 2D strip's reference."""
    full = np.pad(np.asarray(f, dtype=complex), 1)
    return whole_grid_resolvent(h, np.zeros(len(full)), z, full)[0, 1:-1]


def apply_1d(op, g):
    """A `Discrete1DOperator`'s action on full-node samples g: g's end nodes
    close the end rows, and the output's end nodes are 0."""
    g = np.asarray(g)
    out = np.zeros(g.shape, dtype=np.result_type(g, op.potential))
    op.grid.apply_interior(g, op.diagonal(), out[1:-1],
                      np.empty(out[1:-1].shape, out.dtype))
    return out


def lowest_eigenvalues(op, count):
    """The `count` lowest eigenvalues of a `Discrete1DOperator`."""
    diag = op.diagonal()
    off = np.full(len(diag) - 1, -1.0 / op.grid.h ** 2)
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1),
                            eigvals_only=True)


def apply_2d(op, field):
    """A `DiscreteWaveguideOperator`'s unweighted action on a (n_s-1, n_u+1)
    field."""
    return op._weighted_apply(field) / op.grid.u_mass


def gram_deviation(projector):
    """Worst per-column deviation of a `ModeProjector`'s mode Gram matrix
    from the identity."""
    cols = np.concatenate([projector.flat[:, None, :], projector.core_modes],
                          axis=1)
    G = np.einsum("mcu,u,ncu->cmn", cols, projector.quad, cols)
    return float(np.max(np.abs(G - np.eye(projector.n_max + 1))))


def full_grid_matrix(op):
    """(M A, M): the weighted operator of `op` and the u-weight diagonal."""
    geometry, grid = op.geometry, op.grid
    sc = geometry.scaling
    eps, delta = sc.epsilon, sc.delta
    defo = sc.deformation_factor
    si, u = grid.s_interior, grid.u_points
    nsi, nu = len(si), grid.n_u + 1
    hs, hu = grid.h_s, grid.h_u
    alpha = geometry.alpha

    # ghost-eliminated flat Robin matrix, boundary rows weighted by 1/2
    wu = np.ones(nu)
    wu[0] = wu[-1] = 0.5
    B = (np.diag(np.full(nu, 2.0)) - np.diag(np.ones(nu - 1), 1)
         - np.diag(np.ones(nu - 1), -1))
    B[0, 0] = B[-1, -1] = 2 + 2 * hu * alpha
    B[0, 1] = B[-1, -2] = -2
    A = sp.kron(sp.eye(nsi), wu[:, None] * B / hu ** 2 / delta ** 2, format="csr")

    a1, a2 = geometry.robin_coefficients(si)
    corr = np.zeros((nsi, nu))
    corr[:, 0] = (a2 - alpha) / hu / delta ** 2
    corr[:, -1] = (a1 - alpha) / hu / delta ** 2
    A = A + sp.diags(corr.ravel())

    gscaled = defo * geometry.profile.sample(si / eps)
    if op.variant != FULL:
        D2s = sp.diags([np.full(nsi - 1, -1.0), np.full(nsi, 2.0),
                        np.full(nsi - 1, -1.0)], [-1, 0, 1]) / hs ** 2
        A = A + sp.kron(D2s, sp.diags(wu), format="csr")
        A = A + sp.diags(np.repeat(-gscaled ** 2 / (4 * eps ** 2), nu)
                         * np.tile(wu, nsi))
    else:
        s_all = grid.s_points
        smid = 0.5 * (s_all[:-1] + s_all[1:])
        a_mid = 1.0 / (1.0 + np.outer(geometry.eta(smid), u)) ** 2
        aL, aR = a_mid[:-1, :], a_mid[1:, :]
        A = A + sp.diags(((aL + aR) * wu).ravel() / hs ** 2)
        off = (-aR[:-1, :] * wu).ravel() / hs ** 2
        n2 = nsi * nu
        A = (A + sp.diags(off, nu, shape=(n2, n2))
             + sp.diags(off, -nu, shape=(n2, n2)))

        one = 1.0 + np.outer(geometry.eta(si), u)
        g2d = gscaled[:, None]
        g1 = defo * geometry.profile.deriv(si / eps)[:, None]
        g2 = defo * geometry.profile.deriv2(si / eps)[:, None]
        dr = delta / eps
        U = u[None, :]
        V = (-g2d ** 2 / (4 * one ** 2)
             + dr * U * g2 / (2 * one ** 3)
             - 1.25 * dr ** 2 * U ** 2 * g1 ** 2 / one ** 4) / eps ** 2
        A = A + sp.diags((V * wu).ravel())
    return A.tocsr(), np.tile(wu, nsi)


def _delta(a1, a2, d, k):
    return ((a1 * a2 - k * k) * np.sin(2 * k * d)
            + k * (a1 + a2) * np.cos(2 * k * d))


def _delta_imag(kappa, a1, a2, d):
    return (a1 * a2 + kappa * kappa) * np.tanh(2 * kappa * d) + kappa * (a1 + a2)


def _coefficients(branch, k, a1, a2, d):
    if branch == "real":
        sd, cd = np.sin(k * d), np.cos(k * d)
        M = np.array([[k * cd + a1 * sd, a1 * cd - k * sd],
                      [-(k * cd + a2 * sd), a2 * cd - k * sd]])
        int_s2 = d - np.sin(2 * k * d) / (2 * k)
        int_c2 = d + np.sin(2 * k * d) / (2 * k)
    elif branch == "imaginary":
        with np.errstate(over="ignore"):
            sd, cd = np.sinh(k * d), np.cosh(k * d)
            M = np.array([[k * cd + a1 * sd, k * sd + a1 * cd],
                          [-(k * cd + a2 * sd), k * sd + a2 * cd]])
            int_s2 = np.sinh(2 * k * d) / (2 * k) - d
            int_c2 = np.sinh(2 * k * d) / (2 * k) + d
        if not np.all(np.isfinite(M)):
            return 0.0, 0.0
    else:
        M = np.array([[1 + a1 * d, a1], [-(1 + a2 * d), a2]])
        int_s2 = 2 * d ** 3 / 3
        int_c2 = 2 * d
    _, _, vt = np.linalg.svd(M)
    A, B = vt[-1]
    norm = np.sqrt(A * A * int_s2 + B * B * int_c2)
    A, B = A / norm, B / norm
    if B < 0 or (B == 0 and A < 0):
        A, B = -A, -B
    return A, B


def scalar_asymmetric_spectrum(a1, a2, d, n_max):
    """[(branch, k, eigenvalue, coef_sin, coef_cos)] for modes 0..n_max.

    Every root is one scalar brentq call on a bracket found by sampling.
    Returns None when fewer than n_max + 1 modes are found.
    """
    scale = abs(a1) + abs(a2) + 1.0 / d
    has_zero = abs(2 * d * a1 * a2 + a1 + a2) < 1e-12 * scale
    start = max(1e-9, 0.1 / d if has_zero else 0.0)

    grid = np.linspace(start, 1.5 * (abs(a1) + abs(a2)) + 2.0 / d, 800)
    vals = _delta_imag(grid, a1, a2, d)
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    kaps = sorted((brentq(_delta_imag, grid[i], grid[i + 1], args=(a1, a2, d),
                          **_BRENT_KW) for i in flips), reverse=True)
    entries = [("imaginary", kap, -kap * kap) for kap in kaps]
    if has_zero:
        entries.append(("zero", 0.0, 0.0))
    count = n_max + 1 - len(entries)
    if count > 0:
        grid = np.linspace(start, (count + 3) * np.pi / (2 * d), 60 * (count + 3))
        with np.errstate(invalid="ignore"):
            vals = _delta(a1, a2, d, grid) / grid
        flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        ks = sorted(brentq(lambda k: _delta(a1, a2, d, k) / k, grid[i], grid[i + 1],
                           **_BRENT_KW) for i in flips)[:count]
        entries += [("real", k, k * k) for k in ks]
    entries = sorted(entries, key=lambda e: e[2])[:n_max + 1]
    if len(entries) != n_max + 1:
        return None
    return [(b, k, lam) + _coefficients(b, k, a1, a2, d) for b, k, lam in entries]


def mode_values(branch, k, A, B, u):
    """One eigenfunction on u, as the scalar method sampled it."""
    if branch == "real":
        return A * np.sin(k * u) + B * np.cos(k * u)
    if branch == "imaginary":
        if A == 0.0 and B == 0.0:
            return np.zeros_like(u)
        return A * np.sinh(k * u) + B * np.cosh(k * u)
    return A * u + B * np.ones_like(u)


def scalar_resonant_couplings(profile, beta_range):
    """Every root of the zero-energy mismatch D(beta) between two of the
    120 scan couplings of `find_resonant_coupling` where D changes sign,
    each refined by scalar brentq on the same scalar path and with the same
    tolerances.  The signs come from scipy's solves at 1e-8: only a scan
    coupling about that close to a root could take the wrong one."""
    betas = np.linspace(min(beta_range), max(beta_range), 120)
    betas = betas[betas != 0.0]

    def mismatch(beta, rtol=_ODE_TOL):
        end, _ = scipy_integrate(lambda s: beta * profile.squared_at(s),
                                 profile.support, profile.knots, rtol=rtol)
        return float(end[1])

    signs = np.sign([mismatch(beta, 1e-8) for beta in betas])
    return [brentq(mismatch, betas[i], betas[i + 1], xtol=1e-13,
                   rtol=8.9e-16, maxiter=200)
            for i in np.flatnonzero(signs[:-1] * signs[1:] < 0)]


class ScipyDOP853:
    """`solve_ivp(..., method="DOP853")` called and read as `_dop853.dop853`."""

    def __init__(self, fun, t0, t_bound, y0, tol, dense=False):
        self.ivp = solve_ivp(fun, (t0, t_bound), y0, method="DOP853",
                             rtol=tol, atol=tol, dense_output=dense)
        if not self.ivp.success:
            raise RobinwgError(
                f"zero-energy integration failed: {self.ivp.message}")
        self.t, self.y = self.ivp.t, self.ivp.y[:, -1]

    def __call__(self, s):
        return self.ivp.sol(s)


def scipy_integrate(*args, **kwargs):
    """`resonance._integrate` with every piece solved by scipy's DOP853."""
    with mock.patch.object(resonance, "dop853", ScipyDOP853):
        return resonance._integrate(*args, **kwargs)
