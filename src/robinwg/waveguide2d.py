"""The 2D waveguide operator, held as flat data plus a curved core.

Two variants on the flattened strip R x (-d, d):

    full        -d/ds (1+u eta)^-2 d/ds - delta^-2 d^2/du^2 + eps^-2 V(s,u)
                with V the three-term curvature potential
    simplified  -d^2/ds^2 - delta^-2 d^2/du^2 - gamma^2(s/eps)/(4 eps^2)

both with s-dependent Robin rows at u = +-d implemented by second-order
ghost elimination.  Multiplying the boundary rows by the trapezoid weight
1/2 restores symmetry (the recorded weighted symmetrisation); the linear
systems are then (A - shift*M) x = M F with M the u-weight diagonal.

The curvature has compact support, so outside a core of O(eps) s-columns
(`core_columns`, one slice for the operator and the projector) the
operator is the flat separable one, P^-1 = kron(D2s + diag(V_flat), W) +
kron(I, Bw)/delta^2, with V_flat the flat part of the potential and Bw the
weighted Robin matrix, whose bands `robin_bands` states once for the
operator and for every transverse eigenproblem.  Only the core correction
E = P^-1 - M A is assembled and P^-1 is applied matrix-free.  The
operator's flat eigenbasis and the projector's modes are one basis, the
discrete Robin modes of `robin_modes` (the flat ones shared bit for bit,
`flat_modes`): no continuum mode is sampled here.  So outside the core a
source in mode n feeds mode n alone, and the reduced resolvent eliminates
the flat exterior per transverse mode with one tridiagonal solve, mode n's
particular solution (the 1D backend's `exterior_solve`), and every mode's
Green column in closed form (`green_columns`).  It then writes the core's
exact Schur system straight into band storage and solves it by one banded
LU, assembles each field once and checks it by one matrix-free apply, and
projects onto per-column transverse modes after subtracting the *discrete*
flat threshold, so the renormalised problem is delta-independent at
machine level.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from . import _lapack as lapack
from .effective_1d import (Grid1D, check_resolution, exterior_solve,
                          green_columns, s_grid)
from .errors import (BracketingError, GridResolutionError, ProfileError,
                     RobinwgError)
from .geometry import WaveguideGeometry
from .graph_limit import sqrt_upper
from .report import ConvergenceReport, predicted_limit, run_study
from .transverse import _sign_changes, perturbation_coefficients

FULL = "full"
SIMPLIFIED = "simplified"
# the strip's smallest s half-length; `s_half_length` lengthens it as z
# nears [0, inf)
MIN_HALF_LENGTH = 12.0


def s_half_length(z) -> float:
    """The strip's s half-length at z: L = max(MIN_HALF_LENGTH, 10/Im sqrt(z)
    + 1), so the decay e^(-Im sqrt(z) L) from s = 0 to the Dirichlet caps
    is below e^-10 (that does not bound the truncation error of a probe
    supported away from the vertex).  The 1D backend has transparent ends
    and needs no such rule."""
    return max(MIN_HALF_LENGTH, 10.0 / sqrt_upper(z).imag + 1.0)


@dataclass(frozen=True)
class Grid2D:
    """Tensor grid: s on `line`, the Grid1D of n_s cells on [-L, L] whose
    end nodes are the strip's Dirichlet caps, and u on [-d, d]."""

    s_half_length: float
    n_s: int               # s cells, even so s = 0 is a node
    n_u: int               # u cells
    d: float

    def __post_init__(self):
        if self.n_s % 2 or self.n_s < 8:
            raise GridResolutionError("n_s must be even and >= 8")
        if self.n_u < 16:
            raise GridResolutionError(f"n_u must be >= 16, got {self.n_u}")
        if self.s_half_length <= 0 or self.d <= 0:
            raise GridResolutionError("lengths must be positive")

    @cached_property
    def line(self) -> Grid1D:
        """The s-axis, whose read-only nodes are built once per grid."""
        return Grid1D(self.s_half_length, self.n_s)

    @property
    def h_s(self):
        return self.line.h

    @property
    def h_u(self):
        return 2 * self.d / self.n_u

    @property
    def s_interior(self):
        return self.line.points[1:-1]

    @property
    def u_points(self):
        return np.linspace(-self.d, self.d, self.n_u + 1)

    @property
    def u_mass(self):
        w = np.ones(self.n_u + 1)
        w[0] = w[-1] = 0.5
        return w

    def check_mode_resolution(self, n_max: int):
        # mode n_max's half wavelength exceeds 2 d / (n_max + 1): >= 8 cells
        if self.n_u < 8 * (n_max + 1):
            raise GridResolutionError(
                f"n_u = {self.n_u} under-resolves transverse mode {n_max}; "
                f"n_u >= {8 * (n_max + 1)} resolves it")


def strip_grid(profile, eps: float, z, n_u: int, d: float) -> Grid2D:
    """The strip's grid at eps, the one place it is sized: s on [-L, L],
    L = `s_half_length(z)`, with `s_grid`'s cells, and n_u cells on [-d, d]."""
    line = s_grid(profile, eps, s_half_length(z))
    return Grid2D(line.half_length, line.n_cells, n_u, d)


@dataclass(frozen=True)
class CoreBands:
    """The core correction E, held as its three nonzero diagonals.

    E is symmetric with bands at offsets 0 and +-(n_u + 1) only: E[i, i] =
    diag[i] and E[i + n_u + 1, i] = E[i, i + n_u + 1] = off[i], s-major."""

    diag: np.ndarray
    off: np.ndarray

    @property
    def nnz(self) -> int:
        """E's nonzero entries, as a sparse matrix would store them."""
        return np.count_nonzero(self.diag) + 2 * np.count_nonzero(self.off)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """E x, each row summed from zero as lower band, diagonal, upper
        band: a CSR matvec's order, so E x is a CSR product bit for bit."""
        nu = len(self.diag) - len(self.off)
        y = np.zeros(len(x), np.result_type(self.diag, x))
        y[nu:] += self.off * x[:-nu]
        y += self.diag * x
        y[:-nu] += self.off * x[nu:]
        return y


@dataclass
class DiscreteWaveguideOperator:
    """Weighted operator M A = P^-1 - R^T E R on the (s interior) x u grid.

    R restricts to the core columns (see the module docstring)."""

    geometry: WaveguideGeometry
    grid: Grid2D
    variant: str
    matrix: CoreBands              # E = (P^-1 - M A) on the core columns
    transverse: np.ndarray         # Bw / delta^2, the weighted flat u-operator
    flat_eigvals: np.ndarray       # discrete flat transverse eigenvalues
    flat_eigvecs: np.ndarray       # mass-orthonormal columns
    potential_s: np.ndarray        # flat part of the potential, per s node
    core: slice                    # s-columns outside which A equals P^-1

    @property
    def shape(self):
        return (len(self.grid.s_interior), self.grid.n_u + 1)

    def _weighted_apply(self, X: np.ndarray, shift=0.0) -> np.ndarray:
        """(M A - shift M) X: the flat stencil, less R^T E x_C."""
        wu = self.grid.u_mass
        c = 1.0 / self.grid.h_s ** 2
        # one dense BLAS product, although the matrix is tridiagonal: on the
        # README eps-0.1 field (3785 x 33, complex) it took 0.84-1.22 ms, and
        # each numpy three-term stencil tried 2.93-5.72 ms (min of 7 x 50
        # runs, one BLAS thread, 2-core Xeon host)
        Y = X @ (self.transverse + np.diag((2 * c - shift) * wu))
        Y[1:] -= (c * wu) * X[:-1]
        Y[:-1] -= (c * wu) * X[1:]
        C = self.core
        XC = X[C]
        Y[C] += (self.potential_s[C, None] * wu) * XC - (
            self.matrix.apply(XC.ravel())).reshape(XC.shape)
        return Y


def robin_bands(alpha_lower, alpha_upper, mass, h_u):
    """Bw's diagonal and off-diagonal: the weighted ghost-eliminated Robin
    matrix of the pair (alpha_lower at u = -d, alpha_upper at u = d) on a u
    grid of step h_u and trapezoid weights `mass`.

    The unweighted rows are (-1, 2, -1) / h_u^2 and, with the ghost node
    eliminated, (2 + 2 h_u alpha, -2) / h_u^2 at the ends; the half weight
    there makes Bw symmetric, every off-diagonal entry -1 / h_u^2."""
    diag = np.full(len(mass), 2.0)
    diag[0] = 2 + 2 * h_u * alpha_lower
    diag[-1] = 2 + 2 * h_u * alpha_upper
    return mass * diag / h_u ** 2, np.full(len(mass) - 1, -1 / h_u ** 2)


def robin_modes(alpha_lower, alpha_upper, n_u: int, h_u: float, count: int):
    """The `count` lowest discrete transverse modes of each Robin pair.

    For the pair (alpha_lower at u = -d, alpha_upper at u = d) mode phi
    solves Bw phi = lam W phi: W = diag(u_mass) and Bw the weighted
    ghost-eliminated Robin matrix of `robin_bands`, as `build_waveguide`
    holds it.  W^-1/2 Bw W^-1/2 is symmetric tridiagonal (Bw's diagonal
    over W_i, its off-diagonal over sqrt(W_i W_i+1)), and LAPACK dstemr
    (MRRR: Dhillon and Parlett 2004) gives its lowest eigenpairs; phi =
    W^-1/2 psi is then W-orthonormal.  lam is each phi's Rayleigh quotient
    in the energy form (sum of (phi_{i+1} - phi_i)^2 / h_u^2, plus alpha
    phi^2 / h_u at each end), second order in phi's error: dstemr's own
    eigenvalues are about eps_mach |T| off (2.3e-13 for alpha = 0 at n_u =
    32), which the threshold lam_n / delta^2 of `reduced_resolvent` would
    amplify.  The sign follows the continuum modes: even n positive at u =
    0, odd n increasing through u = 0.  A nonzero info or fewer pairs than
    asked raises RobinwgError.  As for any Jacobi matrix, mode n must
    change sign exactly n times, or BracketingError is raised.  Returns
    (lam, phi), shaped (pairs, count) and (pairs, count, n_u + 1).
    """
    lower, upper = np.broadcast_arrays(np.atleast_1d(alpha_lower),
                                       np.atleast_1d(alpha_upper))
    nu = n_u + 1
    mass = np.ones(nu)
    mass[[0, -1]] = 0.5
    root_w = np.sqrt(mass)
    phi = np.empty((len(lower), count, nu))
    for p, ends in enumerate(zip(lower, upper)):
        diag, off = robin_bands(*ends, mass, h_u)
        # dstemr overwrites e, whose last entry is its workspace
        m, w, v, info = lapack.dstemr(
            diag / mass, np.append(off / np.sqrt(mass[:-1] * mass[1:]), 0.0),
            2, 0.0, 0.0, 1, count)
        if info != 0:
            raise RobinwgError(f"transverse eigenproblem: dstemr info = {info}")
        if m < count:
            raise RobinwgError(f"transverse eigenproblem: dstemr returned "
                               f"{m} of {count} pairs")
        phi[p] = v[:, :count].T / root_w
    lam = ((np.sum(np.diff(phi) ** 2, axis=-1) / h_u ** 2
            + (lower[:, None] * phi[..., 0] ** 2
               + upper[:, None] * phi[..., -1] ** 2) / h_u)
           / (phi ** 2 @ root_w ** 2))
    even = np.arange(count) % 2 == 0
    key = np.where(even, phi[..., n_u // 2] + phi[..., (n_u + 1) // 2],
                   phi[..., (n_u + 2) // 2] - phi[..., (n_u - 1) // 2])
    phi *= np.where(key < 0, -1.0, 1.0)[..., None]
    bad = (_sign_changes(phi) != np.arange(count)).any(axis=1)
    if bad.any():
        raise BracketingError(
            f"{np.count_nonzero(bad)} of {len(bad)} transverse problems: "
            "mode oscillation count inconsistent with mode index")
    return lam, phi


@lru_cache(maxsize=8)
def flat_modes(alpha: float, n_u: int, h_u: float):
    """All n_u + 1 `robin_modes` of the flat pair (alpha, alpha), as (lam,
    phi) of shapes (n_u + 1,) and (n_u + 1, n_u + 1), read-only.  One
    dstemr call per (alpha, n_u, h_u) serves `build_waveguide` and every
    `ModeProjector` on that u grid, so the projector's flat modes are the
    operator's eigenvectors bit for bit, and so the exterior source of mode
    n is mode n alone."""
    lam, phi = (a[0] for a in robin_modes(alpha, alpha, n_u, h_u, n_u + 1))
    lam.flags.writeable = phi.flags.writeable = False
    return lam, phi


def core_columns(geometry: WaveguideGeometry, grid: Grid2D):
    """The core: the s-columns where eta or V_flat is nonzero, padded by one
    column each side for the midpoint fluxes (empty for a straight strip).

    `build_waveguide` and `ModeProjector` both take their core here, so the
    two are one slice.  Returns (core, g, V_flat) on the s interior, with g
    = sqrt(1 + 2 eps b) gamma(s/eps) and V_flat = -g^2 / (4 eps^2) the flat
    part of the potential."""
    eps, si = geometry.scaling.epsilon, grid.s_interior
    g = geometry.scaling.deformation_factor * geometry.profile.sample(si / eps)
    V = -g ** 2 / (4 * eps ** 2)
    curved = np.flatnonzero((geometry.eta(si) != 0) | (V != 0))
    core = (slice(max(curved[0] - 1, 0), min(curved[-1] + 2, len(si)))
            if len(curved) else slice(0, 0))
    return core, g, V


def build_waveguide(geometry: WaveguideGeometry, variant: str,
                    n_context: int, grid: Grid2D) -> DiscreteWaveguideOperator:
    """The operator as flat data and E on the core (without threshold shift).

    The core is `core_columns`'s, and the flat Robin matrix Bw is
    `robin_bands`'s, held dense.  The full variant needs gamma'': non-smooth
    profiles are rejected.  For gamma == 0 the core is empty: both variants
    are exactly the separable sum of the 1D Dirichlet Laplacian and the
    transverse Robin operator.  The flat eigenbasis is `flat_modes`: the
    eigenvalues, and wu-orthonormal columns Phi.
    """
    if variant not in (FULL, SIMPLIFIED):
        raise RobinwgError(f"unknown variant {variant!r}")
    if variant == FULL and not geometry.profile.is_smooth:
        raise ProfileError("full variant requires a smooth profile (gamma'')")
    if abs(grid.d - geometry.d) > 1e-14:
        raise RobinwgError("grid.d must match geometry.d")
    grid.check_mode_resolution(n_context)
    check_resolution(grid.h_s, geometry.scaling.epsilon, geometry.profile)

    sc = geometry.scaling
    eps, delta = sc.epsilon, sc.delta
    defo = sc.deformation_factor
    u = grid.u_points
    nu = grid.n_u + 1
    hs, hu = grid.h_s, grid.h_u
    wu = grid.u_mass
    alpha = geometry.alpha

    # the flat Robin matrix and its eigenbasis Phi, wu-orthonormal columns
    b_diag, b_off = robin_bands(alpha, alpha, wu, hu)
    Bw = np.diag(b_diag) + np.diag(b_off, 1) + np.diag(b_off, -1)
    lam, Phi = flat_modes(alpha, grid.n_u, hu)

    core, gscaled, Vs = core_columns(geometry, grid)
    s_core = grid.s_interior[core]

    # s-dependent Robin rows differ from the flat ones only on the diagonal
    a1, a2 = geometry.robin_coefficients(s_core)
    diag = np.zeros((len(s_core), nu))
    diag[:, 0] = (alpha - a2) / hu / delta ** 2      # weight 1/2 * 2/hu
    diag[:, -1] = (alpha - a1) / hu / delta ** 2
    off = np.zeros(max(diag.size - nu, 0))       # simplified: a = 1
    if variant == FULL:
        # conservative -d/ds a(s,u) d/ds, a = (1 + u eta)^-2, midpoint fluxes,
        # against the flat a = 1; the core's outer midpoints (and the
        # Dirichlet cap cells) lie in the flat region where a = 1
        s_all = grid.line.points[core.start:core.stop + 2]
        smid = 0.5 * (s_all[:-1] + s_all[1:])
        a_mid = 1.0 / (1.0 + np.outer(geometry.eta(smid), u)) ** 2
        aL, aR = a_mid[:-1, :], a_mid[1:, :]
        off = ((aR[:-1, :] - 1.0) * wu).ravel() / hs ** 2

        one = 1.0 + np.outer(geometry.eta(s_core), u)
        g2d = gscaled[core, None]
        g1 = defo * geometry.profile.deriv(s_core / eps)[:, None]
        g2 = defo * geometry.profile.deriv2(s_core / eps)[:, None]
        dr = delta / eps
        U = u[None, :]
        V = (-g2d ** 2 / (4 * one ** 2)
             + dr * U * g2 / (2 * one ** 3)
             - 1.25 * dr ** 2 * U ** 2 * g1 ** 2 / one ** 4) / eps ** 2
        diag += ((2.0 - aL - aR) / hs ** 2 + Vs[core, None] - V) * wu
    return DiscreteWaveguideOperator(geometry, grid, variant,
                                     CoreBands(diag.ravel(), off),
                                     Bw / delta ** 2, lam, Phi.T, Vs,
                                     core)


# ---------------------------------------------------------------------------
# transverse-mode projector
# ---------------------------------------------------------------------------

@dataclass
class ModeProjector:
    """Per-column transverse modes phi_n(alpha^eps(s), .) on the u grid.

    The modes are the operator's own: its flat eigenvectors (`flat_modes`),
    stored once as `flat`, and on the operator's core (`core_columns`, so
    `core` is `build_waveguide`'s) `core_modes`: `robin_modes` of each
    curved column's (a2(s), a1(s)), all from one call, which raises
    BracketingError unless mode n changes sign n times, and the flat modes
    on the core's other columns (its padding).  Scaled to unit norm in the
    operator's trapezoid u-mass times h_u (`quad`), they are orthonormal in
    it.  Curved modes take the sign that makes their inner product with the
    flat mode positive.
    """

    geometry: WaveguideGeometry
    grid: Grid2D
    n_max: int
    flat: np.ndarray = field(init=False)          # (n_max+1, n_u+1)
    core: slice = field(init=False)
    core_modes: np.ndarray = field(init=False)    # (n_max+1, core, n_u+1)
    quad: np.ndarray = field(init=False)

    def __post_init__(self):
        hu = self.grid.h_u
        self.quad = self.grid.u_mass * hu
        self.core = core_columns(self.geometry, self.grid)[0]
        s_core = self.grid.s_interior[self.core]
        curved = np.flatnonzero(self.geometry.eta(s_core) != 0.0)
        a1, a2 = self.geometry.robin_coefficients(s_core[curved])
        count = self.n_max + 1
        self.flat = flat_modes(self.geometry.alpha, self.grid.n_u,
                               hu)[1][:count] / np.sqrt(hu)
        self.core_modes = np.repeat(self.flat[:, None, :], len(s_core), 1)
        vals = (robin_modes(a2, a1, self.grid.n_u, hu, count)[1]
                / np.sqrt(hu)).transpose(1, 0, 2)
        flip = np.einsum("ncu,nu->nc", vals, self.flat) < 0
        self.core_modes[:, curved] = np.where(flip[..., None], -vals, vals)

    def synthesize(self, f_s: np.ndarray, n: int) -> np.ndarray:
        """F(s, u) = f(s) phi_n(alpha(s), u), for one f or a block of rows."""
        out = f_s[..., None] * self.flat[n]
        out[..., self.core, :] = f_s[..., self.core, None] * self.core_modes[n]
        return out

    def project(self, field: np.ndarray, m: int) -> np.ndarray:
        """Per-column inner product with phi_m."""
        out = (field * self.flat[m]) @ self.quad
        out[self.core] = (field[self.core] * self.core_modes[m]) @ self.quad
        return out


# ---------------------------------------------------------------------------
# reduced resolvent
# ---------------------------------------------------------------------------

def _core_system(op: DiscreteWaveguideOperator, projector: ModeProjector,
                 n: int, z, F: np.ndarray):
    """The core system K x_C = b_C of each row of the (rows, nsi) block F.

    Outside the core C (`op.core`) mode j of the flat transverse eigenbasis
    Phi is the free line at z_j = z - (lam_j - lam_n)/delta^2 with source
    c_j f, c = Phi^T W phi_n.  The projector's flat modes are Phi's own
    columns, scaled (`flat_modes`), so c is c_n e_n: only mode n, at z_n =
    z, has a particular solution, and one `exterior_solve` over its
    exterior nodes, a column per row, gives every row's U.  Every mode's
    Green column phi_j is the capped line's closed form (`green_columns`).
    Returns (ab, b, assemble, shift): the rows' common K = (M A - shift M)
    on C, written straight into LAPACK band storage (kl = ku = n_u + 1,
    s-major, K[i, j] at ab[2 (n_u + 1) + i - j, j]) as T's three diagonals
    plus (2c - shift + V_flat) W on each column, T = Bw/delta^2 and c =
    1/hs^2, with no T coupling across a column joint, then -c W on the
    +-(n_u + 1) diagonals, the exact Schur corners -c^2 (W Phi)
    diag(phi_j(edge)) (W Phi)^T on the edge columns' blocks, and less E;
    b_C, a column per row: M F on C, from the projector's `core_modes` (its
    core is the operator's), plus c W Phi_n U of the exterior column next
    to each edge; (p, x_C) -> row p's whole-grid field, each exterior
    column Phi (U e_n + c y_j phi_j) with y_j from C's edge column; and
    shift = lam_n/delta^2 + z.  Across the exteriors the call holds U, one
    node value per row, and phi, one field's worth; M F is formed on C
    alone.
    """
    nsi, nu = op.shape
    wu, Phi, lam = op.grid.u_mass, op.flat_eigvecs, op.flat_eigvals
    hs, delta = op.grid.h_s, op.geometry.scaling.delta
    c = 1.0 / hs ** 2
    shift = lam[n] / delta ** 2 + z
    zj = z - (lam - lam[n]) / delta ** 2
    C, k = op.core, op.core.stop - op.core.start
    cn = (projector.flat[n] * wu) @ Phi[:, n]
    U_l, U_r = exterior_solve(hs, z, cn * F[:, :C.start], cn * F[:, C.stop:],
                              0.0)
    # Dirichlet caps; a straight strip has no core edge for them to feed
    phi_l, phi_r = ((green_columns(hs, zj, C.start, False)[:, ::-1],
                     green_columns(hs, zj, nsi - C.stop, False))
                    if k else (None, None))

    def exterior(U, y, phi):
        V = y[:, None] * phi                  # (modes, nodes), c y_j phi_j
        V[n] += U
        # Phi V on V's real and imaginary parts side by side: one real
        # product, not a complex one with Phi made complex
        return (Phi @ V.view(float)).view(complex).T

    def assemble(p, xc):
        if not k:             # a straight strip: mode n's line alone
            return np.outer(U_r[p], Phi[:, n])
        y = c * (xc[[0, -1]] * wu) @ Phi
        return np.concatenate([exterior(U_l[p], y[0], phi_l), xc,
                               exterior(U_r[p], y[1], phi_r)])

    # K's band rows: offset j - i at ab[2 nu - (j - i)], column j; Fortran
    # order, so zgbsv factors it in place rather than in an f2py copy
    ab = np.zeros((3 * nu + 1, k * nu), dtype=complex, order="F")
    T = op.transverse
    ab[2 * nu] = (np.diagonal(T) + (2 * c - shift + op.potential_s[C, None])
                  * wu).ravel()
    # T couples u-neighbours within a column, not across a column joint
    ab[2 * nu - 1].reshape(-1, nu)[:, 1:] = np.diagonal(T, 1)
    ab[2 * nu + 1].reshape(-1, nu)[:, :-1] = np.diagonal(T, -1)
    ab[nu, nu:] = ab[3 * nu, :-nu] = -c * np.tile(wu, k)[nu:]
    WPhi = wu[:, None] * Phi
    # M F on C: the projector's core is the operator's
    b = F[:, C, None] * projector.core_modes[n] * wu
    # each exterior's Schur corner in K's edge block, and its particular
    # solution in b
    iu = np.arange(nu)
    band = 2 * nu + iu[:, None] - iu
    if C.start:
        ab[band, iu] -= c * c * (WPhi * phi_l[:, -1]) @ WPhi.T
        b[:, 0] += np.outer(U_l[:, -1], c * WPhi[:, n])
    if k and C.stop < nsi:
        ab[band, (k - 1) * nu + iu] -= c * c * (WPhi * phi_r[:, 0]) @ WPhi.T
        b[:, -1] += np.outer(U_r[:, 0], c * WPhi[:, n])
    E = op.matrix
    ab[2 * nu] -= E.diag
    ab[nu, nu:] -= E.off
    ab[3 * nu, :-nu] -= E.off
    return ab, b.reshape(len(F), -1).T, assemble, shift


def reduced_resolvent(op: DiscreteWaveguideOperator, projector: ModeProjector,
                      m: int, n: int, z, f_s: np.ndarray):
    """g(s) = <phi_m, (Op - mu_n/delta^2 - z)^{-1} f phi_n> per column.

    f is one row on the s interior or a (rows, nsi) block, g of its shape;
    a projector built for another geometry or grid than op's, or an f that
    is not finite, raises RobinwgError before any work.  mu_n is the
    discrete operator's flat transverse threshold (the continuum value would
    leave an O(h_u^2)/delta^2 drift).  The rows share one
    `_core_system` and one banded LU (LAPACK zgbsv, a column per row; a
    nonzero info raises RobinwgError), each row bit for bit its own call.
    Each row's field x is assembled once, and one matrix-free apply gives
    its residual R = M F - (M A - shift M) x for two gates on the row's own
    norms.  With a = 5/hs^2 + |Bw|_inf/delta^2 + |E|_inf + max|V_flat| +
    |shift|, which bounds the operator and the corner terms, C's rows R_C
    (the core system's residual) must pass |R_C| <= 50 eps_mach a |x_C|.
    The other rows hold only the rounding of the exterior solves and of the
    length-(n_u + 1) transforms, so |R| <= |R_C| + 50 (n_u + 1) eps_mach a |x|
    is required; both gates read "not below", so a NaN fails.  The band
    storage goes after zgbsv; the call then holds mode n's exterior
    solution (one node value per row), every mode's Green column (one
    whole-grid field's worth in all) and, per row in turn, that row's
    field and its residual, formed in place from M F (R = M F, R *= W,
    R -= (M A - shift M) x); of the fields it keeps the first row's only.
    Returns
    (g, {"iterations": 0, "field": x}), x the first (or only) row's field.
    """
    if projector.geometry != op.geometry or projector.grid != op.grid:
        raise RobinwgError("the projector's geometry and grid must be the "
                           "operator's")
    if complex(z).imag == 0:
        raise RobinwgError("reduced resolvent needs Im z != 0")
    f = np.asarray(f_s, dtype=complex)
    nsi, nu = op.shape
    if f.shape[-1:] != (nsi,) or f.ndim > 2 or not np.isfinite(f).all():
        raise RobinwgError("reduced resolvent needs a finite f on the s interior")
    F = np.atleast_2d(f)
    ab, b, assemble, shift = _core_system(op, projector, n, z, F)
    C, E, eps_mach = op.core, op.matrix, np.finfo(float).eps
    E_abs = CoreBands(np.abs(E.diag), np.abs(E.off))
    a = (5 / op.grid.h_s ** 2 + np.abs(op.transverse).sum(1).max()
         + abs(shift) + E_abs.apply(np.ones(len(E.diag))).max(initial=0.0)
         + np.abs(op.potential_s).max())
    if len(b):     # a straight strip has no core
        _, _, b, info = lapack.zgbsv(nu, nu, ab, b, overwrite_ab=1,
                                     overwrite_b=1)
        if info != 0:
            raise RobinwgError(f"core band solve: zgbsv info = {info}")
    ab = None          # the band storage goes before the rows
    G = []
    for p, xc in enumerate(b.T.reshape(len(F), -1, nu)):
        x = assemble(p, xc)
        # R = M F - (M A - shift M) x, formed in place
        R = projector.synthesize(F[p], n)
        R *= op.grid.u_mass
        R -= op._weighted_apply(x, shift)
        r = np.linalg.norm(R[C])
        bound = 50 * eps_mach * a * np.linalg.norm(xc)
        if not r <= bound:
            raise RobinwgError(f"core residual {r:.3g} above {bound:.3g}")
        res = np.linalg.norm(R)
        bound = r + 50 * nu * eps_mach * a * np.linalg.norm(x)
        if not res <= bound:
            raise RobinwgError(f"assembled field residual {res:.3g} above "
                               f"{bound:.3g}")
        G.append(projector.project(x, m))
        if not p:
            field = x
    G = G[0] if f.ndim == 1 else np.array(G)
    return G, {"iterations": 0, "field": field}


# ---------------------------------------------------------------------------
# theorem verification driver
# ---------------------------------------------------------------------------

def resolve_n_max(n: int, n_max: int | None) -> int:
    """The highest mode a check projects onto: n_max, by default n + 1."""
    n_max = n + 1 if n_max is None else n_max
    if not 0 <= n <= n_max:
        raise RobinwgError(f"n_max must be >= n >= 0, got n = {n}, "
                           f"n_max = {n_max}")
    return n_max


def theorem_check(geometry: WaveguideGeometry, n: int, z, probes, eps_list,
                  n_max: int = None, n_u: int = 32, variant: str = FULL,
                  error_threshold: float = 0.05) -> ConvergenceReport:
    """Reduced-resolvent convergence of the 2D operator against the graph limit.

    The 2D backend of `report.run_study`: each eps gets `strip_grid`'s
    grid, the given geometry at that eps (its a or delta_ratio, and b,
    kept), its operator and projector, and r_{n,n} of the whole probe block
    from one `reduced_resolvent` call, whose rows run_study compares with
    the limit predicted by the resonance analysis of beta_n gamma^2, at
    the 1D b of 2b: the operator scales gamma by sqrt(1 + 2 eps b).  The
    operator and projector go with their eps.  A probe nonzero at the
    Dirichlet caps s = +-`s_half_length(z)` raises GridResolutionError
    before any solve.  The transmission is measured against the discrete
    free line resolvent on the run's grid.  The first probe's 2D field
    gives the off-diagonal norms ||r_{m,n} f|| / ||f|| for every other
    m <= n_max, and at the last eps rides on the report as `probe_field`;
    each eps's field goes before the next eps solves.
    """
    n_max = resolve_n_max(n, n_max)
    sc = geometry.scaling
    sc.require_convergence_regime()
    L = s_half_length(z)
    for probe in [probes] if callable(probes) else probes:
        if np.any(probe(np.array([-L, L]))):
            raise GridResolutionError("a probe is nonzero at the strip's "
                                      f"Dirichlet caps s = +-{L!r}")

    beta_n = perturbation_coefficients(geometry.alpha, geometry.d, n).beta
    predicted, alt = predicted_limit(geometry.profile, beta_n, 2 * sc.b)

    offdiag = {m: [] for m in range(n_max + 1) if m != n}
    field = None

    def grid_at(eps):
        grid = strip_grid(geometry.profile, eps, z, n_u, geometry.d)
        return grid, grid.s_interior

    def solve_eps(grid, eps, F):
        """p -> row p of r_{n,n} F at eps; sets `field` to probe 0's."""
        nonlocal field
        field = None              # the last eps's field goes first
        geo = replace(geometry, scaling=replace(sc, epsilon=eps))
        op = build_waveguide(geo, variant, n_max, grid)
        proj = ModeProjector(geo, grid, n_max)
        G, info = reduced_resolvent(op, proj, n, n, z, F)
        # the first probe's 2D field projects onto every other m
        x, s = info["field"], grid.s_interior
        nf = np.sqrt(np.trapezoid(np.abs(F[0]) ** 2, s))
        for m in offdiag:
            offdiag[m].append(float(np.sqrt(np.trapezoid(
                np.abs(proj.project(x, m)) ** 2, s)) / nf))
        field = (s, grid.u_points, x)
        return G.__getitem__

    def solve(grid, eps_run, F):
        return [solve_eps(grid, eps, F) for eps in eps_run]

    def free_line(grid, fs):
        """The strip's discrete free line resolvent: an empty core's exterior."""
        U, _ = exterior_solve(grid.h_s, complex(z), fs[None], fs[None, :0],
                              0.0)
        return U[0]

    report = run_study(
        predicted, alt, z, probes, eps_list, (grid_at, solve), error_threshold,
        free_line,
        notes=[f"variant={variant}; delta/eps fixed at "
               f"{sc.delta / sc.epsilon:.4g} (desk-scale protocol)"])
    report.offdiagonal = offdiag
    report.probe_field = field
    return report
