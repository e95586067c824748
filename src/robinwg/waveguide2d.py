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
the operator is the flat separable one, P^-1 = kron(D2s + diag(V_flat), W)
+ kron(I, Bw)/delta^2, with V_flat the flat part of the potential.  Only
the core correction E = P^-1 - M A is assembled; P^-1 is applied
matrix-free (second differences by slicing, one product with Bw) and
inverted exactly by the separable preconditioner, so no whole-grid matrix
exists.  The reduced resolvent projects onto transverse modes computed per
s-column by the `transverse` module (the curved columns in one lane-wise
solve), after subtracting the *discrete* transverse threshold of the flat
columns so the renormalised problem is delta-independent at machine level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh, lapack

from .effective_1d import (Discrete1DOperator, check_resolution,
                           resolvent_solve, s_grid)
from .errors import (BracketingError, GridResolutionError, ProfileError,
                     RobinwgError, SolverConvergenceError)
from .geometry import WaveguideGeometry
from .report import ConvergenceReport, predicted_limit, run_study
from .transverse import (_asymmetric_solve, _mode_values, _sign_changes,
                         beta_coefficient, symmetric_spectrum)

FULL = "full"
SIMPLIFIED = "simplified"

# Gregory end-corrected trapezoid weights, O(h^6); needs >= 14 points.
_GREGORY6 = np.array([95.0 / 288, 317.0 / 240, 23.0 / 30, 793.0 / 720,
                      157.0 / 160])


def gregory_weights(n_points: int, h: float) -> np.ndarray:
    """High-order uniform-grid quadrature weights (end-corrected trapezoid)."""
    if n_points < 2 * len(_GREGORY6) + 4:
        w = np.full(n_points, h)
        w[0] = w[-1] = h / 2
        return w
    w = np.ones(n_points)
    w[:5] = _GREGORY6
    w[-5:] = _GREGORY6[::-1]
    return w * h


@dataclass(frozen=True)
class Grid2D:
    """Tensor grid: s uniform on [-L, L] (Dirichlet caps), u on [-d, d]."""

    s_half_length: float
    n_s: int               # s cells, even so s = 0 is a node
    n_u: int               # u cells
    d: float

    def __post_init__(self):
        if self.n_s % 2 or self.n_s < 8:
            raise GridResolutionError("n_s must be even and >= 8")
        if self.n_u < 16:
            raise GridResolutionError("n_u must be >= 16")
        if self.s_half_length <= 0 or self.d <= 0:
            raise GridResolutionError("lengths must be positive")

    @property
    def h_s(self):
        return 2 * self.s_half_length / self.n_s

    @property
    def h_u(self):
        return 2 * self.d / self.n_u

    @property
    def s_points(self):
        return np.linspace(-self.s_half_length, self.s_half_length, self.n_s + 1)

    @property
    def s_interior(self):
        return self.s_points[1:-1]

    @property
    def u_points(self):
        return np.linspace(-self.d, self.d, self.n_u + 1)

    @property
    def u_mass(self):
        w = np.ones(self.n_u + 1)
        w[0] = w[-1] = 0.5
        return w

    def check_mode_resolution(self, n_max: int):
        # >= 8 points per half wavelength of the highest projected mode,
        # whose wavenumber is below (n_max + 1) pi / (2 d)
        p = (n_max + 1) * np.pi / (2 * self.d)
        if (np.pi / p) / self.h_u < 8 - 1e-12:
            raise GridResolutionError(
                f"n_u = {self.n_u} under-resolves transverse mode {n_max}")


@dataclass
class DiscreteWaveguideOperator:
    """Weighted operator M A = P^-1 - R^T E R on the (s interior) x u grid.

    R restricts to the core columns (see the module docstring)."""

    geometry: WaveguideGeometry
    grid: Grid2D
    variant: str
    matrix: sp.csr_matrix          # E = (P^-1 - M A) on the core columns
    transverse: np.ndarray         # Bw / delta^2, the weighted flat u-operator
    flat_eigvals: np.ndarray       # discrete flat transverse eigenvalues
    flat_eigvecs: np.ndarray       # mass-orthonormal columns
    potential_s: np.ndarray        # flat part of the potential, per s node
    core: slice                    # s-columns outside which A equals P^-1

    @property
    def shape(self):
        return (len(self.grid.s_interior), self.grid.n_u + 1)

    def apply(self, field: np.ndarray) -> np.ndarray:
        """Unweighted operator action on a (n_s-1, n_u+1) field."""
        return self._weighted_apply(field) / self.grid.u_mass

    def _weighted_apply(self, X: np.ndarray, shift=0.0) -> np.ndarray:
        """(M A - shift M) X: the flat stencil, less R^T E x_C."""
        wu = self.grid.u_mass
        c = 1.0 / self.grid.h_s ** 2
        Y = X @ (self.transverse + np.diag((2 * c - shift) * wu))
        Y[1:] -= (c * wu) * X[:-1]
        Y[:-1] -= (c * wu) * X[1:]
        C = self.core
        XC = X[C]
        Y[C] += (self.potential_s[C, None] * wu) * XC - (
            self.matrix @ XC.ravel()).reshape(XC.shape)
        return Y

    def transverse_threshold(self, n: int) -> float:
        """Discrete flat threshold subtracted by the renormalisation."""
        return float(self.flat_eigvals[n])


def build_waveguide(geometry: WaveguideGeometry, variant: str,
                    n_context: int, grid: Grid2D) -> DiscreteWaveguideOperator:
    """The operator as flat data and E on the core (without threshold shift).

    The core is the s-columns where eta or V_flat is nonzero, padded by one
    column each side for the midpoint fluxes.  The full variant needs
    gamma'': non-smooth profiles are rejected.  For gamma == 0 the core is
    empty: both variants are exactly the separable sum of the 1D Dirichlet
    Laplacian and the transverse Robin operator.
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
    si = grid.s_interior
    u = grid.u_points
    nsi, nu = len(si), grid.n_u + 1
    hs, hu = grid.h_s, grid.h_u
    wu = grid.u_mass
    alpha = geometry.alpha

    # ghost-eliminated flat Robin matrix, weighted; Phi is wu-orthonormal
    B = 2 * np.eye(nu) - np.eye(nu, k=1) - np.eye(nu, k=-1)
    B[0, 0] = B[-1, -1] = 2 + 2 * hu * alpha
    B[0, 1] = B[-1, -2] = -2
    Bw = wu[:, None] * B / hu ** 2
    lam, Phi = eigh(Bw, np.diag(wu))

    gscaled = defo * geometry.profile.sample(si / eps)   # sqrt(1+2 eps b) gamma(s/eps)
    Vs = -gscaled ** 2 / (4 * eps ** 2)    # flat part of the potential
    curved = np.flatnonzero((geometry.eta(si) != 0) | (Vs != 0))
    core = (slice(max(curved[0] - 1, 0), min(curved[-1] + 2, nsi))
            if len(curved) else slice(0, 0))
    s_core = si[core]

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
        s_all = grid.s_points[core.start:core.stop + 2]
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
    E = (sp.diags([off, diag.ravel(), off], [-nu, 0, nu], format="csr")
         if diag.size else sp.csr_matrix((0, 0)))
    return DiscreteWaveguideOperator(geometry, grid, variant, E, Bw / delta ** 2,
                                     lam, Phi, Vs, core)


# ---------------------------------------------------------------------------
# transverse-mode projector
# ---------------------------------------------------------------------------

@dataclass
class ModeProjector:
    """Per-column transverse modes phi_n(alpha^eps(s), .) on the u grid.

    Flat columns (eta = 0) share the symmetric modes `flat_modes` (solved
    here unless given), stored once; the columns from the first to the last
    curved one (`core`) keep their own, from one lane-wise solve.  Gregory
    end-corrected weights integrate sampled products to ~1e-9.  A Sturm
    count guards the lane-wise solve: sampled on the u grid, curved mode n
    must change sign exactly n times, or BracketingError is raised (a
    missed root shifts the mode indices).
    """

    geometry: WaveguideGeometry
    grid: Grid2D
    n_max: int
    flat_modes: list | None = None
    flat: np.ndarray = field(init=False)          # (n_max+1, n_u+1)
    core: slice = field(init=False)
    core_modes: np.ndarray = field(init=False)    # (n_max+1, core, n_u+1)
    quad: np.ndarray = field(init=False)

    def __post_init__(self):
        si = self.grid.s_interior
        u = self.grid.u_points
        self.quad = gregory_weights(len(u), self.grid.h_u)
        modes = self.flat_modes or symmetric_spectrum(
            self.geometry.alpha, self.grid.d, self.n_max)
        self.flat = np.array([m(u) for m in modes])
        curved = np.flatnonzero(self.geometry.eta(si) != 0.0)
        self.core = (slice(curved[0], curved[-1] + 1) if len(curved)
                     else slice(0, 0))
        self.core_modes = np.repeat(self.flat[:, None, :], len(si[self.core]), 1)
        branch, k, _, A, B = _asymmetric_solve(
            *self.geometry.robin_coefficients(si[curved]), self.grid.d, self.n_max)
        vals = _mode_values(branch.T, k.T, A.T, B.T, u)
        bad = _sign_changes(vals) != np.arange(self.n_max + 1)[:, None]
        if bad.any():
            raise BracketingError(
                f"{np.count_nonzero(bad.any(0))} of {len(curved)} curved "
                "columns: mode oscillation count inconsistent with mode index")
        # fix the sign to follow the flat modes continuously
        flip = np.einsum("ncu,nu->nc", vals, self.flat) < 0
        self.core_modes[:, curved - self.core.start] = np.where(
            flip[..., None], -vals, vals)

    def synthesize(self, f_s: np.ndarray, n: int) -> np.ndarray:
        """F(s, u) = f(s) phi_n(alpha(s), u)."""
        out = f_s[:, None] * self.flat[n]
        out[self.core] = f_s[self.core, None] * self.core_modes[n]
        return out

    def project(self, field: np.ndarray, m: int) -> np.ndarray:
        """Per-column inner product with phi_m."""
        out = (field * self.flat[m]) @ self.quad
        out[self.core] = (field[self.core] * self.core_modes[m]) @ self.quad
        return out

    def gram_deviation(self) -> float:
        """Worst per-column deviation of the mode Gram matrix from identity."""
        cols = np.concatenate([self.flat[:, None, :], self.core_modes], axis=1)
        G = np.einsum("mcu,u,ncu->cmn", cols, self.quad, cols)
        return float(np.max(np.abs(G - np.eye(self.n_max + 1))))


# ---------------------------------------------------------------------------
# reduced resolvent
# ---------------------------------------------------------------------------

def _separable_preconditioner(op: DiscreteWaveguideOperator, n: int, z,
                              cols: slice = slice(None)):
    """Inverse of the flat separable operator on the s-columns `cols`.

    Per transverse eigenmode j the s-problem is tridiagonal with diagonal
    2/hs^2 + V_flat(s) + shift_j, shift_j = (lam_j - lam_n)/delta^2 - z; exact
    for gamma == 0.  On a column range the result is the restriction of the
    full-grid inverse: the m flat columns beyond each end (V_flat = 0 there)
    are eliminated exactly by subtracting their Schur term c^2/d_m from that
    end's diagonal, c = 1/hs^2 and d_m the ratio of the exterior's last two
    leading determinants.  With r1, r2 = c^2/r1 the roots of
    r^2 - (2c + shift_j) r + c^2, |r1| >= |r2| and q = r2/r1, the term is
    r2 (1 - q^m)/(1 - q^(m+1)), zero for m = 0.
    The mode systems are laid end to end as one tridiagonal with zero
    couplings at the block joints, factored once by LAPACK gttrf; each apply
    is one gttrs between the two transverse transforms.
    """
    nsi, nu = op.shape
    i0, i1, _ = cols.indices(nsi)
    k = i1 - i0
    hs = op.grid.h_s
    c = 1.0 / hs ** 2
    delta = op.geometry.scaling.delta
    lam = op.flat_eigvals
    Phi = op.flat_eigvecs
    shifts = (lam - lam[n]) / delta ** 2 - z
    diag = (2.0 / hs ** 2 + op.potential_s[i0:i1])[None, :] + shifts[:, None]
    root = np.sqrt(shifts * (shifts + 4 * c))     # of (2c + shift)^2 - 4c^2
    rp, rm = (2 * c + shifts + root) / 2, (2 * c + shifts - root) / 2
    r1 = np.where(np.abs(rp) >= np.abs(rm), rp, rm)
    r2 = c ** 2 / r1
    q = r2 / r1
    diag[:, 0] -= r2 * (1 - q ** i0) / (1 - q ** (i0 + 1))
    diag[:, -1] -= r2 * (1 - q ** (nsi - i1)) / (1 - q ** (nsi - i1 + 1))
    off = np.full(nu * k - 1, -c, dtype=complex)
    off[k - 1::k] = 0.0
    dl, d, du, du2, ipiv, info = lapack.zgttrf(
        off.copy(), diag.ravel(), off,
        overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info != 0:
        raise RobinwgError(f"separable preconditioner: zgttrf info = {info}")

    def apply(r):
        # the transformed residual, formed mode-major
        b = (Phi.T @ np.asarray(r, dtype=complex).reshape(k, nu).T
             ).reshape(-1, 1)
        x, info = lapack.zgttrs(dl, d, du, du2, ipiv, b, overwrite_b=1)
        if info != 0:
            raise RobinwgError(f"separable preconditioner: zgttrs info = {info}")
        return (x.reshape(nu, k).T @ Phi.T).ravel()

    return apply


def reduced_resolvent(op: DiscreteWaveguideOperator, projector: ModeProjector,
                      m: int, n: int, z, f_s: np.ndarray,
                      rtol: float = 1e-9, maxiter: int = 400):
    """g(s) = <phi_m, (Op - mu_n/delta^2 - z)^{-1} f phi_n> per column.

    mu_n is the flat transverse threshold of the discrete operator
    (subtracting the continuum value would leave an O(h_u^2)/delta^2 drift).
    A = P^-1 - R^T E R, with P the flat separable solve, R the restriction
    to the curved core C (`op.core`) and E = `op.matrix`, so
    A x = b is x = P (b + R^T E x_C) with x_C solving
    (I - P_CC E) x_C = (P b)_C, P_CC the restriction of P to C.  GMRES runs
    on that core system only; the flat exterior is eliminated exactly, and a
    straight strip (empty core) is x = P b.  Each sweep then recomputes the
    preconditioned residual P (rhs - A x), the quantity judged, and solves
    for its correction the same way, until it is within rtol of |P rhs|, it
    stops falling, or the GMRES iterations reach maxiter; the sweeps correct
    what the computed P misses of A (applied matrix-free).  Above rtol the
    residual must still be within 10 rtol.  Returns (g, info dict); raises
    SolverConvergenceError with the residual history when it is not.
    """
    if complex(z).imag == 0:
        raise RobinwgError("reduced resolvent needs Im z != 0")
    nsi, nu = op.shape
    delta = op.geometry.scaling.delta
    shift = op.transverse_threshold(n) / delta ** 2 + z
    rhs = (projector.synthesize(np.asarray(f_s, dtype=complex), n)
           * op.grid.u_mass).ravel()
    prec = _separable_preconditioner(op, n, z)
    C = slice(op.core.start * nu, op.core.stop * nu)
    E = op.matrix
    if E.shape[0]:
        prec_core = _separable_preconditioner(op, n, z, op.core)
        K = spla.LinearOperator(E.shape, dtype=complex,
                                matvec=lambda v: v - prec_core(E @ v))
    history = []
    x = np.zeros(len(rhs), dtype=complex)
    r = rhs.copy()
    pr = prec(r)
    scale = np.linalg.norm(pr)
    pr_res = np.inf
    while True:
        if E.shape[0]:
            xc, _ = spla.gmres(
                K, pr[C], rtol=rtol, atol=0.0, restart=80,
                maxiter=max(1, (maxiter - len(history)) // 80),
                callback=lambda res: history.append(float(res)),
                callback_type="pr_norm")
            r[C] += E @ xc                  # r + R^T E x_C
        x += prec(r)
        r = rhs - op._weighted_apply(x.reshape(nsi, nu), shift).ravel()
        pr = prec(r)
        last, pr_res = pr_res, np.linalg.norm(pr) / scale
        if not rtol < pr_res < last or len(history) >= maxiter:
            break
    # judged as "not below": a NaN residual fails
    if not pr_res <= 10 * rtol:
        raise SolverConvergenceError(
            f"GMRES stalled at preconditioned residual {pr_res:.3g}", history)
    true_res = np.linalg.norm(r) / np.linalg.norm(rhs)
    G = x.reshape(nsi, nu)
    out = projector.project(G, m)
    info = {"iterations": len(history), "preconditioned_residual": float(pr_res),
            "raw_residual": float(true_res), "field": G}
    return out, info


# ---------------------------------------------------------------------------
# theorem verification driver
# ---------------------------------------------------------------------------

def theorem_check(geometry: WaveguideGeometry, n: int, z, probes, eps_list,
                  n_max: int = None, n_u: int = 32, variant: str = FULL,
                  error_threshold: float = 0.05) -> ConvergenceReport:
    """Reduced-resolvent convergence of the 2D operator against the graph limit.

    The 2D backend of `report.run_study`: for each eps the geometry is
    rebuilt with the same delta/eps ratio and b, the operator built and
    r_{n,n} compared with the limit predicted by the resonance analysis of
    beta_n gamma^2, one `reduced_resolvent` (GMRES) solve per row of the
    probe block; the transmission is measured against the discrete free
    line resolvent on the same s grid.  Off-diagonal norms ||r_{m,n} f|| of
    the first probe are recorded for every other m <= n_max, and its 2D
    field at the last eps rides on the report as `probe_field`.
    """
    if n_max is None:
        n_max = max(n + 1, 1)
    if not 0 <= n <= n_max:
        raise RobinwgError(f"need 0 <= n <= n_max, got n = {n}, n_max = {n_max}")
    sc = geometry.scaling
    if sc.delta_ratio is None:
        sc.require_convergence_regime()

    flat = symmetric_spectrum(geometry.alpha, geometry.d, n_max)
    mu_n = flat[n].eigenvalue
    beta_n = beta_coefficient(geometry.alpha, mu_n, geometry.d)
    predicted, alt = predicted_limit(geometry.profile, beta_n, sc.b)

    offdiag = {m: [] for m in range(n_max + 1) if m != n}
    last = {}

    def solver(eps):
        scaling = type(sc)(epsilon=eps, a=sc.a, b=sc.b,
                           delta_ratio=sc.delta / sc.epsilon
                           if sc.delta_ratio is not None else None)
        geo = WaveguideGeometry(geometry.profile, geometry.d, scaling,
                                geometry.alpha)
        line = s_grid(geometry.profile, eps, z, 12.0)
        grid = Grid2D(line.half_length, line.n_cells, n_u, geometry.d)
        op = build_waveguide(geo, variant, n_max, grid)
        proj = ModeProjector(geo, grid, n_max, flat)
        last.update(line=line, u=grid.u_points, proj=proj)

        def solve(F):
            # only the first row's info (and 2D field) is kept
            G = np.empty(F.shape, dtype=complex)
            G[0], info = reduced_resolvent(op, proj, n, n, z, F[0])
            for i in range(1, len(F)):
                G[i] = reduced_resolvent(op, proj, n, n, z, F[i])[0]
            return G, info
        return grid.s_interior, solve

    def offdiagonal_norms(eps, s, fs, nf, g, info):
        # the 2D field from the same solve projects onto every m
        last["field"] = (s, last["u"], info["field"])
        for m in offdiag:
            gm = last["proj"].project(info["field"], m)
            offdiag[m].append(float(np.sqrt(np.trapezoid(
                np.abs(gm) ** 2, s)) / nf))

    def free_line(s, fs):
        """Discrete free 1D resolvent on the interior nodes of this eps's line."""
        line = last["line"]
        full = np.zeros(line.n_cells + 1, dtype=complex)
        full[1:-1] = fs
        return resolvent_solve(Discrete1DOperator(line, np.zeros(len(full))),
                               z, full)[1:-1]

    report = run_study(
        predicted, alt, z, probes, eps_list, solver, error_threshold, free_line,
        on_first=offdiagonal_norms,
        notes=[f"variant={variant}; delta/eps fixed at "
               f"{sc.delta / sc.epsilon:.4g} (desk-scale protocol)"])
    report.offdiagonal = offdiag
    report.probe_field = last["field"]
    return report
