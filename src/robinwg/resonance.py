"""Zero-energy resonance analysis for h = -d^2/ds^2 + v, compact-support v.

A zero-energy resonance is a bounded, non-square-integrable solution of
h f = 0.  With left data f = 1, f' = 0 the solution is constant to the left
of the support; it is bounded to the right iff the outgoing derivative
D = f'(right edge) vanishes.  At a resonance the asymptotic constants are
(c_-, c_+) ~ (1, f(right edge)) up to the normalisation c_-^2 + c_+^2 = 1,
and the deformation coupling per unit b is the integral of v f_r^2.

Every zero-energy solve is a spectral integration on Chebyshev panels
(Greengard, SIAM J. Numer. Anal. 28, 1991; `_march`), on numpy alone;
scipy's `solve_ivp` is the oracle in the tests only.  A coupling scan
brackets its roots by a lattice count of resonances (`_lattice_counts`),
which solves no ODE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import RobinwgError
from .geometry import CurvatureProfile
from .transverse import _brent_lanes

DEFAULT_TOL_D = 1e-9
_ROOT_TOL = 1e-11   # |D| a refined root must be below
_LATTICE_CELLS = 500
_N = 32             # the Chebyshev degree of every panel
_TAIL = 4           # the trailing coefficients a panel's gate reads
_GATE = 100.0       # the gate, in units of eps_mach (see `_march`)
_MIN_WIDTH = 1e-10  # the narrowest panel, relative to the support width


@dataclass(frozen=True)
class Potential1D:
    """Compactly supported potential v on `support`, zero outside it.

    `knots` are interior points where v is only piecewise smooth; the
    zero-energy solve puts a panel boundary there.
    """

    func: Callable
    support: tuple[float, float]
    knots: tuple = ()

    @classmethod
    def from_callable(cls, func, support, knots=()):
        """v = `func` on `support`, with panel boundaries at `knots`.

        The zero-energy solve calls `func` on arrays of interior Chebyshev
        points of each panel, never at a panel end, so a jump of v on a
        knot or a support edge is never evaluated.  A jump elsewhere makes
        the solve bisect towards it until it converges or raises
        RobinwgError: give it as a knot.
        """
        lo, hi = support
        if not hi > lo:
            raise RobinwgError("empty potential support")
        # the panels run forward between the knots
        edges = (lo, *knots, hi)
        if not all(a < b for a, b in zip(edges, edges[1:])):
            raise RobinwgError(f"knots {tuple(knots)!r} must increase "
                               f"strictly inside the support {support!r}")
        return cls(func, (float(lo), float(hi)), tuple(knots))

    @classmethod
    def from_profile(cls, profile: CurvatureProfile, beta: float) -> "Potential1D":
        """v = beta * gamma^2, the effective longitudinal potential."""
        return cls.from_callable(lambda s: beta * profile.sample(s) ** 2,
                                 profile.support, profile.knots)

    @classmethod
    def zero(cls, support=(-1.0, 1.0)) -> "Potential1D":
        return cls(lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                   support)

    def scaled(self, eps: float) -> "Potential1D":
        """v_eps(s) = eps^-2 v(s/eps); the zero-energy problem is covariant."""
        lo, hi = self.support
        fn = lambda s: self.func(np.asarray(s) / eps) / eps ** 2
        return Potential1D(fn, (lo * eps, hi * eps),
                           tuple(k * eps for k in self.knots))

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        lo, hi = self.support
        out = np.zeros_like(s)
        m = (s >= lo) & (s <= hi)
        if np.any(m):
            out[m] = self.func(s[m])
        return out


@dataclass(frozen=True)
class ZeroEnergyTrace:
    """Left-normalised zero-energy solution across the support."""

    mismatch: float          # D = f'(right edge)
    f_right: float
    sup_f: float
    integral_v_f2: float     # int v f^2 over the support (f left-normalised)
    s: np.ndarray
    f: np.ndarray
    fprime: np.ndarray


@dataclass(frozen=True)
class ResonanceResult:
    resonant: bool
    mismatch: float
    tol: float
    c_minus: float | None = None
    c_plus: float | None = None
    b_hat_per_b: float | None = None
    s: np.ndarray | None = None
    f_r: np.ndarray | None = None

    def to_dict(self):
        out = {
            "resonant": bool(self.resonant),
            "mismatch": float(self.mismatch),
            "tol": float(self.tol),
            "c_minus": None if self.c_minus is None else float(self.c_minus),
            "c_plus": None if self.c_plus is None else float(self.c_plus),
            "b_hat_per_b": (None if self.b_hat_per_b is None
                            else float(self.b_hat_per_b)),
        }
        if self.s is not None:
            out["s"] = [float(x) for x in self.s]
            out["f_r"] = [float(x) for x in self.f_r]
        return out


def _chebyshev(theta, degree):
    """T_j(cos theta) for j = 0..degree, one row per angle."""
    return np.cos(np.outer(theta, np.arange(degree + 1)))


def _antiderivative(n):
    """Chebyshev coefficients of degree n to those (degree n + 1) of the
    antiderivative that vanishes at x = -1: int T_0 = T_1, int T_k =
    T_{k+1} / (2 (k + 1)) - T_{k-1} / (2 (k - 1)) plus a constant."""
    B = np.zeros((n + 2, n + 1))
    j = np.arange(1, n + 2)
    B[j, j - 1] = 1.0 / (2 * j)
    B[1, 0] = 1.0
    B[j[:n - 1], j[:n - 1] + 1] = -1.0 / (2 * j[:n - 1])
    B[0] = -((-1.0) ** j) @ B[1:]
    return B


# the panel rule: _N + 1 first-kind points x on [-1, 1], ascending (no end
# point among them); values there -> Chebyshev coefficients of their
# interpolant (_C), and of its integral from x = -1 taken once (_B1) and
# twice (_B2); _J the once integrated interpolant at the points, _W the
# Fejer weights (its value at x = 1)
_THETA = np.pi * (_N + 0.5 - np.arange(_N + 1)) / (_N + 1)
_X = np.cos(_THETA)
_C = 2.0 / (_N + 1) * _chebyshev(_THETA, _N).T
_C[0] /= 2
_B1 = _antiderivative(_N) @ _C
_B2 = _antiderivative(_N + 1) @ _B1
_J = _chebyshev(_THETA, _N + 1) @ _B1
_JJ = _J @ _J
_EYE = np.eye(_N + 1)
_W = _B1.sum(axis=0)
_LEFT = (-1.0) ** np.arange(_N + 1)


def _tail(c):
    return np.abs(c[-_TAIL:]).max()


def _march(func, support, knots=()):
    """f'' = v f, v = `func`, from f = 1, f' = 0 at the left support edge.

    Spectral integration on panels, left to right, one between each two
    consecutive points of the support ends and `knots`.  On a panel [a, b],
    s = a + h (x + 1), f is the solution at the nodes of the Volterra form
    f = f_a + f'_a (s - a) + h^2 J J (v f), one dense second-kind solve;
    then f' = f'_a + h J (v f) there, f_b = f_a + h W f', f'_b = f'_a +
    h W (v f), and int v f^2 gains h W (v f^2).  v is read at the interior
    nodes only, so a jump on a knot or a support end is never evaluated.

    A panel is accepted when, with gate = _GATE * eps_mach:
      * f's trailing Chebyshev coefficients are below gate * max|f|;
      * h times those of f'' = v f are below gate * (max|f'| + max|f| /
        width): what the quadrature of f'' misses, the error of f', is
        about that, where f's tail understates it at a jump of v, and the
        support width keeps the budget from shrinking with h;
      * where the panel joins the last one at no knot, h times the jump
        between their series of v f there is below the same budget: a jump
        of v between a panel end and its first node is in no sample of that
        panel, but it splits the series of the two panels that meet there;
      * exp((b - a) sqrt(max v)) is below _GATE: a growing solution
        amplifies the solve's rounding by its growth across the panel.
    A panel that fails is bisected; one narrower than _MIN_WIDTH times the
    support width raises RobinwgError, so no unconverged D is returned.
    Returns the final (f, f', int v f^2) and the accepted panels
    (a, h, f_a, f'_a, f, v f), f and v f at the nodes.
    """
    lo, hi = support
    width = hi - lo
    edges = (lo, *knots, hi)
    todo = list(zip(edges[-2::-1], edges[:0:-1]))    # leftmost panel last
    f_a, fp_a, q = 1.0, 0.0, 0.0
    g_end = None        # v f at the last panel's right end, if no knot
    gate = _GATE * np.finfo(float).eps
    panels = []
    while todo:
        a, b = todo.pop()
        h = (b - a) / 2
        v = func(a + h * (_X + 1))
        if not np.isfinite(v).all():
            raise RobinwgError("zero-energy solve: v is not finite on "
                               f"[{a:.17g}, {b:.17g}]")
        f = np.linalg.solve(_EYE - h * h * _JJ * v, f_a + fp_a * h * (_X + 1))
        g = v * f
        fp = fp_a + h * (_J @ g)
        cg = _C @ g
        f_max = np.abs(f).max()
        budget = gate * (np.abs(fp).max() + f_max / width)
        if not (_tail(_C @ f) <= gate * f_max
                and h * _tail(cg) <= budget
                and (g_end is None or h * abs(_LEFT @ cg - g_end) <= budget)
                and (b - a) * np.sqrt(max(v.max(), 0.0)) < np.log(_GATE)):
            if b - a < _MIN_WIDTH * width:
                raise RobinwgError(
                    f"zero-energy solve: the panel [{a:.17g}, {b:.17g}] is "
                    "unresolved at the minimum width; v may jump inside it "
                    "(give the jump as a knot)")
            m = a + h
            todo += [(m, b), (a, m)]
            continue
        panels.append((a, h, f_a, fp_a, f, g))
        q += h * (_W @ (g * f))
        f_a, fp_a = f_a + h * (_W @ fp), fp_a + h * (_W @ g)
        g_end = None if b in edges else cg.sum()
    return (f_a, fp_a, q), panels


def zero_energy_solve(v: Potential1D, n_trace: int = 801) -> ZeroEnergyTrace:
    """Solve f'' = v f with f = 1, f' = 0 at the left support edge.

    Spectral integration on Chebyshev panels (`_march`), split at the knots
    of v and bisected until each passes its convergence gate.  The
    quadrature of v f^2 uses the same panels (Fejer's weights), and the
    trace on `n_trace` equispaced points evaluates each panel's series of
    f and f' (exactly the left data at the left edge).  sup_f is max|f|
    over the panel nodes and the ends.  Bounded on both sides iff the
    mismatch vanishes.
    """
    lo, hi = v.support
    (f_right, mismatch, integral), panels = _march(v.func, v.support, v.knots)
    sup_f = max(1.0, abs(f_right), *(np.abs(p[4]).max() for p in panels))
    if n_trace > 2:
        grid = np.linspace(lo, hi, n_trace)
        f, fp = np.empty(n_trace), np.empty(n_trace)
        which = np.searchsorted([p[0] for p in panels], grid, "right") - 1
        for i, (a, h, f_a, fp_a, _, g) in enumerate(panels):
            m = which == i
            d = grid[m] - a
            theta = np.arccos(np.clip(d / h - 1, -1.0, 1.0))
            # each series less its value at x = -1: s = a gives the left data
            T = _chebyshev(theta, _N + 2) - (-1.0) ** np.arange(_N + 3)
            fp[m] = fp_a + h * (T[:, :-1] @ (_B1 @ g))
            f[m] = f_a + fp_a * d + h * h * (T @ (_B2 @ g))
    else:
        grid = np.array([lo, hi])
        f = np.array([1.0, f_right])
        fp = np.array([0.0, mismatch])
    return ZeroEnergyTrace(
        mismatch=float(mismatch),
        f_right=float(f_right),
        sup_f=float(sup_f),
        integral_v_f2=float(integral),
        s=grid, f=f, fprime=fp)


def detect_resonance(v: Potential1D, tol_D: float = DEFAULT_TOL_D) -> ResonanceResult:
    """Resonance verdict with (c_-, c_+), f_r trace and the b-hat coupling.

    The mismatch tolerance is scaled by sup|f| so steep barrier solutions
    (f exponentially large) are not declared resonant by cancellation.
    """
    lo, hi = v.support
    probe = v(np.linspace(lo, hi, 2049))
    if np.max(np.abs(probe)) == 0.0:
        # identically zero potential: constant resonance, free limit
        r = 1.0 / np.sqrt(2.0)
        grid = np.linspace(lo, hi, 101)
        return ResonanceResult(True, 0.0, tol_D, r, r, 0.0,
                               grid, np.full_like(grid, r))
    tr = zero_energy_solve(v)
    tol = tol_D * max(1.0, tr.sup_f)
    if abs(tr.mismatch) >= tol:
        return ResonanceResult(False, tr.mismatch, tol)
    norm = np.hypot(1.0, tr.f_right)
    return ResonanceResult(
        True, tr.mismatch, tol,
        c_minus=1.0 / norm,
        c_plus=tr.f_right / norm,
        b_hat_per_b=tr.integral_v_f2 / norm ** 2,
        s=tr.s, f_r=tr.f / norm)


def _lattice_counts(profile: CurvatureProfile, betas) -> np.ndarray:
    """The number of resonances above each beta; no ODE is solved.

    A resonance of v = beta*gamma^2 is a Neumann eigenfunction of -f'' =
    lam gamma^2 f on the support, beta = -lam.  On `_LATTICE_CELLS` cells
    of width h, h (K + beta M), K the Neumann second differences and M the
    trapezoid mass h gamma(s)^2 (`sample`: a rectangle's amplitude on its
    closed support), is tridiag(-1, stiff * (1 + 6c), -1), c = h^2 beta
    gamma^2 / 12, stiff = 2 (1 at the ends).  Numerov's diagonal stiff *
    (1 + 5c) / (1 - c) agrees to first order in c and places the roots to
    fourth order (1e-9 relative here, against 1e-5).  Its count of negative
    LDL^T pivots is the count of lattice eigenvalues lam < -beta, lam = 0
    included (Sylvester's inertia; Pryce 1993).  One pass over the nodes
    takes every coupling.
    """
    betas = np.asarray(betas, dtype=float)
    s, h = np.linspace(*profile.support, _LATTICE_CELLS + 1, retstep=True)
    c = (h * h / 12 * profile.sample(s) ** 2)[:, None] * betas
    stiff = np.full((s.size, 1), 2.0)
    stiff[[0, -1]] = 1.0
    # a zero pivot counts as positive; past c = 1 (beta > 0) none is negative
    with np.errstate(divide="ignore"):
        diag = np.where(c < 1, stiff * (1 + 5 * c) / (1 - c), np.inf)
        pivot = diag[0]
        negative = (pivot < 0).astype(int)
        for row in diag[1:]:
            pivot = row - 1.0 / pivot
            negative += pivot < 0
    return negative


def find_resonant_coupling(profile: CurvatureProfile, beta_range):
    """Smallest-|beta| root of D(beta) = 0 with v = beta*gamma^2, or None.

    Scans 120 couplings over the range, 0 left out.  Brent's method (xtol
    1e-13) refines, on the panel solve of `_march`, each interval across
    which the lattice count of resonances (`_lattice_counts`) steps by one;
    in the interval that straddles 0 the step of the constant mode (beta =
    0, the free line, where D = 0 trivially) is discounted.  A tabulated
    profile's panels end at every spline knot, where it is only C^2.  The
    root is accepted when |D| < 1e-11 there.  Positive couplings give
    convex solutions (D > 0), so a range inside (0, inf) scans to None.

    Guard: instead of a root being missed silently, RobinwgError names an
    interval where the count steps by more than one (a narrower range
    separates the roots) or steps by one while D keeps its sign (the count
    misplaced a root).  An empty range and a zero profile, for which every
    coupling gives D = 0 and no root is isolated, raise RobinwgError.
    """
    lo, hi = min(beta_range), max(beta_range)
    if not lo < hi:
        raise RobinwgError(f"empty coupling range {tuple(beta_range)!r}")
    if profile.sup_abs() == 0:
        raise RobinwgError("zero profile: the mismatch D vanishes at every "
                           "coupling, so the scan has no root to isolate")
    betas = np.linspace(lo, hi, 120)
    betas = betas[betas != 0.0]
    steps = np.abs(np.diff(_lattice_counts(profile, betas)))
    # the constant Neumann mode (lam = 0) steps the count across beta = 0,
    # where D(0) = 0 holds trivially: it is no resonance
    steps[(betas[:-1] < 0) & (betas[1:] > 0)] -= 1
    interval = lambda i: f"scan interval [{betas[i]:.6g}, {betas[i + 1]:.6g}]"
    many = np.flatnonzero(steps > 1)
    if many.size:
        i = many[0]
        raise RobinwgError(
            f"{interval(i)} holds {steps[i]} resonances but brackets one "
            "root only; narrow the coupling range (beta_min, beta_max)")

    sample, support, knots = profile.sample, profile.support, profile.knots
    mismatch = lambda beta: _march(lambda s: beta * sample(s) ** 2, support,
                                   knots)[0][1]

    stepped = np.flatnonzero(steps == 1)
    for i in stepped:
        d_lo, d_hi = mismatch(betas[i]), mismatch(betas[i + 1])
        if np.sign(d_lo) * np.sign(d_hi) > 0:
            raise RobinwgError(
                f"{interval(i)}: the resonance count steps by one but the "
                f"mismatch D keeps its sign ({d_lo:.3g}, {d_hi:.3g}); shift "
                "or narrow the coupling range (beta_min, beta_max)")
    # one lane per bracket, each lane brentq's root bit for bit
    roots = _brent_lanes(lambda x, lanes: np.array([mismatch(b) for b in x]),
                         betas[stepped], betas[stepped + 1], xtol=1e-13,
                         rtol=8.9e-16, maxiter=200).tolist()
    if not roots:
        return None
    best = min(roots, key=abs)
    resid = abs(mismatch(best))
    if resid >= _ROOT_TOL:
        raise RobinwgError(
            f"refined root has |D| = {resid:.3g} >= {_ROOT_TOL:.3g}")
    return float(best)
