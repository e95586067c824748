"""Zero-energy resonance analysis for h = -d^2/ds^2 + v, compact-support v.

A zero-energy resonance is a bounded, non-square-integrable solution of
h f = 0.  With left data f = 1, f' = 0 the solution is constant to the left
of the support; it is bounded to the right iff the outgoing derivative
D = f'(right edge) vanishes.  At a resonance the asymptotic constants are
(c_-, c_+) ~ (1, f(right edge)) up to the normalisation c_-^2 + c_+^2 = 1,
and the deformation coupling per unit b is the integral of v f_r^2.

Every zero-energy solve runs through `_dop853`, a port of scipy's DOP853
stepper that returns `solve_ivp`'s states bit for bit; scipy itself is the
oracle in the tests only.  A coupling scan brackets its roots by a lattice
count of resonances (`_lattice_counts`), which solves no ODE.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ._dop853 import dop853
from .errors import RobinwgError
from .geometry import CurvatureProfile
from .transverse import _brent_lanes

DEFAULT_TOL_D = 1e-9
_ODE_TOL = 1e-12
_ROOT_TOL = 1e-11   # |D| a refined root must be below (or 10x its noise)
_LATTICE_CELLS = 500


@dataclass(frozen=True)
class Potential1D:
    """Compactly supported potential v on `support`, zero outside it.

    `knots` are interior points where v is only piecewise smooth; the
    zero-energy integration restarts there.  `_at`, set by `from_profile`,
    is v at one point on the scalar gamma^2 path, equal bit for bit to
    `func` there.
    """

    func: Callable
    support: tuple[float, float]
    knots: tuple = ()
    _at: Callable | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_callable(cls, func, support, knots=()):
        """v = `func` on `support`, restarting the integration at `knots`.

        The stepper evaluates `func` at both ends of every piece (its first
        stage and, on the last step, its last stage), so a jump sitting
        exactly on a knot or a support edge is seen by those stages, and
        the error estimate pays for it in rejected steps.  A `func` that
        keeps its inside value at the support edges, as a rectangular
        `CurvatureProfile` does, avoids that there.
        """
        lo, hi = support
        if not hi > lo:
            raise RobinwgError("empty potential support")
        # the integration runs forward over each piece between knots
        edges = (lo, *knots, hi)
        if not all(a < b for a, b in zip(edges, edges[1:])):
            raise RobinwgError(f"knots {tuple(knots)!r} must increase "
                               f"strictly inside the support {support!r}")
        return cls(func, (float(lo), float(hi)), tuple(knots))

    @classmethod
    def from_profile(cls, profile: CurvatureProfile, beta: float) -> "Potential1D":
        """v = beta * gamma^2, the effective longitudinal potential."""
        fn = lambda s: beta * profile.sample(s) ** 2
        sq = profile.squared_at
        return replace(cls.from_callable(fn, profile.support, profile.knots),
                       _at=lambda s: beta * sq(s))

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


def _integrate(v_at, support, knots=(), rtol=_ODE_TOL, dense=False):
    """Integrate f'' = v f with f = 1, f' = 0 at the left support edge.

    `v_at(s)` is v at one point, a float.  The state is (f, f', q), q the
    integral of v f^2.  DOP853 (`_dop853`, scipy's stepper bit for bit) with
    rtol = atol = `rtol` restarts at every knot, where v is only C^2,
    carrying the state across.  Returns the final state and the
    `_dop853.Solution` of each piece.
    """
    lo, hi = support
    y = np.array([1.0, 0.0, 0.0])

    # the state runs on Python floats: one-element array operations cost
    # several times the arithmetic they do
    def rhs(s, y):
        f, fp, _ = y.tolist()
        vf = v_at(s) * f
        return [fp, vf, vf * f]

    pieces = []
    edges = [lo, *knots, hi]
    for a, b in zip(edges[:-1], edges[1:]):
        pieces.append(dop853(rhs, a, b, y, rtol, dense))
        y = pieces[-1].y
    return y, pieces


def zero_energy_solve(v: Potential1D, n_trace: int = 801,
                      rtol: float = _ODE_TOL) -> ZeroEnergyTrace:
    """Integrate f'' = v f with f = 1, f' = 0 at the left support edge.

    DOP853 with local tolerance 1e-12 (relaxable for coarse scans),
    restarted at the knots of v; the quadrature of v f^2 rides along as an
    extra state so it inherits the stepper's accuracy.  Bounded on both
    sides iff the mismatch vanishes.  A `from_profile` potential is
    evaluated on its scalar gamma^2 path, any other through `func` on
    one-element arrays.
    """
    lo, hi = v.support
    need_trace = n_trace > 2
    v_at, func = v._at, v.func
    if v_at is None:
        v_at = lambda s: float(func(np.asarray([s]))[0]) if lo <= s <= hi else 0.0
    end, pieces = _integrate(v_at, v.support, v.knots, rtol=rtol,
                             dense=need_trace)
    f_right, mismatch, integral = end
    if need_trace:
        grid = np.linspace(lo, hi, n_trace)
        states = np.empty((3, n_trace))
        for sol in pieces:
            m = (grid >= sol.t[0]) & (grid <= sol.t[-1])
            if m.any():
                states[:, m] = sol(grid[m])
        f, fp = states[0], states[1]
    else:
        grid = np.array([lo, hi])
        f = np.array([1.0, f_right])
        fp = np.array([0.0, mismatch])
    return ZeroEnergyTrace(
        mismatch=float(mismatch),
        f_right=float(f_right),
        sup_f=float(np.max(np.abs(f))),
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

    Scans 120 couplings over the range, 0 left out.  Brent's method refines
    at full tolerance, on a scalar gamma^2 path, each interval across which
    the lattice count of resonances (`_lattice_counts`) steps by one.  A
    tabulated profile's integration restarts at every spline knot.
    Positive couplings give convex solutions (D > 0), so a range inside
    (0, inf) scans to None.

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
    interval = lambda i: f"scan interval [{betas[i]:.6g}, {betas[i + 1]:.6g}]"
    many = np.flatnonzero(steps > 1)
    if many.size:
        i = many[0]
        raise RobinwgError(
            f"{interval(i)} holds {steps[i]} resonances but brackets one "
            "root only; narrow the coupling range (beta_min, beta_max)")

    sq, support, knots = profile.squared_at, profile.support, profile.knots
    solved = {}

    def mismatch(beta, rtol=_ODE_TOL):
        # Brent starts from the bracket ends and returns a point it has
        # evaluated: the guard and the acceptance check reuse those solves
        if (beta, rtol) not in solved:
            end, _ = _integrate(lambda s: beta * sq(s), support, knots,
                                rtol=rtol)
            solved[beta, rtol] = float(end[1])
        return solved[beta, rtol]

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
    d_best = mismatch(best)
    resid = abs(d_best)
    # |D| at the refined root is floored by the integration's own global
    # error, so calibrate the acceptance against the evaluation's
    # reproducibility across tolerances
    noise = abs(d_best - mismatch(best, rtol=1e-10))
    tol_eff = max(_ROOT_TOL, 10.0 * noise)
    if resid >= tol_eff:
        raise RobinwgError(f"refined root has |D| = {resid:.3g} >= {tol_eff:.3g}")
    return float(best)
