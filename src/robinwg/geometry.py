"""Curvature profiles, scalings and derived waveguide geometry.

A planar strip of half-width d around a curve is described entirely by the
signed curvature gamma(s) in arclength coordinates.  Everything downstream
(boundary coefficients, effective potentials) is built from gamma and two
dimensionless scaling parameters (epsilon, a), plus an optional deformation
parameter b that stretches the bending angle at first order in epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ProfileError

SMOOTH_BUMP = "smooth-bump"
RECTANGULAR = "rectangular"
TABULATED = "tabulated"


@dataclass(frozen=True)
class CurvatureProfile:
    """Compactly supported signed curvature gamma(s).

    kinds:
      smooth-bump   amplitude * exp(-1/(1 - t^2)), t = (s-center)/half_width.
                    Infinitely differentiable, closed-form derivatives.
      rectangular   amplitude on the closed support [lo, hi] =
                    [center-half_width, center+half_width], the floats of
                    `support` included.  Not smooth; rejected wherever
                    gamma'' is required.
      tabulated     natural cubic spline through (nodes, values), clamped to
                    zero outside [nodes[0], nodes[-1]].

    gamma(s) = 0 exactly outside the support for every kind.
    """

    kind: str
    amplitude: float = 1.0
    center: float = 0.0
    half_width: float = 1.0
    nodes: tuple = ()
    values: tuple = ()
    _spline: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (SMOOTH_BUMP, RECTANGULAR, TABULATED):
            raise ProfileError(f"unknown profile kind {self.kind!r}")
        if self.kind == TABULATED:
            if len(self.nodes) < 4:
                raise ProfileError("tabulated profile needs at least 4 nodes")
            if len(self.nodes) != len(self.values):
                raise ProfileError("nodes and values length mismatch")
            if any(np.diff(self.nodes) <= 0):
                raise ProfileError("tabulated nodes must be strictly increasing")
            vmax = max(abs(v) for v in self.values)
            if vmax > 0 and max(abs(self.values[0]),
                                abs(self.values[-1])) > 1e-12 * vmax:
                raise ProfileError(
                    "tabulated endpoint values must vanish (compact support)")
            from scipy.interpolate import CubicSpline
            object.__setattr__(
                self, "_spline",
                CubicSpline(np.asarray(self.nodes), np.asarray(self.values),
                            bc_type="natural"))
        elif self.half_width <= 0:
            raise ProfileError("half_width must be positive")

    @property
    def support(self) -> tuple[float, float]:
        if self.kind == TABULATED:
            return (self.nodes[0], self.nodes[-1])
        return (self.center - self.half_width, self.center + self.half_width)

    @property
    def support_width(self) -> float:
        lo, hi = self.support
        return hi - lo

    @property
    def knots(self) -> tuple:
        """Interior spline nodes, where a tabulated gamma is only C^2."""
        return tuple(self.nodes[1:-1]) if self.kind == TABULATED else ()

    @property
    def is_smooth(self) -> bool:
        """True when gamma'' is available (needed by the 2D operator)."""
        return self.kind != RECTANGULAR

    def _mask_t(self, s):
        t = (np.asarray(s, dtype=float) - self.center) / self.half_width
        return t, np.abs(t) < 1.0

    def __call__(self, s):
        return self.sample(s)

    def sample(self, s):
        """gamma(s), at a point or elementwise.

        A rectangle is the amplitude on its closed support, judged on the
        floats of `support` (lo <= s <= hi) rather than on
        |s - center| / half_width <= 1, whose rounding can move an edge by
        an ulp either way.
        """
        s_arr = np.asarray(s, dtype=float)
        scalar = s_arr.ndim == 0
        s_arr = np.atleast_1d(s_arr)
        out = np.zeros_like(s_arr)
        if self.kind == SMOOTH_BUMP:
            t, m = self._mask_t(s_arr)
            out[m] = self.amplitude * np.exp(-1.0 / (1.0 - t[m] ** 2))
        else:
            lo, hi = self.support
            m = (s_arr >= lo) & (s_arr <= hi)
            out[m] = (self.amplitude if self.kind == RECTANGULAR
                      else self._spline(s_arr[m]))
        return out[0] if scalar else out

    def deriv(self, s):
        return self._derivative(s, 1)

    def deriv2(self, s):
        return self._derivative(s, 2)

    def _derivative(self, s, order):
        """gamma' (order 1) or gamma'' (order 2)."""
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        scalar = np.asarray(s).ndim == 0
        out = np.zeros_like(s_arr)
        if self.kind == SMOOTH_BUMP:
            t, m = self._mask_t(s_arr)
            tm = t[m]
            q = -2.0 * tm / (1.0 - tm ** 2) ** 2
            if order == 2:
                q = q * q - 2.0 * (1.0 + 3.0 * tm ** 2) / (1.0 - tm ** 2) ** 3
            out[m] = (self.amplitude * np.exp(-1.0 / (1.0 - tm ** 2)) * q
                      / self.half_width ** order)
        elif self.kind == TABULATED:    # a rectangle's: zero a.e., jumps unused
            lo, hi = self.support
            m = (s_arr > lo) & (s_arr < hi)
            out[m] = self._spline(s_arr[m], order)
        return out[0] if scalar else out

    def sample_squared(self, s, h):
        """gamma^2 at the nodes s of a lattice of step h.

        A rectangle's value is amplitude^2 times the fraction of each node's
        cell [s - h/2, s + h/2] that its support covers: one half at an edge
        on a node, and continuous as an edge moves between nodes.  A point
        value at a jump would move the jump by up to h/2, a coupling error
        of O(h) that second-order discretisations of beta gamma^2 cannot
        absorb.  Other kinds are sampled.
        """
        if self.kind != RECTANGULAR:
            return self.sample(s) ** 2
        lo, hi = self.support
        s = np.asarray(s, dtype=float)
        covered = (np.minimum(1.0, 0.5 + (hi - s) / h)
                   + np.minimum(1.0, 0.5 + (s - lo) / h) - 1.0)
        return self.amplitude ** 2 * np.maximum(covered, 0.0)

    def sup_abs(self) -> float:
        """sup_s |gamma(s)|, used for the chart-validity bound."""
        if self.kind == SMOOTH_BUMP:
            return abs(self.amplitude) * math.exp(-1.0)
        if self.kind == RECTANGULAR:
            return abs(self.amplitude)
        xs = np.linspace(*self.support, 4001)
        return float(np.max(np.abs(self.sample(xs))))

    def scaled(self, factor: float) -> "CurvatureProfile":
        """Profile with amplitude multiplied by `factor` (same support)."""
        if self.kind == TABULATED:
            return CurvatureProfile(TABULATED, nodes=self.nodes,
                                    values=tuple(factor * v for v in self.values))
        return CurvatureProfile(self.kind, factor * self.amplitude,
                                self.center, self.half_width)


def default_bump() -> CurvatureProfile:
    """Reference smooth profile used throughout the examples and studies.

    Sized so that sup|gamma| < 1 (valid chart at d = 1) while the coupling
    scan over (-20, 0) still finds exactly one zero-energy resonance.
    """
    return CurvatureProfile(SMOOTH_BUMP, amplitude=1.5, half_width=2.0)


@dataclass(frozen=True)
class ScalingParams:
    """Family parameters (epsilon, a, b) with delta = epsilon**a.

    When `delta_ratio` is set, delta = delta_ratio * epsilon instead; this is
    the desk-scale protocol where the transverse scale is driven separately
    from the longitudinal one.  b deforms the curvature amplitude by
    sqrt(1 + 2*epsilon*b), i.e. the bending angle by (1 + epsilon*b) + O(eps^2).
    """

    epsilon: float
    a: float = 4.0
    b: float = 0.0
    delta_ratio: float | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ProfileError("epsilon must be positive")
        if self.a < 1:
            raise ProfileError("scaling exponent a must be >= 1")
        if 1.0 + 2.0 * self.epsilon * self.b <= 0:
            raise ProfileError("deformation requires 1 + 2*eps*b > 0")
        if self.delta_ratio is not None and not 0 < self.delta_ratio <= 1:
            raise ProfileError("delta_ratio must lie in (0, 1]")

    @property
    def delta(self) -> float:
        if self.delta_ratio is not None:
            return self.delta_ratio * self.epsilon
        return self.epsilon ** self.a

    @property
    def deformation_factor(self) -> float:
        """sqrt(1 + 2*eps*b) multiplying the scaled curvature."""
        return math.sqrt(1.0 + 2.0 * self.epsilon * self.b)

    def require_convergence_regime(self):
        """The norm-resolvent statements need a > 3 (when delta = eps^a)."""
        if self.delta_ratio is None and self.a <= 3:
            raise ProfileError(f"convergence studies require a > 3, got a={self.a}")


@dataclass(frozen=True)
class WaveguideGeometry:
    """A profile paired with a half-width, a Robin constant and scalings.

    Provides the scaled quantities entering the waveguide operator:
    eta(s) = (delta/eps) * gamma_deformed(s/eps), the boundary coefficients
    alpha_1(s), alpha_2(s), and the scaled curvature itself.
    """

    profile: CurvatureProfile
    d: float
    scaling: ScalingParams
    alpha: float = 0.0

    def __post_init__(self):
        if self.d <= 0:
            raise ProfileError("half-width d must be positive")
        # Chart validity of the scaled strip: the half-width paired with the
        # scaled curvature is delta*d, so the constraint sup|gamma| d < 1
        # reads sup|eta| d < 1 here.
        sup_eta = (self.scaling.delta / self.scaling.epsilon
                   * self.scaling.deformation_factor * self.profile.sup_abs())
        if sup_eta * self.d >= 1.0:
            raise ProfileError(
                f"sup|eta| * d = {sup_eta * self.d:.3g} >= 1: "
                "coordinates (s, u) are not a valid chart")

    def scaled_curvature(self, s):
        """(sqrt(1+2 eps b)/eps) * gamma(s/eps)."""
        sc = self.scaling
        return sc.deformation_factor / sc.epsilon * self.profile.sample(
            np.asarray(s) / sc.epsilon)

    def eta(self, s):
        """(delta/eps) * gamma_deformed(s/eps); the small expansion parameter."""
        sc = self.scaling
        return sc.delta * sc.deformation_factor / sc.epsilon * self.profile.sample(
            np.asarray(s) / sc.epsilon)

    def robin_coefficients(self, s):
        """Boundary coefficients (alpha_1(s), alpha_2(s)) of the flattened strip."""
        eta = self.eta(s)
        de = self.d * eta
        if np.any(np.abs(de) >= 1.0):
            raise ProfileError("|d * eta| >= 1 at some s; coefficients undefined")
        a1 = self.alpha - eta / (2.0 * (1.0 + de))
        a2 = self.alpha + eta / (2.0 * (1.0 - de))
        return a1, a2

    @property
    def scaled_support(self) -> tuple[float, float]:
        lo, hi = self.profile.support
        e = self.scaling.epsilon
        return (lo * e, hi * e)


def bending_angle(profile: CurvatureProfile) -> float:
    """Total bending angle: the integral of gamma over its support.

    Adaptive quadrature, relative error below 1e-12.  Compact support makes
    this unconditionally convergent.
    """
    lo, hi = profile.support
    if profile.kind == RECTANGULAR:
        return profile.amplitude * (hi - lo)
    if profile.kind == TABULATED:
        return float(profile._spline.integrate(lo, hi))
    from scipy.integrate import quad
    val, err = quad(profile.sample, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


def scaled_bending_angle(geometry: WaveguideGeometry) -> float:
    """Bending angle of the scaled (possibly deformed) curvature.

    Equals sqrt(1 + 2 eps b) * bending_angle(profile): the epsilon-scaling
    itself leaves the integral invariant.
    """
    return geometry.scaling.deformation_factor * bending_angle(geometry.profile)
