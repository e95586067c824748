"""Limit operators on the two-edge graph (the line with one vertex at 0).

Four gluing families at the vertex:

    decoupled        f(0-) = f(0+) = 0
    scale_invariant  c_- f(0+) = c_+ f(0-),  c_+ f'(0+) - c_- f'(0-) = 0
    deformed         same first condition, derivative condition with source
                     c_+ f'(0+) - c_- f'(0-) = b_hat (c_- f(0-) + c_+ f(0+))
    free             continuity of f and f' (= scale_invariant at c_- = c_+)

Scattering amplitudes come from solving the 2x2 plane-wave matching system;
the Green's function is the free kernel plus reflected/transmitted images
with those amplitudes continued to complex wavenumber.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchError, NearSpectrumError, RobinwgError

DECOUPLED = "decoupled"
SCALE_INVARIANT = "scale_invariant"
DEFORMED = "deformed"
FREE = "free"

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class GraphOperatorSpec:
    kind: str
    c_minus: float | None = None
    c_plus: float | None = None
    b_hat: float = 0.0

    def __post_init__(self):
        if self.kind not in (DECOUPLED, SCALE_INVARIANT, DEFORMED, FREE):
            raise RobinwgError(f"unknown graph operator kind {self.kind!r}")
        if self.kind == DECOUPLED:
            if self.c_minus is not None or self.c_plus is not None:
                raise RobinwgError("decoupled carries no parameters")
            return
        cm, cp = self.c_minus, self.c_plus
        if cm is None or cp is None:
            raise RobinwgError(f"{self.kind} needs (c_minus, c_plus)")
        nrm = np.hypot(cm, cp)
        if abs(nrm - 1.0) > 1e-8:
            raise RobinwgError(f"c_-^2 + c_+^2 = {nrm**2:.6g}, not normalised")
        object.__setattr__(self, "c_minus", cm / nrm)
        object.__setattr__(self, "c_plus", cp / nrm)
        if self.kind != DEFORMED and self.b_hat != 0.0:
            raise RobinwgError("b_hat only enters the deformed kind")

    @classmethod
    def decoupled(cls):
        return cls(DECOUPLED)

    @classmethod
    def free(cls):
        return cls(FREE, _INV_SQRT2, _INV_SQRT2)

    @classmethod
    def scale_invariant(cls, c_minus, c_plus):
        return cls(SCALE_INVARIANT, c_minus, c_plus)

    @classmethod
    def deformed(cls, c_minus, c_plus, b_hat):
        return cls(DEFORMED, c_minus, c_plus, float(b_hat))

    @classmethod
    def from_resonance(cls, result, b: float = 0.0):
        """Predicted limit: decoupled unless resonant, then the c_pm family."""
        if not result.resonant:
            return cls.decoupled()
        if b == 0.0 or result.b_hat_per_b == 0.0:
            if abs(result.c_minus - result.c_plus) < 1e-12:
                return cls.free()
            return cls.scale_invariant(result.c_minus, result.c_plus)
        return cls.deformed(result.c_minus, result.c_plus,
                            b * result.b_hat_per_b)

    def to_dict(self):
        return {"kind": self.kind,
                "c_minus": self.c_minus, "c_plus": self.c_plus,
                "b_hat": self.b_hat}


def _amplitudes(spec: GraphOperatorSpec, k):
    """(rho_left, rho_right, tau) at wavenumber k (complex allowed).

    Solves the two matching systems; for normalised c_pm the determinant is
    -(ik - b_hat) which only vanishes at the deformed bound state.
    """
    k = complex(k)
    if spec.kind == DECOUPLED:
        return -1.0 + 0j, -1.0 + 0j, 0.0 + 0j
    cm, cp, bh = spec.c_minus, spec.c_plus, spec.b_hat
    det = -(1j * k - bh)
    if abs(det) < 1e-12 * max(1.0, abs(k)):
        raise NearSpectrumError(
            "matching system singular: z at the deformed bound state")
    # left incidence: unknowns (rho, tau)
    M = np.array([[-cp, cm],
                  [(1j * k - bh) * cm, (1j * k - bh) * cp]], dtype=complex)
    rhs = np.array([cp, (1j * k + bh) * cm], dtype=complex)
    rho_l, tau_l = np.linalg.solve(M, rhs)
    # right incidence
    M = np.array([[cm, -cp],
                  [(1j * k - bh) * cp, (1j * k - bh) * cm]], dtype=complex)
    rhs = np.array([-cm, (1j * k + bh) * cp], dtype=complex)
    rho_r, tau_r = np.linalg.solve(M, rhs)
    if abs(tau_l - tau_r) > 1e-12 * max(1.0, abs(tau_l)):
        raise RobinwgError("transmission asymmetry: matching solve inconsistent")
    return rho_l, rho_r, tau_l


def scattering_matrix(spec: GraphOperatorSpec, k: float) -> np.ndarray:
    """S(k) = [[rho_left, tau], [tau, rho_right]] for real k > 0.

    Unitarity is a postcondition: any violation beyond 1e-12 raises.
    """
    if not k > 0:
        raise RobinwgError("scattering matrix needs k > 0")
    rho_l, rho_r, tau = _amplitudes(spec, k)
    S = np.array([[rho_l, tau], [tau, rho_r]])
    dev = np.max(np.abs(S.conj().T @ S - np.eye(2)))
    if dev > 1e-12:
        raise RobinwgError(f"S-matrix unitarity violated by {dev:.3g}")
    return S


def sqrt_upper(z):
    """Branch of sqrt(z) with positive imaginary part; z must avoid [0, inf)."""
    w = complex(np.sqrt(complex(z)))
    if w.imag < 0:
        w = -w
    if w.imag <= 0:
        raise BranchError(f"z = {z} lies on the positive real axis")
    return w


def green_function(spec: GraphOperatorSpec, z, s, sp):
    """G(z; s, s') for z off [0, inf): free kernel plus vertex images.

    Same side of the vertex:  (i/2w)[e^{iw|s-s'|} + rho e^{iw(|s|+|s'|)}]
    opposite sides:           (i/2w) tau e^{iw(|s|+|s'|)}
    with w = sqrt(z), Im w > 0, and amplitudes continued to k = w.
    """
    w = sqrt_upper(z)
    rho_l, rho_r, tau = _amplitudes(spec, w)
    s = np.asarray(s, dtype=float)
    sp = np.asarray(sp, dtype=float)
    pref = 1j / (2 * w)
    same = (s >= 0) == (sp >= 0)
    img = np.exp(1j * w * (np.abs(s) + np.abs(sp)))
    out = np.where(
        same,
        pref * (np.exp(1j * w * np.abs(s - sp))
                + np.where(s < 0, rho_l, rho_r) * img),
        pref * tau * img)
    if out.ndim == 0:
        return complex(out)
    return out


def resolvent_apply(spec, z, s_grid, f_samples):
    """(h_spec - z)^{-1} f on a uniform increasing grid containing 0.

    Quadrature of the Green's function against the piecewise-linear
    interpolant of f, evaluated exactly: the one-sided exponential moments
    are accumulated by a recursion over the cells that touch f's support,
    so the only error is the linear interpolation of f (O(h^2)) and the
    grid truncation of its support.
    f is one row sampled on the grid or a (probes, nodes) block; the grid
    is validated and the phases e^{-+iws} formed once per call, and each
    output has f's shape, every row equal bit for bit to its own call.
    `spec` may be a sequence of GraphOperatorSpec: the free part and the
    moments (A_0, B_0) at the vertex are then computed once per row and
    each operator adds its own vertex images to a copy, giving a list of
    outputs equal bit for bit to separate calls.
    """
    s = np.asarray(s_grid, dtype=float)
    f = np.asarray(f_samples)
    if s.ndim != 1 or f.ndim > 2 or f.shape[-1:] != s.shape:
        raise RobinwgError("grid/sample shape mismatch")
    h = s[1] - s[0]
    if not (h > 0 and np.allclose(np.diff(s), h, rtol=1e-10, atol=1e-12)):
        raise RobinwgError("resolvent_apply needs a uniform increasing grid")
    i0 = int(np.argmin(np.abs(s)))
    if abs(s[i0]) > 1e-12 * max(1.0, abs(s[-1])):
        raise RobinwgError("grid must contain the vertex s = 0")
    # the nodes left of the vertex (s < 0) are s[:i_r]
    i_r = int(np.searchsorted(s, 0.0))
    w = sqrt_upper(z)
    ph_m, ph_p = np.exp(-1j * w * s), np.exp(1j * w * s)
    specs = [spec] if isinstance(spec, GraphOperatorSpec) else list(spec)
    amplitudes = [_amplitudes(sp, w) for sp in specs]

    iwh = 1j * w * h
    ep = np.exp(iwh)
    em = np.exp(-iwh)
    # exact moments of e^{+-iwt}*(linear hat) over one cell
    c0 = (ep - 1.0) / (1j * w) - (ep - 1.0 - iwh) / ((1j * w) ** 2 * h)
    c1 = (ep - 1.0 - iwh) / ((1j * w) ** 2 * h)
    d0 = (em - 1.0) / (-1j * w) - (em - 1.0 + iwh) / ((1j * w) ** 2 * h)
    d1 = (em - 1.0 + iwh) / ((1j * w) ** 2 * h)
    pref = 1j / (2 * w)
    # products of fresh copies, as of the masked gathers these slices
    # replace: numpy multiplies a large temporary in place, and its
    # in-place complex product can round differently
    img_l, img_r = pref * ph_m[:i_r].copy(), pref * ph_p[i_r:].copy()

    F = np.atleast_2d(f)
    outs = [np.empty(F.shape, dtype=complex) for _ in amplitudes]
    for row, fr in enumerate(F):
        # A_i = int_{s_0}^{s_i} e^{-iws'} f ds' and
        # B_i = int_{s_i}^{s_N} e^{iws'} f ds', accumulated on the nodes
        # a..e of the cells that touch f's support only: left of them A is
        # 0 and B its total, right of them the reverse (the cells outside
        # add exact zeros to the whole-grid recursion)
        nz = np.flatnonzero(fr)
        a, e = ((max(nz[0] - 1, 0), min(nz[-1] + 1, len(s) - 1)) if nz.size
                else (0, 0))
        A = np.zeros(e - a + 1, dtype=complex)
        B = np.zeros(e - a + 1, dtype=complex)
        if e > a:
            lo, hi = fr[a:e], fr[a + 1:e + 1]
            A[1:] = np.cumsum(ph_m[a:e] * (lo * d0 + hi * d1))
            cum_b = np.cumsum(ph_p[a:e] * (lo * c0 + hi * c1))
            B[0] = cum_b[-1]
            B[1:] = cum_b[-1] - cum_b
        free = np.empty(len(s), dtype=complex)
        free[:a] = pref * (ph_m[:a] * B[0])
        free[a:e + 1] = pref * (ph_p[a:e + 1] * A + ph_m[a:e + 1] * B)
        free[e + 1:] = pref * (ph_p[e + 1:] * A[-1])

        # vertex images, e^{iw|s|} = e^{-iws} left and e^{iws} right of the
        # vertex; (tau - 1) removes the free cross-side part.  The moments
        # at the vertex are those at the node of a..e nearest to it
        at = min(max(i0 - a, 0), e - a)
        A0, B0 = A[at], B[at]
        for out, (rho_l, rho_r, tau) in zip(outs, amplitudes):
            out[row] = free
            out[row, :i_r] += img_l * (rho_l * A0 + (tau - 1.0) * B0)
            out[row, i_r:] += img_r * (rho_r * B0 + (tau - 1.0) * A0)
    if f.ndim == 1:
        outs = [out[0] for out in outs]
    return outs[0] if isinstance(spec, GraphOperatorSpec) else outs
