"""Robin Laplacian on the interval (-d, d): spectra, eigenfunctions, resolvent.

The operator is -d^2/du^2 with boundary conditions

    psi'(d) + alpha_1 psi(d) = 0,      -psi'(-d) + alpha_2 psi(-d) = 0.

Eigenvalues lambda_n = k_n^2 solve

    Delta(k) = (alpha_1 alpha_2 - k^2) sin(2kd) + k (alpha_1 + alpha_2) cos(2kd) = 0,

with k real (lambda > 0) or k = i*kappa (lambda < 0).  The symmetric case
alpha_1 = alpha_2 = alpha splits by parity:

    even:  p sin(pd) - alpha cos(pd) = 0        (cosine modes)
    odd:   p cos(pd) + alpha sin(pd) = 0        (sine modes)

Every symmetric root, for a whole grid of alpha and modes 0..n_max, is one
lane of a single lane-wise Brent solve (`_brent_lanes`, a numpy port of
scipy's brentq that returns its roots bit for bit); `symmetric_spectrum` is
the one-alpha case of the same call, and `beta_table` solves its grid once.
The asymmetric roots of many (alpha_1, alpha_2) pairs, bracketed on
sample grids, are likewise one `_brent_lanes` pass (`_asymmetric_solve`);
`asymmetric_spectrum` is its one-pair case.

Perturbing (alpha_1, alpha_2) around (alpha, alpha) through the curvature
parameter eta gives lambda_n = mu_n + lambda2 * (d eta)^2 + O(eta^3); the
first-order term vanishes identically.  The coupling fed to the effective
longitudinal operators is beta_n = -1/4 + lambda2 (with alpha, mu in units
of the half-width, i.e. the d = 1 normalisation of all reported tables).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BracketingError, NearSpectrumError,
                     SingularDenominatorError)

_BRENT_KW = dict(xtol=1e-15, rtol=8.9e-16, maxiter=200)

REAL = "real"
IMAGINARY = "imaginary"
ZERO = "zero"


@dataclass(frozen=True)
class TransverseMode:
    """One eigenpair, real-normalised to unit L2 norm on (-d, d).

    The wavenumber is stored branch-tagged: `k` is the positive real number
    such that eigenvalue = k^2 (real branch), -k^2 (imaginary branch, i.e.
    the root of the hyperbolic equation), or 0.  The eigenfunction is

        real:       A sin(k u) + B cos(k u)
        imaginary:  A sinh(k u) + B cosh(k u)
        zero:       A u + B
    """

    n: int
    branch: str
    k: float
    eigenvalue: float
    coef_sin: float
    coef_cos: float
    alpha_pair: tuple[float, float]
    d: float
    parity: str | None = None

    def __call__(self, u):
        return _mode_values(self.branch, self.k, self.coef_sin, self.coef_cos, u)

    def deriv(self, u):
        u = np.asarray(u, dtype=float)
        A, B, k = self.coef_sin, self.coef_cos, self.k
        if self.branch == REAL:
            return k * (A * np.cos(k * u) - B * np.sin(k * u))
        if self.branch == IMAGINARY:
            if A == 0.0 and B == 0.0:
                return np.zeros_like(u)
            return k * (A * np.cosh(k * u) + B * np.sinh(k * u))
        return A * np.ones_like(u)

    def residual(self) -> float:
        """|Delta(k_n)| in scaled units (see `eigencondition_scale`)."""
        a1, a2 = self.alpha_pair
        if self.branch == REAL:
            val = eigencondition(a1, a2, self.d, self.k)
        elif self.branch == IMAGINARY:
            val = _delta_imag(self.k, a1, a2, self.d)
        else:
            val = 2 * self.d * a1 * a2 + a1 + a2
        return abs(val) / eigencondition_scale(self.k, a1, a2, self.d)


def _delta_imag(kappa, a1, a2, d):
    # Delta(i kappa) / (i cosh(2 kappa d)); overflow-safe in kappa*d.
    return (a1 * a2 + kappa * kappa) * np.tanh(2 * kappa * d) + kappa * (a1 + a2)


def eigencondition(alpha1, alpha2, d, k):
    """Delta(k) for real or complex k; the eigenvalue condition is Delta(k) = 0."""
    return ((alpha1 * alpha2 - k * k) * np.sin(2 * k * d)
            + k * (alpha1 + alpha2) * np.cos(2 * k * d))


def eigencondition_scale(k, alpha1, alpha2, d):
    return abs(alpha1 * alpha2 - k * k) + abs(k) * (abs(alpha1) + abs(alpha2)) + 1.0


# ---------------------------------------------------------------------------
# symmetric case
# ---------------------------------------------------------------------------

def _even_equation(x, ad):
    # x = p d; pole-free form of p tan(pd) = alpha
    return x * np.sin(x) - ad * np.cos(x)


def _odd_equation(x, ad):
    # pole-free form of p cot(pd) = -alpha
    return x * np.cos(x) + ad * np.sin(x)


def _brent_lanes(f, a, b, xtol, rtol, maxiter):
    """Roots of many scalar functions at once, each as `brentq` finds it.

    A numpy port of scipy's Zeros/brentq.c in which every lane takes its own
    interpolate / extrapolate / bisect branch through `np.where`.  The
    arithmetic is the C code's, operation for operation, so lane i returns
    `brentq(f_i, a[i], b[i], xtol=xtol, rtol=rtol, maxiter=maxiter)` bit for
    bit.  `f(x, lanes)` gives the values of the lanes `lanes` (an index
    array) at the points `x`; converged lanes leave the working set.  Raises
    where brentq raises: ValueError for a NaN value or for a bracket whose
    ends have the same sign, RuntimeError when a lane has not converged
    after `maxiter` iterations.
    """
    def values(x, lanes):
        fx = f(x, lanes)
        nan = np.isnan(fx)
        if nan.any():
            raise ValueError(f"The function value at x={float(x[nan][0])} is "
                             "NaN; solver cannot continue.")
        return fx

    xpre, xcur = np.array(a, dtype=float), np.array(b, dtype=float)
    lanes = np.arange(xcur.size)
    fpre, fcur = values(xpre, lanes), values(xcur, lanes)
    root = np.where(fpre == 0, xpre, xcur)
    live = (fpre != 0) & (fcur != 0)
    if np.any(live & (np.signbit(fpre) == np.signbit(fcur))):
        raise ValueError("f(a) and f(b) must have different signs")
    if not live.any():
        return root
    lanes = lanes[live]
    xpre, xcur, fpre, fcur = xpre[live], xcur[live], fpre[live], fcur[live]
    xblk = fblk = spre = scur = np.zeros_like(xcur)
    for _ in range(maxiter):
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(flip, xpre, xblk)
        fblk = np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        if done.any():
            root[lanes[done]] = xcur[done]
            keep = ~done
            if not keep.any():
                return root
            lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                v[keep] for v in (lanes, xpre, xcur, xblk, fpre, fcur, fblk,
                                  spre, scur, delta, sbis))

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = (-fcur * (fblk * dblk - fpre * dpre)
                           / (dblk * dpre * (fblk - fpre)))
        stry = np.where(xpre == xblk, interpolate, extrapolate)
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < np.minimum(np.abs(spre),
                                                  3 * np.abs(sbis) - delta)))
        spre = np.where(short, scur, sbis)
        scur = np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur,
                               np.where(sbis > 0, delta, -delta))
        fcur = values(xcur, lanes)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


# lane kinds of the symmetric solve: the two real parity equations and their
# hyperbolic forms kappa d tanh(kappa d) = -alpha d (even) and
# kappa d coth(kappa d) = -alpha d (odd)
_EQUATIONS = (_even_equation, _odd_equation,
              lambda y, ad: y * np.tanh(y) + ad,
              lambda y, ad: y / np.tanh(y) + ad)


def _symmetric_solve(alphas, d, n_max):
    """Modes 0..n_max of the symmetric problem for every alpha, in one Brent pass.

    Mode n is the (n//2)-th root of its parity branch (the even and odd
    sub-spectra interlace).  The ground root of each parity sits on the
    hyperbolic form when the eigenvalue is negative and is exactly zero at
    alpha d = 0 (even) and alpha d = -1 (odd); every other root is one lane
    of `_brent_lanes` on its fixed bracket, the hyperbolic ones on (0, hi]
    with hi doubled until it brackets.  Returns (branch, k, eigenvalue,
    coef_sin, coef_cos), arrays of shape (len(alphas), n_max + 1), the
    coefficients normalising each eigenfunction on (-d, d).
    """
    if d <= 0:
        raise ValueError("d must be positive")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    n = np.arange(n_max + 1)[None, :]
    ad = np.asarray(alphas, dtype=float)[:, None] * d
    ad, n = np.broadcast_arrays(ad, n)
    even, j = n % 2 == 0, n // 2
    ground = j == 0
    zero = ground & np.where(even, ad == 0, ad == -1.0)
    hyper = ground & ~zero & ~np.where(even, ad > 0, ad > -1.0)  # NaN lands here too
    kind = np.where(even, 0, 1) + 2 * hyper
    lo = np.where(ground, np.where(kind == 3, 1e-12, 1e-300),
                  np.where(even, (2 * j - 1) * np.pi / 2, j * np.pi) + 1e-13)
    hi = np.where(even, (2 * j + 1) * np.pi / 2, (j + 1) * np.pi) - 1e-13

    solve = np.flatnonzero(~zero)
    lane_ad, lane_kind = ad.flat[solve], kind.flat[solve]

    def f(x, lanes):
        out = np.empty_like(x)
        kinds = lane_kind[lanes]
        for i, eq in enumerate(_EQUATIONS):
            m = kinds == i
            out[m] = eq(x[m], lane_ad[lanes[m]])
        return out

    lane_lo, lane_hi = lo.flat[solve], hi.flat[solve]
    grow = np.flatnonzero(lane_kind >= 2)
    lane_hi[grow] = np.maximum(-2 * lane_ad[grow], 1.0)
    while grow.size:
        grow = grow[f(lane_hi[grow], grow) < 0]
        lane_hi[grow] *= 2
    x = np.zeros(ad.shape)
    x.flat[solve] = _brent_lanes(f, lane_lo, lane_hi, **_BRENT_KW)

    k = x / d
    imag = kind >= 2
    branch = np.where(zero, ZERO, np.where(imag, IMAGINARY, REAL))
    lam = np.where(imag, -k * k, k * k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        wave = np.where(imag, np.sinh(2 * k * d), np.sin(2 * k * d)) / (2 * k)
        norm = 1.0 / np.sqrt(np.where(even, d + wave, np.where(imag, wave - d, d - wave)))
    norm = np.where(np.isfinite(norm), norm, 0.0)  # underflows for kappa*d >~ 350
    norm = np.where(zero, np.where(even, 1.0 / np.sqrt(2 * d),
                                   np.sqrt(3.0 / (2 * d ** 3))), norm)
    return branch, k, lam, np.where(even, 0.0, norm), np.where(even, norm, 0.0)


def _order_errors(alphas, d, eigenvalues):
    """Per row, the BracketingError message if its eigenvalues decrease, else ""."""
    alphas = np.asarray(alphas, dtype=float)
    # allow exponentially split pairs (large negative alpha) to tie in float64
    tol = 1e-12 * (1.0 + alphas * alphas + 1.0 / d ** 2)
    bad = np.any(eigenvalues[:, :-1] > eigenvalues[:, 1:] + tol[:, None], axis=1)
    return [f"symmetric spectrum not increasing: {row.tolist()}" if b else ""
            for row, b in zip(eigenvalues, bad)]


def symmetric_spectrum(alpha: float, d: float, n_max: int) -> list[TransverseMode]:
    """Modes 0..n_max of the symmetric problem, increasing eigenvalue.

    The one-alpha case of the table solve (`_symmetric_solve`).
    """
    cols = _symmetric_solve([alpha], d, n_max)
    error = _order_errors([alpha], d, cols[2])[0]
    if error:
        raise BracketingError(error)
    return _mode_list(cols, (alpha, alpha), d, ("even", "odd"))


def _mode_list(cols, alpha_pair, d, parities=(None, None)):
    """TransverseModes from the first row of a solve's column arrays."""
    return [TransverseMode(n, *entry, alpha_pair, d, parities[n % 2])
            for n, entry in enumerate(zip(*(c[0].tolist() for c in cols)))]


# ---------------------------------------------------------------------------
# asymmetric case
# ---------------------------------------------------------------------------

def _asymmetric_solve(alpha1, alpha2, d, n_max):
    """Modes 0..n_max of every (alpha_1, alpha_2) pair, in one Brent pass.

    Per pair: negative eigenvalues from the sign changes of Delta(i kappa)
    on 800 samples, then (possibly) a zero mode, then the first `count`
    roots of Delta(k)/k on 60 (count + 3) samples of (0, (count+3) pi/(2d)].
    With a zero mode Delta/k vanishes at the origin too, so the samplers
    start at 0.1/d, away from that sign noise.  Each bracket is one lane of
    `_brent_lanes`: every root is scalar brentq's bit for bit.  Returns
    (branch, k, eigenvalue, coef_sin, coef_cos), each (pairs, n_max + 1).
    """
    if d <= 0:
        raise ValueError("d must be positive")
    a1, a2 = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (alpha1, alpha2))
    pairs, modes = len(a1), n_max + 1
    # Delta(k)/k -> 2d a1 a2 + a1 + a2 as k -> 0; zero iff 0 is an eigenvalue
    scale = np.abs(a1) + np.abs(a2) + 1.0 / d
    has_zero = np.abs(2 * d * a1 * a2 + a1 + a2) < 1e-12 * scale
    start = np.maximum(1e-9, np.where(has_zero, 0.1 / d, 0.0))
    # by branch code: 0 real (k > 0), 1 imaginary (k = i kappa)
    equations = (lambda x, p: eigencondition(a1[p], a2[p], d, x) / x,
                 lambda x, p: _delta_imag(x, a1[p], a2[p], d))

    def brackets(kind, rows, stop, num, first):
        # (kind, pair, rank within the pair, lo, hi) of the first sign changes
        grid = np.linspace(start[rows], stop, num, axis=1)
        with np.errstate(invalid="ignore"):
            vals = equations[kind](grid, rows[:, None])
        r, i = np.nonzero(np.sign(vals[:, :-1]) * np.sign(vals[:, 1:]) < 0)
        rank = np.arange(len(r)) - np.searchsorted(r, r)
        r, i, rank = r[rank < first], i[rank < first], rank[rank < first]
        return np.full(len(r), kind), rows[r], rank, grid[r, i], grid[r, i + 1]

    every = np.arange(pairs)
    lanes = [brackets(1, every, 1.5 * (np.abs(a1) + np.abs(a2)) + 2.0 / d, 800,
                      np.inf)]
    n_neg = np.bincount(lanes[0][1], minlength=pairs)
    count = modes - n_neg - has_zero
    for c in np.unique(count[count > 0]):
        lanes.append(brackets(0, every[count == c], (c + 3) * np.pi / (2 * d),
                              60 * (c + 3), c))
    kind, pair, rank, lo, hi = map(np.concatenate, zip(*lanes))

    def f(x, lanes):
        out = np.empty_like(x)
        for j, eq in enumerate(equations):
            m = kind[lanes] == j
            out[m] = eq(x[m], pair[lanes[m]])
        return out

    roots = _brent_lanes(f, lo, hi, **_BRENT_KW)
    found = n_neg + has_zero + np.bincount(pair[kind == 0], minlength=pairs)
    if np.any(found < modes):
        raise BracketingError(
            f"found {found[found < modes][0]} modes, expected {modes}")
    # increasing eigenvalue: kappa decreasing, the zero mode, then k increasing
    slot = np.where(kind == 1, n_neg[pair] - 1 - rank,
                    (n_neg + has_zero)[pair] + rank)
    keep = slot < modes
    k = np.zeros((pairs, modes))
    branch = np.full((pairs, modes), 2)                 # zero mode
    k[pair[keep], slot[keep]] = roots[keep]
    branch[pair[keep], slot[keep]] = kind[keep]
    lam = np.where(branch == 1, -k * k, k * k)
    return ((np.array([REAL, IMAGINARY, ZERO])[branch], k, lam)
            + _asym_coefficients(branch, k, a1[:, None], a2[:, None], d))


def _asym_coefficients(kind, k, a1, a2, d):
    """Null vectors of the 2x2 boundary systems, then exact normalisation.

    kind: 0 real (A sin + B cos), 1 imaginary (A sinh + B cosh), 2 zero
    (A u + B).
    """
    wave, imag = kind < 2, kind == 1
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sd = np.where(imag, np.sinh(k * d), np.sin(k * d))
        cd = np.where(imag, np.cosh(k * d), np.cos(k * d))
        ksd = np.where(imag, k * sd, -(k * sd))         # phi'/k = A cd -+ B sd
        M = np.stack(np.broadcast_arrays(
            np.where(wave, k * cd + a1 * sd, 1 + a1 * d),
            np.where(wave, ksd + a1 * cd, a1),
            np.where(wave, -(k * cd + a2 * sd), -(1 + a2 * d)),
            np.where(wave, ksd + a2 * cd, a2)), axis=-1).reshape(k.shape + (2, 2))
        half = np.where(imag, np.sinh(2 * k * d), np.sin(2 * k * d)) / (2 * k)
    int_s2 = np.where(wave, np.where(imag, half - d, d - half), 2 * d ** 3 / 3)
    int_c2 = np.where(wave, d + half, 2 * d)
    finite = np.all(np.isfinite(M), axis=(-2, -1))
    M[~finite] = np.eye(2)
    A, B = np.moveaxis(np.linalg.svd(M)[2][..., -1, :], -1, 0)
    norm = np.sqrt(A * A * int_s2 + B * B * int_c2)  # cross term odd in u
    A, B = A / norm, B / norm
    flip = (B < 0) | ((B == 0) & (A < 0))  # fix the overall sign deterministically
    A, B = np.where(flip, -A, A), np.where(flip, -B, B)
    return np.where(finite, A, 0.0), np.where(finite, B, 0.0)


def _mode_values(branch, k, A, B, u):
    """Eigenfunctions at u for every entry of the (branch, k, A, B) arrays;
    the result has their shape followed by that of u."""
    u = np.asarray(u, dtype=float)
    b, k, A, B = (np.reshape(x, np.shape(x) + (1,) * u.ndim)
                  for x in (branch, k, A, B))
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(b == REAL, A * np.sin(k * u) + B * np.cos(k * u),
                       A * np.sinh(k * u) + B * np.cosh(k * u))
    out = np.where(b == ZERO, A * u + B, out)
    # an imaginary mode whose boundary layer is below float64 range is zero
    return np.where((b == IMAGINARY) & (A == 0.0) & (B == 0.0), 0.0, out)[()]


def _sign_changes(vals: np.ndarray) -> np.ndarray:
    """Sign changes of each row of `vals` along its last axis.

    Samples below 1e-8 of the row's largest magnitude are skipped, so a
    node sampled near zero is counted once.
    """
    mag = np.abs(vals)
    sig = np.where(mag > 1e-8 * mag.max(axis=-1, keepdims=True),
                   np.sign(vals), 0.0)
    # carry the last kept sign forward over the skipped samples
    kept = np.where(sig != 0, np.arange(sig.shape[-1]), 0)
    sig = np.take_along_axis(sig, np.maximum.accumulate(kept, axis=-1), -1)
    return np.count_nonzero(sig[..., 1:] * sig[..., :-1] < 0, axis=-1)


def asymmetric_spectrum(alpha1: float, alpha2: float, d: float,
                        n_max: int) -> list[TransverseMode]:
    """Modes 0..n_max of the (alpha_1, alpha_2) problem, increasing eigenvalue.

    The one-pair case of the lane-wise solve (`_asymmetric_solve`).  A Sturm
    oscillation count guards against missed or spurious roots: sampled on
    2000 points, mode n must change sign exactly n times, unless its
    boundary layer underflowed to zero.
    """
    cols = _asymmetric_solve([alpha1], [alpha2], d, n_max)
    branch, k, _, A, B = (c[0] for c in cols)
    vals = _mode_values(branch, k, A, B, np.linspace(-d, d, 2000)[1:-1])
    bad = ((np.max(np.abs(vals), axis=-1) > 0)
           & (_sign_changes(vals) != np.arange(n_max + 1)))
    if bad.any():
        raise BracketingError("oscillation count inconsistent with mode indices")
    return _mode_list(cols, (alpha1, alpha2), d)


# ---------------------------------------------------------------------------
# resolvent kernel
# ---------------------------------------------------------------------------

def resolvent_kernel(alpha1, alpha2, d, k, u, up):
    """Integral kernel of (h_{a1,a2} - k^2)^{-1}, Im k >= 0, k^2 off the spectrum.

    Three-term closed form; the overall prefactor is 1/(2k) (the only form
    with the dimensions of a 1D Green's function, and the one that matches
    the eigenfunction expansion).
    """
    k = complex(k)
    if k.imag < -1e-15:
        raise NearSpectrumError("resolvent kernel requires Im k >= 0")
    if abs(k) == 0:
        raise NearSpectrumError("k = 0 is on the spectrum boundary")
    delta = eigencondition(alpha1, alpha2, d, k)
    cos2 = np.cos(2 * k * d)
    scale = eigencondition_scale(abs(k), alpha1, alpha2, d)
    if abs(delta) < 1e-10 * scale:
        raise NearSpectrumError(f"|Delta(k)| = {abs(delta):.3g} too small: "
                                "k^2 is numerically on the spectrum")
    if abs(cos2) < 1e-10:
        raise NearSpectrumError("cos(2kd) ~ 0: closed form degenerates here")
    u = np.asarray(u, dtype=float)
    up = np.asarray(up, dtype=float)
    t1 = np.sin(k * (2 * d - np.abs(u - up))) / cos2
    t2 = -((k * (alpha1 - alpha2) * np.sin(k * (u + up))
            - (alpha1 * alpha2 + k * k) * np.cos(k * (u + up))) / delta)
    t3 = -((alpha1 * alpha2 - k * k) * np.cos(k * (u - up))) / (cos2 * delta)
    return (t1 + t2 + t3) / (2 * k)


# ---------------------------------------------------------------------------
# perturbation coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationCoefficients:
    n: int
    mu: float
    lambda2: float
    beta: float


def _den1(alpha, mu, d, n):
    """alpha^2 + mu, elementwise, for mode n of the symmetric problem.

    For mu = -kappa^2 < 0 (the ground mode of a parity, alpha < 0) the
    secular equation gives |alpha| - kappa without a subtraction: even modes
    (kappa tanh kappa d = -alpha) -2 kappa / (e^(2 kappa d) + 1), odd modes
    (kappa coth kappa d = -alpha) 2 kappa / (e^(2 kappa d) - 1); then
    alpha^2 + mu = (|alpha| - kappa)(|alpha| + kappa), about
    -+4 alpha^2 e^(-2 |alpha| d) on the tunnelling-split pair, where the
    direct sum keeps none of its digits.  Elsewhere it is the direct sum.
    """
    kappa = np.sqrt(np.maximum(-mu, 0.0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gap = np.where(np.asarray(n) % 2 == 0,
                       -2 * kappa / (np.exp(2 * kappa * d) + 1),
                       2 * kappa / np.expm1(2 * kappa * d))
    return np.where(mu < 0, gap * (np.abs(alpha) + kappa), alpha * alpha + mu)


def _lambda2(alpha, mu, d, n):
    """lambda2 elementwise for mode n with eigenvalue mu at (alpha, d),

        lambda2 = -mu [alpha - 2d(alpha^2 + mu)] / (2 d^2 (alpha^2+mu) [alpha + d(alpha^2+mu)]),

    nan where the formula is singular: alpha + d (alpha^2 + mu) = 0.
    alpha^2 + mu (`_den1`) is nonzero at finite d, so it needs no test;
    with it the entries grow like e^(2 |alpha| d) as alpha d -> -inf.  The
    joint limit (alpha, mu_0) -> (0, 0) along mu_0 ~ alpha/d is 1/(4 d^2),
    returned where both vanish to tolerance."""
    alpha, mu = np.asarray(alpha, dtype=float), np.asarray(mu, dtype=float)
    scale = (np.abs(alpha) + 1.0 / d) ** 2
    origin = (np.abs(alpha) < 1e-9 / d) & (np.abs(mu) < 1e-9 / d ** 2)
    den1 = _den1(alpha, mu, d, n)
    den2 = alpha + d * den1
    singular = ~origin & (np.abs(den2) < 1e-12 * scale * d)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam2 = -mu * (alpha - 2 * d * den1) / (2 * d * d * den1 * den2)
    return np.where(singular, np.nan, np.where(origin, 1.0 / (4 * d * d), lam2))


@dataclass(frozen=True)
class BetaTable:
    """beta_n(alpha) on a grid: `alpha` (A,); `mu`, `lambda2`, `beta`
    (A, n_max + 1), the last two nan where lambda2 is singular; `errors`,
    each row's BracketingError message, "" where its eigenvalues increase."""

    alpha: np.ndarray
    mu: np.ndarray
    lambda2: np.ndarray
    beta: np.ndarray
    errors: list

    def check_order(self) -> BetaTable:
        """The table itself; raises the first row's BracketingError if any."""
        for error in filter(None, self.errors):
            raise BracketingError(error)
        return self


def beta_table(alpha_grid, d: float, n_max: int) -> BetaTable:
    """beta_n(alpha) for modes 0..n_max over a grid, from one solve of the
    whole table; singular points and decreasing rows are marked, not fatal."""
    alpha = np.array(alpha_grid, dtype=float)
    mu = _symmetric_solve(alpha, d, n_max)[2]
    lam2 = _lambda2(alpha[:, None], mu, d, np.arange(n_max + 1))
    return BetaTable(alpha, mu, lam2, -0.25 + lam2, _order_errors(alpha, d, mu))


def perturbation_coefficients(alpha: float, d: float, n: int) -> PerturbationCoefficients:
    """Mode n of the one-alpha `beta_table`; raises its row's BracketingError,
    or SingularDenominatorError where lambda2 is singular."""
    table = beta_table([alpha], d, n).check_order()
    mu, lam2 = table.mu[0, n].item(), table.lambda2[0, n].item()
    if np.isnan(lam2):
        raise SingularDenominatorError(
            f"lambda2 denominator vanishes at alpha={alpha}, mu={mu}")
    return PerturbationCoefficients(n, mu, lam2, table.beta[0, n].item())


def mu_table(alpha_grid, d: float, n_max: int) -> np.ndarray:
    """Eigenvalue curves mu_n(alpha), (A, n_max + 1): `beta_table`'s `mu`;
    raises the first decreasing row's BracketingError.  No library code
    calls it; bench/spans.py traces it by name."""
    return beta_table(alpha_grid, d, n_max).check_order().mu
