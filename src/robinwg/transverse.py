"""Robin Laplacian on the interval (-d, d): spectra, eigenfunctions, resolvent.

The operator is -d^2/du^2 with boundary conditions

    psi'(d) + alpha_1 psi(d) = 0,      -psi'(-d) + alpha_2 psi(-d) = 0.

Eigenvalues lambda_n = k_n^2 solve

    Delta(k) = (alpha_1 alpha_2 - k^2) sin(2kd) + k (alpha_1 + alpha_2) cos(2kd) = 0,

with k real (lambda > 0) or k = i*kappa (lambda < 0).  The symmetric case
alpha_1 = alpha_2 = alpha splits by parity:

    even:  p sin(pd) - alpha cos(pd) = 0        (cosine modes)
    odd:   p cos(pd) + alpha sin(pd) = 0        (sine modes)

Perturbing (alpha_1, alpha_2) around (alpha, alpha) through the curvature
parameter eta gives lambda_n = mu_n + lambda2 * (d eta)^2 + O(eta^3); the
first-order term vanishes identically.  The coupling fed to the effective
longitudinal operators is beta_n = -1/4 + lambda2 (with alpha, mu in units
of the half-width, i.e. the d = 1 normalisation of all reported tables).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import BracketingError, NearSpectrumError, SingularDenominatorError

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
        u = np.asarray(u, dtype=float)
        A, B, k = self.coef_sin, self.coef_cos, self.k
        if self.branch == REAL:
            return A * np.sin(k * u) + B * np.cos(k * u)
        if self.branch == IMAGINARY:
            if A == 0.0 and B == 0.0:  # boundary layer below float64 range
                return np.zeros_like(u)
            return A * np.sinh(k * u) + B * np.cosh(k * u)
        return A * u + B * np.ones_like(u)

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


def _even_wavenumber(alpha, d, j):
    """j-th even-branch root (j = 0, 1, ...), branch-tagged (branch, k)."""
    ad = alpha * d
    if j == 0:
        if ad > 0:
            x = brentq(_even_equation, 1e-300, np.pi / 2 - 1e-13, args=(ad,), **_BRENT_KW)
            return REAL, x / d
        if ad == 0:
            return ZERO, 0.0
        # kappa d tanh(kappa d) = -alpha d on (0, inf)
        g = lambda y: y * np.tanh(y) + ad
        hi = max(1.0, -2 * ad)
        while g(hi) < 0:
            hi *= 2
        y = brentq(g, 1e-300, hi, **_BRENT_KW)
        return IMAGINARY, y / d
    lo = (2 * j - 1) * np.pi / 2 + 1e-13
    hi = (2 * j + 1) * np.pi / 2 - 1e-13
    x = brentq(_even_equation, lo, hi, args=(ad,), **_BRENT_KW)
    return REAL, x / d


def _odd_wavenumber(alpha, d, j):
    """j-th odd-branch root (j = 0, 1, ...)."""
    ad = alpha * d
    if j == 0:
        if ad > -1.0:
            x = brentq(_odd_equation, 1e-300, np.pi - 1e-13, args=(ad,), **_BRENT_KW)
            return REAL, x / d
        if ad == -1.0:
            return ZERO, 0.0
        # kappa d coth(kappa d) = -alpha d has a root iff -alpha d > 1
        g = lambda y: y / np.tanh(y) + ad
        hi = max(1.0, -2 * ad)
        while g(hi) < 0:
            hi *= 2
        y = brentq(g, 1e-12, hi, **_BRENT_KW)
        return IMAGINARY, y / d
    lo = j * np.pi + 1e-13
    hi = (j + 1) * np.pi - 1e-13
    x = brentq(_odd_equation, lo, hi, args=(ad,), **_BRENT_KW)
    return REAL, x / d


def _symmetric_mode(alpha, d, n) -> TransverseMode:
    even = (n % 2 == 0)
    j = n // 2 if even else (n - 1) // 2
    branch, k = (_even_wavenumber if even else _odd_wavenumber)(alpha, d, j)
    parity = "even" if even else "odd"
    if branch == ZERO:
        if even:
            A, B = 0.0, 1.0 / np.sqrt(2 * d)
        else:
            A, B = np.sqrt(3.0 / (2 * d ** 3)), 0.0
        lam = 0.0
    elif branch == REAL:
        lam = k * k
        if even:
            A, B = 0.0, 1.0 / np.sqrt(d + np.sin(2 * k * d) / (2 * k))
        else:
            A, B = 1.0 / np.sqrt(d - np.sin(2 * k * d) / (2 * k)), 0.0
    else:
        lam = -k * k
        with np.errstate(over="ignore"):
            if even:
                A, B = 0.0, 1.0 / np.sqrt(d + np.sinh(2 * k * d) / (2 * k))
            else:
                A, B = 1.0 / np.sqrt(np.sinh(2 * k * d) / (2 * k) - d), 0.0
        if not (np.isfinite(A) and np.isfinite(B)):
            A = B = 0.0  # normalisation underflows for kappa*d >~ 350
    return TransverseMode(n, branch, k, lam, A, B, (alpha, alpha), d, parity)


def symmetric_spectrum(alpha: float, d: float, n_max: int) -> list[TransverseMode]:
    """Modes 0..n_max of the symmetric problem, increasing eigenvalue.

    The even and odd sub-spectra interlace, so the n-th mode is the
    (n//2)-th root of its parity branch; negative eigenvalues come from the
    hyperbolic forms of the same equations.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    modes = [_symmetric_mode(alpha, d, n) for n in range(n_max + 1)]
    eigs = [m.eigenvalue for m in modes]
    # allow exponentially split pairs (large negative alpha) to tie in float64
    tol = 1e-12 * (1.0 + alpha * alpha + 1.0 / d ** 2)
    if any(eigs[i] > eigs[i + 1] + tol for i in range(len(eigs) - 1)):
        raise BracketingError(f"symmetric spectrum not increasing: {eigs}")
    return modes


# ---------------------------------------------------------------------------
# asymmetric case
# ---------------------------------------------------------------------------

def _zero_mode_defect(a1, a2, d):
    # Delta(k)/k -> 2d a1 a2 + a1 + a2 as k -> 0; zero iff 0 is an eigenvalue
    return 2 * d * a1 * a2 + a1 + a2


def _negative_wavenumbers(a1, a2, d, k_floor=0.0):
    kap_max = 1.5 * (abs(a1) + abs(a2)) + 2.0 / d
    grid = np.linspace(max(1e-9, k_floor), kap_max, 800)
    vals = _delta_imag(grid, a1, a2, d)
    sign_flip = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    roots = [brentq(_delta_imag, grid[i], grid[i + 1], args=(a1, a2, d), **_BRENT_KW)
             for i in sign_flip]
    return sorted(roots, reverse=True)  # most negative eigenvalue first


def _positive_wavenumbers(a1, a2, d, count, k_floor=0.0):
    if count <= 0:
        return []
    k_max = (count + 3) * np.pi / (2 * d)
    n_samp = 60 * (count + 3)
    grid = np.linspace(max(1e-9, k_floor), k_max, n_samp)
    # divide out the trivial k=0 root
    with np.errstate(invalid="ignore"):
        vals = eigencondition(a1, a2, d, grid) / grid
    sign_flip = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    f = lambda k: eigencondition(a1, a2, d, k) / k
    roots = [brentq(f, grid[i], grid[i + 1], **_BRENT_KW) for i in sign_flip]
    return sorted(roots)[:count]


def _asym_coefficients(branch, k, a1, a2, d):
    """Null vector of the 2x2 boundary system, then exact normalisation."""
    if branch == REAL:
        sd, cd = np.sin(k * d), np.cos(k * d)
        M = np.array([[k * cd + a1 * sd, a1 * cd - k * sd],
                      [-(k * cd + a2 * sd), a2 * cd - k * sd]])
        int_s2 = d - np.sin(2 * k * d) / (2 * k)
        int_c2 = d + np.sin(2 * k * d) / (2 * k)
    elif branch == IMAGINARY:
        with np.errstate(over="ignore"):
            sd, cd = np.sinh(k * d), np.cosh(k * d)
            # phi = A sinh + B cosh; phi' = k(A cosh + B sinh)
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
    norm = np.sqrt(A * A * int_s2 + B * B * int_c2)  # cross term odd in u
    A, B = A / norm, B / norm
    if B < 0 or (B == 0 and A < 0):  # fix the overall sign deterministically
        A, B = -A, -B
    return A, B


def _oscillation_counts_ok(modes, n_grid=2000):
    """Sturm check: the n-th eigenfunction changes sign exactly n times."""
    if not modes:
        return True
    d = modes[0].d
    u = np.linspace(-d, d, n_grid)[1:-1]
    for m in modes:
        vals = m(u)
        if np.max(np.abs(vals)) == 0.0:  # underflowed boundary layer
            continue
        big = np.abs(vals) > 1e-8 * np.max(np.abs(vals))
        sig = np.sign(vals[big])
        changes = int(np.sum(sig[:-1] * sig[1:] < 0))
        if changes != m.n:
            return False
    return True


def asymmetric_spectrum(alpha1: float, alpha2: float, d: float,
                        n_max: int, validate: bool = True) -> list[TransverseMode]:
    """Modes 0..n_max of the (alpha_1, alpha_2) problem, increasing eigenvalue.

    Negative eigenvalues from the hyperbolic branch, then (possibly) a zero
    mode, then real roots of Delta(k)/k bracketed on a dense grid.  A Sturm
    oscillation count guards against missed or spurious roots.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    entries = []
    scale = abs(alpha1) + abs(alpha2) + 1.0 / d
    has_zero = abs(_zero_mode_defect(alpha1, alpha2, d)) < 1e-12 * scale
    # with a genuine zero mode, Delta/k vanishes at the origin too; keep the
    # samplers away from the resulting sign noise (the next root is O(1/d) off)
    k_floor = 0.1 / d if has_zero else 0.0
    for kap in _negative_wavenumbers(alpha1, alpha2, d, k_floor):
        entries.append((IMAGINARY, kap, -kap * kap))
    if has_zero:
        entries.append((ZERO, 0.0, 0.0))
    for k in _positive_wavenumbers(alpha1, alpha2, d, n_max + 1 - len(entries),
                                   k_floor):
        entries.append((REAL, k, k * k))
    entries.sort(key=lambda e: e[2])
    entries = entries[:n_max + 1]
    if len(entries) != n_max + 1:
        raise BracketingError(
            f"found {len(entries)} modes, expected {n_max + 1}")
    modes = []
    for n, (branch, k, lam) in enumerate(entries):
        A, B = _asym_coefficients(branch, k, alpha1, alpha2, d)
        modes.append(TransverseMode(n, branch, k, lam, A, B, (alpha1, alpha2), d))
    if validate and not _oscillation_counts_ok(modes):
        raise BracketingError("oscillation count inconsistent with mode indices")
    return modes


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


def lambda2_coefficient(alpha: float, mu_n: float, d: float) -> float:
    """Second-order eigenvalue coefficient in the (d eta)^2 expansion.

        lambda2 = -mu [alpha - 2d(alpha^2 + mu)] / (2 d^2 (alpha^2+mu) [alpha + d(alpha^2+mu)])

    The joint limit (alpha, mu_0) -> (0, 0) along mu_0 ~ alpha/d is finite
    and equals 1/(4 d^2); it is returned when both arguments vanish to
    tolerance.  Elsewhere a vanishing denominator raises.
    """
    scale = (abs(alpha) + 1.0 / d) ** 2
    if abs(alpha) < 1e-9 / d and abs(mu_n) < 1e-9 / d ** 2:
        return 1.0 / (4 * d * d)
    den1 = alpha * alpha + mu_n
    den2 = alpha + d * den1
    if abs(den1) < 1e-12 * scale or abs(den2) < 1e-12 * scale * d:
        raise SingularDenominatorError(
            f"lambda2 denominator vanishes at alpha={alpha}, mu={mu_n}")
    return -mu_n * (alpha - 2 * d * den1) / (2 * d * d * den1 * den2)


def beta_coefficient(alpha: float, mu_n: float, d: float) -> float:
    """Effective longitudinal coupling beta_n = -1/4 + lambda2."""
    return -0.25 + lambda2_coefficient(alpha, mu_n, d)


def perturbation_coefficients(alpha: float, d: float, n: int) -> PerturbationCoefficients:
    mode = _symmetric_mode(alpha, d, n)
    lam2 = lambda2_coefficient(alpha, mode.eigenvalue, d)
    return PerturbationCoefficients(n, mode.eigenvalue, lam2, -0.25 + lam2)


@dataclass(frozen=True)
class BetaTableRow:
    alpha: float
    mu: tuple
    lambda2: tuple          # entries None where the formula is singular
    beta: tuple
    bad: tuple              # error messages, "" where fine


def beta_table(alpha_grid, d: float, n_max: int) -> list[BetaTableRow]:
    """beta_n(alpha) over a grid; singular points are marked, not fatal."""
    rows = []
    for alpha in alpha_grid:
        mus, l2s, bts, bad = [], [], [], []
        try:
            modes = symmetric_spectrum(alpha, d, n_max)
        except BracketingError as exc:
            rows.append(BetaTableRow(alpha, (), (), (),
                                     tuple([str(exc)] * (n_max + 1))))
            continue
        for m in modes:
            mus.append(m.eigenvalue)
            try:
                l2 = lambda2_coefficient(alpha, m.eigenvalue, d)
                l2s.append(l2)
                bts.append(-0.25 + l2)
                bad.append("")
            except SingularDenominatorError as exc:
                l2s.append(None)
                bts.append(None)
                bad.append(str(exc))
        rows.append(BetaTableRow(alpha, tuple(mus), tuple(l2s), tuple(bts), tuple(bad)))
    return rows


def mu_table(alpha_grid, d: float, n_max: int):
    """Eigenvalue curves mu_n(alpha); the data behind the spectrum plot."""
    out = []
    for alpha in alpha_grid:
        modes = symmetric_spectrum(alpha, d, n_max)
        out.append((alpha, tuple(m.eigenvalue for m in modes)))
    return out
