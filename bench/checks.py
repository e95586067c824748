"""Output checks for the benchmark, computed apart from robinwg.

Nothing here imports robinwg.  Every check compares a program output with
a closed form, a property the method must have, or an independent
computation done by this file's own code (a fixed-step RK4 zero-energy
integrator, the parity equations of the symmetric Robin problem, a Thomas
tridiagonal solve).  Each check function returns a
list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

MATCH = "converges-to-predicted"

# tolerances, fixed from the accuracy the methods promise, not from today's
# output: the ODE and Brent tolerances are 1e-12/1e-13, so roots and the
# resonance constants are held to 1e-9 relative
ROOT_REL_TOL = 1e-9
CONST_TOL = 1e-7
COVARIANCE_REL_TOL = 1e-10
PARITY_TOL = 1e-9
LANDMARK_TOL = 1e-10
# halving eps must cut the error by at least 2**-0.25 (16 %), a quarter of
# the O(eps) rate, or the curve is a floor rather than a decay
MIN_LOCAL_EXPONENT = 0.25
# extrapolated 1D transmission against 2 c+ c- iw / (iw - b_hat); the
# window estimate is linear in eps, so an O(eps^2) remainder of ~1e-2
# survives the extrapolation from eps = 0.1 .. 0.025
TAU_1D_TOL = 0.03
# 2D free transmission within 5 % of 1
TAU_2D_TOL = 0.05
STRIP_TOL = 1e-8


# ---------------------------------------------------------------------------
# independent numerics
# ---------------------------------------------------------------------------

def bump_squared(amplitude, center, half_width):
    """gamma^2 of the smooth bump amplitude * exp(-1/(1-t^2))."""
    def g2(s):
        t = (np.asarray(s, dtype=float) - center) / half_width
        out = np.zeros_like(t)
        m = np.abs(t) < 1.0
        out[m] = amplitude ** 2 * np.exp(-2.0 / (1.0 - t[m] ** 2))
        return out
    return g2


def zero_energy(gamma2, support, betas, n_steps=4000):
    """RK4 for f'' = beta gamma^2 f, f = 1, f' = 0 at the left support edge.

    Vectorised over betas.  Returns (D, f_right, int v f^2, nodes) where
    nodes counts the zeros of the solution on the whole line: sign changes
    inside the support plus one if the linear continuation f_right + D (s -
    hi) crosses zero to the right.
    """
    lo, hi = support
    b = np.atleast_1d(np.asarray(betas, dtype=float))
    h = (hi - lo) / n_steps
    g2 = gamma2(lo + 0.5 * h * np.arange(2 * n_steps + 1))
    f = np.ones_like(b)
    p = np.zeros_like(b)
    q = np.zeros_like(b)
    nodes = np.zeros(len(b), dtype=int)
    for i in range(n_steps):
        va, vm, vb = b * g2[2 * i], b * g2[2 * i + 1], b * g2[2 * i + 2]
        f2 = f + 0.5 * h * p
        p2 = p + 0.5 * h * va * f
        f3 = f + 0.5 * h * p2
        p3 = p + 0.5 * h * vm * f2
        f4 = f + h * p3
        p4 = p + h * vm * f3
        fn = f + h / 6 * (p + 2 * p2 + 2 * p3 + p4)
        pn = p + h / 6 * (va * f + 2 * vm * f2 + 2 * vm * f3 + vb * f4)
        q = q + h / 6 * (va * f * f + 2 * vm * f2 * f2 + 2 * vm * f3 * f3
                         + vb * f4 * f4)
        nodes += (fn * f < 0)
        f, p = fn, pn
    nodes += (f * p < 0)
    return p, f, q, nodes


def resonance_constants(f_right, int_vf2):
    """(c_-, c_+, b_hat/b) from the left-normalised zero-energy solution."""
    norm = math.hypot(1.0, f_right)
    return 1.0 / norm, f_right / norm, int_vf2 / norm ** 2


def robin_ground_mu(alpha):
    """mu_0 < 0 of -d^2/du^2 on (-1, 1) with Robin constant alpha < 0.

    The even ground state cosh(kappa u) needs kappa tanh(kappa) = -alpha.
    """
    kappa = _bisect(lambda y: y * math.tanh(y) + alpha, 0.0, 1.0 - 2 * alpha)
    return -kappa * kappa


def beta_from_mu(alpha, mu):
    """beta_n = -1/4 + lambda2 at d = 1 (second-order eigenvalue shift)."""
    den1 = alpha * alpha + mu
    return -0.25 - mu * (alpha - 2 * den1) / (2 * den1 * (alpha + den1))


def _bisect(g, lo, hi):
    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0 or hi - lo < 1e-16 * max(1.0, abs(mid)):
            return mid
        if (gm < 0) == (glo < 0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def free_resolvent_1d(h, z, f):
    """(-D2 - z)^{-1} f with Dirichlet caps, by the Thomas algorithm."""
    n = len(f)
    off = -1.0 / h ** 2
    diag = 2.0 / h ** 2 - z
    c = np.empty(n, dtype=complex)
    d = np.empty(n, dtype=complex)
    c[0] = off / diag
    d[0] = f[0] / diag
    for i in range(1, n):
        m = diag - off * c[i - 1]
        c[i] = off / m
        d[i] = (f[i] - off * d[i - 1]) / m
    x = np.empty(n, dtype=complex)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def sqrt_upper(z):
    w = cmath.sqrt(complex(z))
    return -w if w.imag < 0 else w


def transmission_formula(c_minus, c_plus, b_hat, z):
    """tau = 2 c+ c- iw / (iw - b_hat), w = sqrt(z) with Im w > 0."""
    iw = 1j * sqrt_upper(z)
    return 2 * c_plus * c_minus * iw / (iw - b_hat)


# ---------------------------------------------------------------------------
# checks on resonance outputs
# ---------------------------------------------------------------------------

def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check_square_well(doc):
    """resonance.json of the square-well scan: beta* = -pi^2, f_r = cos(pi s)."""
    fails = []
    beta = doc.get("beta_star")
    res = doc.get("result", {})
    if beta is None or not res.get("resonant"):
        return ["square well: no resonance found"]
    if _rel(beta, -math.pi ** 2) > ROOT_REL_TOL:
        fails.append(f"square well: beta* = {beta!r}, expected -pi^2")
    r = 1.0 / math.sqrt(2.0)
    if abs(res["c_minus"] - r) > CONST_TOL or abs(res["c_plus"] + r) > CONST_TOL:
        fails.append(f"square well: (c-, c+) = ({res['c_minus']}, {res['c_plus']}), "
                     "expected (1/sqrt2, -1/sqrt2)")
    if _rel(res["b_hat_per_b"], -math.pi ** 2 / 4) > CONST_TOL:
        fails.append(f"square well: b_hat/b = {res['b_hat_per_b']}, expected -pi^2/4")
    return fails


def check_scan_root(doc, gamma2, support, label):
    """A scanned root checked by an independent integration.

    The Newton step from the reported beta* must be below 1e-9 relative,
    the Sturm node count must step from 1 to 2 across beta* (so it is the
    first resonance of the attractive family), and (c-, c+, b_hat/b) must
    match the independent solution.
    """
    beta = doc.get("beta_star")
    res = doc.get("result", {})
    if beta is None or not res.get("resonant"):
        return [f"{label}: no resonance found"]
    db = 1e-6 * abs(beta)
    side = 1e-3 * abs(beta)
    D, fr, q, nodes = zero_energy(gamma2, support,
                                  [beta, beta - db, beta + db,
                                   beta + side, beta - side])
    fails = []
    slope = (D[2] - D[1]) / (2 * db)
    step = D[0] / slope
    if abs(step) > ROOT_REL_TOL * abs(beta):
        fails.append(f"{label}: beta* = {beta!r} is {abs(step / beta):.3g} "
                     "(relative) from the independent root")
    if (nodes[3], nodes[4]) != (1, 2):
        fails.append(f"{label}: node counts {nodes[3]}, {nodes[4]} across beta*, "
                     "expected 1 then 2 (first resonance)")
    cm, cp, bh = resonance_constants(fr[0], q[0])
    if (abs(res["c_minus"] - cm) > CONST_TOL or abs(res["c_plus"] - cp) > CONST_TOL
            or abs(res["b_hat_per_b"] - bh) > CONST_TOL * max(1.0, abs(bh))):
        fails.append(f"{label}: (c-, c+, b_hat/b) = ({res['c_minus']}, "
                     f"{res['c_plus']}, {res['b_hat_per_b']}), independent "
                     f"({cm}, {cp}, {bh})")
    return fails


def check_amplitude_covariance(base, scaled, amplitude_factor):
    """beta*(A gamma) A^2 = beta*(gamma); c+- and b_hat/b unchanged."""
    if base.get("beta_star") is None or scaled.get("beta_star") is None:
        return ["covariance: a scan found no resonance"]
    fails = []
    b0 = base["beta_star"]
    b1 = scaled["beta_star"] * amplitude_factor ** 2
    if _rel(b1, b0) > COVARIANCE_REL_TOL:
        fails.append(f"covariance: beta*(A gamma) A^2 = {b1!r} != beta*(gamma) = {b0!r}")
    for key in ("c_minus", "c_plus", "b_hat_per_b"):
        a, b = base["result"][key], scaled["result"][key]
        if abs(a - b) > 1e-9 * max(1.0, abs(a)):
            fails.append(f"covariance: {key} {b!r} != {a!r}")
    return fails


# ---------------------------------------------------------------------------
# checks on the spectrum table
# ---------------------------------------------------------------------------

def check_spectrum(mu_rows, beta_rows, n_max):
    """mu_table / beta_table rows: landmarks, negative counts, parity equations."""
    fails = []
    mu = np.array(mu_rows, dtype=float)               # alpha, n, mu_n
    alphas = mu[:, 0].reshape(-1, n_max + 1)[:, 0]
    M = mu[:, 2].reshape(-1, n_max + 1)
    if np.any(mu[:, 1].reshape(-1, n_max + 1) != np.arange(n_max + 1)):
        return ["spectrum: rows are not (alpha, n = 0..n_max) blocks"]

    # landmarks at alpha = 0
    i0 = np.nonzero(alphas == 0.0)[0]
    if len(i0) != 1:
        fails.append("spectrum: alpha = 0 is not on the grid")
    else:
        want = (np.arange(n_max + 1) * math.pi / 2) ** 2
        if np.max(np.abs(M[i0[0]] - want)) > LANDMARK_TOL * max(1.0, want[-1]):
            fails.append(f"spectrum: mu_n(0) = {M[i0[0]].tolist()}, expected (n pi/2)^2")
        b0 = {int(r[1]): r[4] for r in beta_rows if r[0] == 0.0}
        want_b = [0.0] + [0.75] * n_max
        if any(b0.get(n) is None or abs(b0[n] - want_b[n]) > LANDMARK_TOL
               for n in range(n_max + 1)):
            fails.append(f"spectrum: beta_n(0) = {b0}, expected 0 then 3/4")

    # negative eigenvalue counts: 0 for alpha >= 0, 1 on [-1, 0), 2 below -1
    neg = np.sum(M < 0, axis=1)
    want_neg = (alphas < 0).astype(int) + (alphas < -1).astype(int)
    bad = np.nonzero(neg != want_neg)[0]
    if len(bad):
        fails.append(f"spectrum: negative-eigenvalue count wrong at alpha = "
                     f"{alphas[bad[:3]].tolist()}")

    # parity equations in pole-free form, and the bracket of each root
    A = np.repeat(alphas[:, None], n_max + 1, axis=1)
    n = np.arange(n_max + 1)[None, :].repeat(len(alphas), axis=0)
    even = n % 2 == 0
    pos = M > 0
    p = np.sqrt(np.abs(M))
    with np.errstate(over="ignore", invalid="ignore"):
        r_even = np.where(pos, p * np.sin(p) - A * np.cos(p),
                          p * np.tanh(p) + A)
        r_odd = np.where(pos, p * np.cos(p) + A * np.sin(p),
                         p + A * np.tanh(p))
    resid = np.abs(np.where(even, r_even, r_odd)) / (1.0 + p + np.abs(A))
    resid[M == 0] = 0.0
    resid[~np.isfinite(resid)] = np.inf
    if np.max(resid) > PARITY_TOL:
        k = np.unravel_index(np.argmax(resid), resid.shape)
        fails.append(f"spectrum: parity equation residual {resid[k]:.3g} at "
                     f"alpha = {alphas[k[0]]}, n = {k[1]}")
    j = n // 2
    lo = np.where(even, (2 * j - 1) * math.pi / 2, j * math.pi)
    hi = np.where(even, (2 * j + 1) * math.pi / 2, (j + 1) * math.pi)
    upper = n >= 2
    if np.any(upper & ((p <= lo) | (p >= hi) | ~pos)):
        fails.append("spectrum: some sqrt(mu_n), n >= 2, lies outside its parity bracket")
    if np.any(np.diff(M, axis=1) < -1e-12 * (1.0 + np.abs(M[:, 1:]))):
        fails.append("spectrum: mu_n not increasing in n")

    # beta_table repeats mu_table's eigenvalues
    bmu = np.array([r[2] for r in beta_rows], dtype=float)
    if bmu.shape != mu[:, 2].shape or np.any(bmu != mu[:, 2]):
        fails.append("spectrum: beta_table mu_n differs from mu_table")
    return fails


# ---------------------------------------------------------------------------
# checks on convergence reports (1D and 2D)
# ---------------------------------------------------------------------------

def check_floor_verdict(report):
    """A match must show errors still decaying over the last two eps.

    Otherwise the report must carry a discretisation estimate and a note
    that the errors sit at it.
    """
    if report["verdict"] != MATCH:
        return []
    e, eps = report["errors"], report["eps_list"]
    local = math.log(e[-2] / e[-1]) / math.log(eps[-2] / eps[-1])
    if local >= MIN_LOCAL_EXPONENT:
        return []
    if (report.get("discretization_estimate") is not None
            and any("floor" in note for note in report.get("notes", []))):
        return []
    return [f"floor verdict: {MATCH} with last-halving exponent {local:.2f} "
            f"(errors {e[-2]:.3g} -> {e[-1]:.3g}), no discretisation estimate "
            "or floor note"]


def check_convergence(report, kind, label, threshold):
    """Predicted kind, a decaying error curve that beats the alternative."""
    fails = []
    if report["predicted"]["kind"] != kind:
        fails.append(f"{label}: predicted {report['predicted']['kind']}, expected {kind}")
    if report["verdict"] != MATCH:
        fails.append(f"{label}: verdict {report['verdict']}")
    e, alt = report["errors"], report["alt_errors"]
    if any(b >= a for a, b in zip(e, e[1:])):
        fails.append(f"{label}: errors not decreasing: {e}")
    if not e[-1] < threshold:
        fails.append(f"{label}: final error {e[-1]:.3g} >= threshold {threshold}")
    if not e[-1] < alt[-1]:
        fails.append(f"{label}: predicted operator ({e[-1]:.3g}) does not beat "
                     f"{report['alt_kind']} ({alt[-1]:.3g})")
    return fails


def check_decreasing(values, label):
    if len(values) < 2 or any(b >= a for a, b in zip(values, values[1:])):
        return [f"{label} not decreasing: {values}"]
    return []


def check_transmission(report, expected, tol, label):
    t = report.get("transmission_extrapolated")
    if t is None:
        return [f"{label}: no extrapolated transmission"]
    tau = complex(t["re"], t["im"])
    if abs(tau - expected) > tol:
        return [f"{label}: transmission {tau:.4g}, expected {expected:.4g} "
                f"(tolerance {tol})"]
    return []


def check_strip(r_nn, reference, r_nn_other_delta):
    """Straight strip: r_nn is the discrete free 1D resolvent, delta-free."""
    fails = []
    err = float(np.max(np.abs(r_nn - reference)))
    if err > STRIP_TOL:
        fails.append(f"straight strip: |r_nn - free 1D| = {err:.3g} > {STRIP_TOL}")
    dd = float(np.max(np.abs(r_nn - r_nn_other_delta)))
    if dd > STRIP_TOL:
        fails.append(f"straight strip: r_nn moves by {dd:.3g} with delta")
    return fails
