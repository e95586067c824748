import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.optimize import brentq

from robinwg import transverse
from robinwg.cli import main
from reference import scalar_asymmetric_spectrum
from robinwg.errors import (BracketingError, NearSpectrumError,
                            SingularDenominatorError)
from robinwg.transverse import (IMAGINARY, REAL, ZERO, _BRENT_KW,
                                _asymmetric_solve, _brent_lanes, _den1,
                                _lambda2, _symmetric_solve,
                                asymmetric_spectrum, beta_table,
                                perturbation_coefficients, resolvent_kernel,
                                symmetric_spectrum)

D = 1.0


def bisect_longdouble(f, lo, hi, iters=200):
    """Plain bisection in extended precision; the independent root oracle."""
    lo, hi = np.longdouble(lo), np.longdouble(hi)
    flo = f(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0:
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


# --- frozen oracle values (computed by the bisection oracle below) ---------
KAPPA_HALF = 0.771702319209104      # kappa tanh(kappa) = 0.5
P0_ALPHA1 = 0.860333589019380       # p tan(p) = 1


def test_bisection_oracle_pins_negative_mode():
    root = bisect_longdouble(lambda k: k * np.tanh(k) - np.longdouble(0.5),
                             1e-8, 10.0)
    assert abs(float(root) - KAPPA_HALF) < 1e-14
    mode = symmetric_spectrum(-0.5, D, 0)[0]
    assert mode.branch == IMAGINARY
    assert abs(mode.eigenvalue - (-float(root) ** 2)) < 1e-13


def test_bisection_oracle_pins_first_even_root():
    root = bisect_longdouble(lambda p: p * np.tan(p) - np.longdouble(1.0),
                             1e-8, np.pi / 2 - 1e-8)
    assert abs(float(root) - P0_ALPHA1) < 1e-14
    mode = symmetric_spectrum(1.0, D, 0)[0]
    assert abs(mode.k - float(root)) < 1e-13


def test_neumann_spectrum_analytic():
    modes = symmetric_spectrum(0.0, D, 5)
    for n, m in enumerate(modes):
        assert abs(m.eigenvalue - (n * np.pi / 2) ** 2) < 1e-12
    assert modes[0].branch == ZERO


def test_negative_eigenvalue_counts():
    for alpha, expected in ((0.5, 0), (2.0, 0), (0.0, 0), (-0.5, 1),
                            (-0.999, 1), (-1.5, 2), (-4.0, 2)):
        modes = symmetric_spectrum(alpha, D, 5)
        n_neg = sum(m.eigenvalue < -1e-12 for m in modes)
        assert n_neg == expected, (alpha, n_neg)


def test_eigencondition_residuals():
    rng = np.random.default_rng(0)
    for _ in range(20):
        alpha = rng.uniform(-4, 4)
        for m in symmetric_spectrum(alpha, D, 8):
            assert m.residual() < 1e-12


def test_orthonormality_gram():
    x, w = np.polynomial.legendre.leggauss(400)
    u = x * D
    wq = w * D
    for alpha in (0.7, -1.8, 3.0):
        modes = symmetric_spectrum(alpha, D, 9)
        cols = np.array([m(u) for m in modes])
        G = (cols * wq) @ cols.T
        assert np.max(np.abs(G - np.eye(10))) < 1e-10


def test_asymmetric_reduces_to_symmetric():
    for alpha in (0.4, -0.7, 2.2):
        sym = symmetric_spectrum(alpha, D, 5)
        asym = asymmetric_spectrum(alpha, alpha, D, 5)
        for ms, ma in zip(sym, asym):
            assert abs(ms.eigenvalue - ma.eigenvalue) < 1e-12


def test_swap_invariance():
    a1, a2 = 0.3, -1.1
    e1 = [m.eigenvalue for m in asymmetric_spectrum(a1, a2, D, 5)]
    e2 = [m.eigenvalue for m in asymmetric_spectrum(a2, a1, D, 5)]
    assert np.allclose(e1, e2, rtol=0, atol=1e-12)


def test_asymmetric_residuals_and_boundary_conditions():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a1, a2 = rng.uniform(-3, 3, 2)
        for m in asymmetric_spectrum(a1, a2, D, 6):
            assert m.residual() < 1e-12
            # boundary conditions satisfied by the recovered coefficients
            bc1 = m.deriv(D) + a1 * m(D)
            bc2 = -m.deriv(-D) + a2 * m(-D)
            scale = max(1.0, abs(m.k)) * (1 + abs(a1) + abs(a2))
            assert abs(bc1) < 1e-10 * scale
            assert abs(bc2) < 1e-10 * scale


def test_asymmetric_zero_mode():
    # 2 d a1 a2 + a1 + a2 = 0 puts an eigenvalue exactly at zero
    a1 = 1.0
    a2 = -a1 / (2 * D * a1 + 1)
    modes = asymmetric_spectrum(a1, a2, D, 3)
    assert any(m.branch == ZERO for m in modes)
    mz = next(m for m in modes if m.branch == ZERO)
    u = np.linspace(-D, D, 11)
    # eigenfunction is linear
    assert np.max(np.abs(np.diff(mz(u), 2))) < 1e-12


def test_eigenvalue_count_matches_finite_differences():
    rng = np.random.default_rng(7)
    n_grid = 500
    hu = 2 * D / n_grid
    trials = 0
    while trials < 20:
        a1, a2 = rng.uniform(-3, 3, 2)
        modes = asymmetric_spectrum(a1, a2, D, 9)
        eigs = np.array([m.eigenvalue for m in modes])
        lam_cut = rng.uniform(eigs[0] - 1.0, eigs[-1])
        if np.min(np.abs(eigs - lam_cut)) < 0.2:
            continue  # avoid count flips from FD eigenvalue error near the cut
        B = np.zeros((n_grid + 1, n_grid + 1))
        idx = np.arange(1, n_grid)
        B[idx, idx] = 2 / hu ** 2
        B[idx, idx - 1] = B[idx, idx + 1] = -1 / hu ** 2
        B[0, 0] = (2 + 2 * hu * a2) / hu ** 2
        B[0, 1] = -2 / hu ** 2
        B[-1, -1] = (2 + 2 * hu * a1) / hu ** 2
        B[-1, -2] = -2 / hu ** 2
        w = np.ones(n_grid + 1)
        w[0] = w[-1] = 0.5
        fd = eigh(w[:, None] * B, np.diag(w), eigvals_only=True)
        assert np.sum(fd < lam_cut) == np.sum(eigs < lam_cut)
        trials += 1


def test_mu_curves_monotone_in_alpha():
    grid = np.linspace(-5, 5, 81)
    mus = beta_table(grid, D, 3).mu
    assert np.all(np.diff(mus, axis=0) > 0)


# ---------------------------------------------------------------------------
# resolvent kernel
# ---------------------------------------------------------------------------

def neumann_mode(n, d):
    p0 = n * np.pi / (2 * d)
    if n == 0:
        return (lambda u: np.ones_like(np.asarray(u, float)) / np.sqrt(2 * d)), 0.0
    if n % 2 == 0:
        return (lambda u: np.cos(p0 * u) / np.sqrt(d)), p0 * p0
    return (lambda u: np.sin(p0 * u) / np.sqrt(d)), p0 * p0


def neumann_kernel_images(w, d, u, up, n_images=200):
    """Interval Neumann kernel by the method of images (all + signs)."""
    tot = 0.0j
    for m in range(-n_images, n_images + 1):
        tot += np.exp(1j * w * abs(u - up - 4 * d * m))
        tot += np.exp(1j * w * abs(u + up - 2 * d - 4 * d * m))
    return 1j / (2 * w) * tot


def test_kernel_symmetry():
    rng = np.random.default_rng(3)
    k = np.sqrt(2.3 + 1.7j)
    for _ in range(100):
        a1, a2 = rng.uniform(-2, 2, 2)
        u, up = rng.uniform(-D, D, 2)
        g1 = resolvent_kernel(a1, a2, D, k, u, up)
        g2 = resolvent_kernel(a1, a2, D, k, up, u)
        assert abs(g1 - g2) < 1e-12


def test_kernel_matches_spectral_sum():
    """Closed form vs the 200-eigenpair expansion.

    The raw truncated sum has an oscillatory O(1/N) tail, so it is telescoped
    against the Neumann reference problem whose eigen-data are elementary and
    whose kernel has an independent image-series representation; the
    difference series then converges absolutely like 1/n^3.
    """
    rng = np.random.default_rng(5)
    z = 2.3 + 1.7j
    w = np.sqrt(z)
    for alpha in (0.7, -0.9):
        modes = symmetric_spectrum(alpha, D, 200)
        nmods = [neumann_mode(n, D) for n in range(201)]
        for _ in range(25):
            u, up = rng.uniform(-D, D, 2)
            if abs(u - up) < 0.05:
                continue
            g0 = neumann_kernel_images(w, D, u, up)
            ssum = g0 + sum(
                m(u) * m(up) / (m.eigenvalue - z) - nf(u) * nf(up) / (nl - z)
                for m, (nf, nl) in zip(modes, nmods))
            gc = resolvent_kernel(alpha, alpha, D, w, u, up)
            assert abs(ssum - gc) < 1e-6


def test_kernel_pole_residue():
    # (lambda_0 - k^2) g -> phi_0(u) phi_0(u') as k^2 -> lambda_0
    alpha = 0.8
    m0 = symmetric_spectrum(alpha, D, 0)[0]
    u, up = 0.31, -0.66
    target = m0(u) * m0(up)
    vals = []
    for eta in (1e-3, 1e-4, 1e-5):
        z = m0.eigenvalue + eta * 1j
        g = resolvent_kernel(alpha, alpha, D, np.sqrt(z), u, up)
        vals.append((m0.eigenvalue - z) * g)
    # residues converge linearly in eta; extrapolate the 10:1 pair
    extrap = (10 * vals[2] - vals[1]) / 9
    assert abs(vals[2] - target) < 1e-4
    assert abs(extrap - target) < 1e-6


def test_kernel_near_spectrum_error():
    alpha = 0.8
    m0 = symmetric_spectrum(alpha, D, 0)[0]
    with pytest.raises(NearSpectrumError):
        resolvent_kernel(alpha, alpha, D, np.sqrt(m0.eigenvalue + 0j) + 1e-13,
                         0.3, 0.1)


# ---------------------------------------------------------------------------
# perturbation coefficients
# ---------------------------------------------------------------------------

def test_lambda2_landmarks_neumann():
    # alpha = 0: lambda2 = 1 for n >= 1 (beta 3/4); limit 1/4 at n = 0 (beta 0)
    for n in (1, 2, 3):
        pc = perturbation_coefficients(0.0, D, n)
        assert abs(pc.lambda2 - 1.0) < 1e-12
        assert abs(pc.beta - 0.75) < 1e-12
    pc0 = perturbation_coefficients(0.0, D, 0)
    assert abs(pc0.lambda2 - 0.25) < 1e-12
    assert abs(pc0.beta) < 1e-12


def test_lambda2_dirichlet_limit():
    # alpha -> -inf: only n >= 2 approach -1/4; the two modes riding the
    # negative eigenvalues are the documented anomalous pair
    for n in (0, 1, 2, 3):
        pc = perturbation_coefficients(1e4, D, n)
        assert abs(pc.beta - (-0.25)) < 1e-3
    for n in (2, 3):
        pc = perturbation_coefficients(-1e4, D, n)
        assert abs(pc.beta - (-0.25)) < 1e-3


def test_lambda2_singular_denominator_raises():
    # alpha + d (alpha^2 + mu) = 0 with mu away from the joint origin limit;
    # mu > 0, where alpha^2 + mu is the direct sum for either parity
    alpha = -0.5
    mu = -alpha / D - alpha ** 2  # forces the second factor to vanish
    assert mu > 0
    for n in (0, 1):
        assert np.isnan(_lambda2(alpha, mu, D, n))
    # alpha d = -1 makes mode 1 the zero mode, where the second factor of
    # the eigenpair vanishes
    with pytest.raises(SingularDenominatorError, match="vanishes"):
        perturbation_coefficients(-1.0 / D, D, 1)


def _asym_pair(alpha, eta, d=D):
    return (alpha - eta / (2 * (1 + d * eta)),
            alpha + eta / (2 * (1 - d * eta)))


def test_finite_eta_fit_matches_lambda2():
    """Quadratic fits of lambda_n(eta) pin the formula; linear term ~ 0."""
    rng = np.random.default_rng(11)
    etas = np.array([4e-3, 2e-3, 1e-3, 5e-4])
    X = np.vstack([np.ones_like(etas), D * etas, (D * etas) ** 2]).T
    for _ in range(10):
        alpha = rng.uniform(0.2, 3.0)
        n = int(rng.integers(0, 4))
        mode = symmetric_spectrum(alpha, D, n)[n]
        lams = []
        for eta in etas:
            a1, a2 = _asym_pair(alpha, eta)
            la = asymmetric_spectrum(a1, a2, D, n)[n].eigenvalue
            lams.append(la)
        coef, *_ = np.linalg.lstsq(X, np.array(lams), rcond=None)
        l2 = perturbation_coefficients(alpha, D, n).lambda2
        assert abs(coef[2] - l2) < 1e-3 * abs(l2)
        assert abs(coef[1]) < 1e-6 * abs(coef[2])


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_beta_table_neumann_row():
    table = beta_table([0.0], D, 3)
    assert np.allclose(table.beta[0], (0.0, 0.75, 0.75, 0.75), atol=1e-10)


def test_beta_table_large_alpha_row():
    table = beta_table([1e4], D, 3)
    assert np.allclose(table.beta[0], -0.25, atol=1e-3)


def test_beta_table_marks_bad_points_not_fatal():
    # a grid crossing the lambda2 pole region for n=1 must not abort
    table = beta_table(np.linspace(-3.0, -0.2, 57), D, 3)
    assert table.beta.shape == (57, 4) and len(table.errors) == 57
    # every entry not marked nan is finite
    assert not np.any(np.isinf(table.beta))


def test_beta_anomalous_low_modes_at_large_negative_alpha():
    # the two negative eigenvalues drag beta_0, beta_1 away from the -1/4
    # asymptote reached by the higher modes
    b = beta_table([-30.0], D, 3).beta[0]
    dev = np.where(np.isnan(b), np.inf, np.abs(b + 0.25))
    assert dev[2] < 0.05 and dev[3] < 0.05  # regular modes near the asymptote
    assert dev[0] > 100 * max(dev[2], dev[3])
    assert dev[1] > 100 * max(dev[2], dev[3])


def test_symmetric_spectrum_input_validation():
    with pytest.raises(ValueError):
        symmetric_spectrum(0.0, -1.0, 3)
    with pytest.raises(ValueError):
        symmetric_spectrum(0.0, 1.0, -1)


def test_beta_coefficient_matches_definition():
    alpha, n = 1.3, 2
    pc = perturbation_coefficients(alpha, D, n)
    assert pc.mu == symmetric_spectrum(alpha, D, n)[n].eigenvalue
    den = alpha ** 2 + pc.mu
    lam2 = (-pc.mu * (alpha - 2 * D * den)
            / (2 * D * D * den * (alpha + D * den)))
    assert abs(pc.lambda2 - lam2) < 1e-15 * abs(lam2)
    assert pc.beta == -0.25 + pc.lambda2


# ---------------------------------------------------------------------------
# lane-wise Brent solve against scalar brentq
# ---------------------------------------------------------------------------

def scalar_wavenumber(ad, d, n):
    """Mode n by one scalar brentq call on its parity bracket (the oracle)."""
    j = n // 2
    if n % 2 == 0:
        eq = lambda x: x * np.sin(x) - ad * np.cos(x)
        if j > 0 or ad > 0:
            lo = 1e-300 if j == 0 else (2 * j - 1) * np.pi / 2 + 1e-13
            return REAL, brentq(eq, lo, (2 * j + 1) * np.pi / 2 - 1e-13,
                                **_BRENT_KW) / d
        if ad == 0:
            return ZERO, 0.0
        g, lo = (lambda y: y * np.tanh(y) + ad), 1e-300
    else:
        eq = lambda x: x * np.cos(x) + ad * np.sin(x)
        if j > 0 or ad > -1.0:
            lo = 1e-300 if j == 0 else j * np.pi + 1e-13
            return REAL, brentq(eq, lo, (j + 1) * np.pi - 1e-13,
                                **_BRENT_KW) / d
        if ad == -1.0:
            return ZERO, 0.0
        g, lo = (lambda y: y / np.tanh(y) + ad), 1e-12
    hi = max(1.0, -2 * ad)
    while g(hi) < 0:
        hi *= 2
    return IMAGINARY, brentq(g, lo, hi, **_BRENT_KW) / d


# alpha d on [-50, 50], with the exact zero modes and their neighbours
AD = st.one_of(st.floats(-50.0, 50.0),
               st.sampled_from([0.0, -1.0, np.nextafter(0.0, 1.0),
                                np.nextafter(-1.0, 0.0), np.nextafter(-1.0, -2.0),
                                -0.5, -1.5]))


@settings(max_examples=200, deadline=None)
@given(st.lists(AD, min_size=1, max_size=6), st.integers(0, 12),
       st.sampled_from([1.0, 0.5, 2.0]))
def test_lane_solve_is_scalar_brentq_bit_for_bit(ads, n_max, d):
    alphas = [ad / d for ad in ads]
    branch, k, lam, _, _ = _symmetric_solve(alphas, d, n_max)
    for i, alpha in enumerate(alphas):
        for n in range(n_max + 1):
            want_branch, want_k = scalar_wavenumber(alpha * d, d, n)
            assert branch[i, n] == want_branch
            assert k[i, n] == want_k, (alpha, n)
            sign = -1.0 if want_branch == IMAGINARY else 1.0
            assert lam[i, n] == sign * want_k * want_k


def test_spectrum_table_is_scalar_brentq_bit_for_bit():
    # the benchmark's table: 2001 alphas on [-10, 10], modes 0..7; a single
    # rounding change in a Brent step shows up in a handful of its roots
    grid = np.linspace(-10.0, 10.0, 2001)
    k = _symmetric_solve(grid, D, 7)[1]
    want = [[scalar_wavenumber(alpha, D, n)[1] for n in range(8)] for alpha in grid]
    assert np.array_equal(k, want)


# (alpha_1, alpha_2) pairs: general ones, near-symmetric ones as the 2D
# projector makes them, and pairs with an exact zero mode
PAIR = st.one_of(
    st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)),
    st.tuples(st.sampled_from([-2.0, 0.0, 0.7]), st.floats(-0.3, 0.3)).map(
        lambda p: (p[0] - p[1] / (2 * (1 + p[1])), p[0] + p[1] / (2 * (1 - p[1])))),
    st.floats(-3.0, 3.0).filter(lambda a: abs(2 * a + 1) > 0.1).map(
        lambda a: (a, -a / (2 * a + 1))))


@settings(max_examples=150, deadline=None)
@given(st.lists(PAIR, min_size=1, max_size=5), st.integers(0, 6),
       st.sampled_from([1.0, 0.5, 2.0]))
def test_asymmetric_lane_solve_is_scalar_brentq_bit_for_bit(pairs, n_max, d):
    a1, a2 = (np.array(x) / d for x in zip(*pairs))
    want = [scalar_asymmetric_spectrum(x, y, d, n_max) for x, y in zip(a1, a2)]
    if None in want:
        with pytest.raises(BracketingError):
            _asymmetric_solve(a1, a2, d, n_max)
        return
    got = _asymmetric_solve(a1, a2, d, n_max)
    for i, modes in enumerate(want):
        for n, entry in enumerate(modes):
            assert tuple(c[i, n] for c in got) == entry, (a1[i], a2[i], n)


def test_asymmetric_spectrum_is_the_one_pair_solve():
    for a1, a2 in ((0.3, -1.1), (-2.0, -1.9), (1.0, -1.0 / 3.0), (2.2, 2.2)):
        want = scalar_asymmetric_spectrum(a1, a2, D, 4)
        got = asymmetric_spectrum(a1, a2, D, 4)
        assert [(m.branch, m.k, m.eigenvalue, m.coef_sin, m.coef_cos)
                for m in got] == want


def _outcome(call):
    try:
        return call()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


# (q, r, t, c, u, v, gap): f = tanh(q (x - r)) - t + c x^3 on [r - u, r + v],
# NaN left of r - gap through a square root; some brackets miss the root
LANE = st.tuples(st.floats(0.1, 30.0), st.floats(-3.0, 3.0), st.floats(-0.9, 0.9),
                 st.floats(-0.05, 0.05), st.floats(0.0, 3.0), st.floats(0.0, 3.0),
                 st.floats(0.5, 20.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(LANE, min_size=1, max_size=5), st.sampled_from([200, 12]))
def test_brent_lanes_matches_brentq_and_raises_where_it_raises(lanes, maxiter):
    q, r, t, c, u, v, gap = map(np.array, zip(*lanes))
    a, b = r - u, r + v

    def f(x, i):
        with np.errstate(invalid="ignore"):
            return (np.tanh(q[i] * (x - r[i])) - t[i] + c[i] * x ** 3
                    + 0.0 * np.sqrt(x - r[i] + gap[i]))

    kw = dict(_BRENT_KW, maxiter=maxiter)
    want = [_outcome(lambda i=i: brentq(lambda x: float(f(np.array([x]), [i])[0]),
                                        a[i], b[i], **kw))
            for i in range(len(lanes))]
    got = _outcome(lambda: _brent_lanes(f, a, b, **kw))
    failures = {w for w in want if isinstance(w, type)}
    if failures:
        assert got in failures
    else:
        assert np.array_equal(got, np.array(want))


def test_brent_lanes_errors_name_brentq_messages():
    f = lambda x, i: x - np.array([0.5, 2.0])[i]
    with pytest.raises(ValueError, match="f\\(a\\) and f\\(b\\) must have "
                                         "different signs"):
        _brent_lanes(f, [0.0, 0.0], [1.0, 1.0], **_BRENT_KW)
    g = lambda x, i: np.where(x > 0.7, np.nan, x - 0.5)
    with pytest.raises(ValueError, match="is NaN; solver cannot continue"):
        _brent_lanes(g, [0.0], [1.0], **_BRENT_KW)
    with pytest.raises(ValueError, match="is NaN"):
        brentq(lambda x: float(g(np.array([x]), 0)[0]), 0.0, 1.0, **_BRENT_KW)
    # an exact zero at a bracket end is returned as is, like brentq does
    assert np.array_equal(_brent_lanes(f, [0.5, 2.0], [1.0, 3.0], **_BRENT_KW),
                          [0.5, 2.0])


# ---------------------------------------------------------------------------
# behaviour the one-pass table keeps
# ---------------------------------------------------------------------------

def test_table_marks_lambda2_pole_at_alpha_d_minus_one(tmp_path):
    # at alpha d = -1 the odd ground mode is the zero mode and
    # alpha + d (alpha^2 + mu_1) vanishes: that entry is bad, the rest fine
    table = beta_table([-1.0], D, 3)
    assert table.mu[0, 1] == 0.0
    assert np.isnan(table.lambda2[0, 1]) and np.isnan(table.beta[0, 1])
    with pytest.raises(SingularDenominatorError,
                       match=r"^lambda2 denominator vanishes at alpha=-1\.0"):
        perturbation_coefficients(-1.0, D, 1)
    assert np.isnan(table.lambda2[0]).tolist() == [False, True, False, False]
    # the CLI counts it against bad_point_quota and writes it as nan
    cfg = tmp_path / "spectrum.cfg"
    grid = "alpha_min = -3\nalpha_max = 1\nalpha_count = 5\n"
    cfg.write_text(grid + "bad_point_quota = 0\n")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 1
    cfg.write_text(grid + "bad_point_quota = 1\n")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    lines = (tmp_path / "b" / "beta_table.csv").read_text().splitlines()
    assert "-1.0,1,0.0,nan,nan" in lines


@settings(max_examples=200, deadline=None)
@given(st.floats(-8.0, -0.01), st.floats(0.2, 3.0), st.integers(0, 1))
def test_secular_den1_is_the_direct_sum_where_that_keeps_its_digits(
        alpha, d, n):
    # alpha^2 + mu from the secular equation against the direct sum, where
    # the sum cancels at most two digits
    mu = symmetric_spectrum(alpha, d, 1)[n].eigenvalue
    direct = alpha * alpha + mu
    assume(mu < 0 and abs(direct) >= 1e-2 * alpha * alpha)
    assert abs(_den1(alpha, mu, d, n) - direct) <= 1e-12 * alpha * alpha


def test_spectrum_reaches_strongly_negative_alpha(tmp_path):
    # below alpha d ~ -14.5 the direct alpha^2 + mu of the split ground
    # pair (~ 4 alpha^2 e^(-2|alpha|d)) fell under the singularity test and
    # every such row was nan; the entries grow like e^(2|alpha|d)
    alpha = np.linspace(-20.0, 5.0, 201)
    table = beta_table(alpha, D, 3)
    bad = np.argwhere(np.isnan(table.lambda2))
    assert bad.tolist() == [[np.flatnonzero(alpha == -1.0)[0], 1]]  # the pole
    deep = alpha <= -10.0
    growth = table.beta[deep, :2] * np.exp(-2 * np.abs(alpha[deep, None]) * D)
    assert np.allclose(growth, [-0.125, 0.125], rtol=1e-6)
    cfg = tmp_path / "spectrum.cfg"
    cfg.write_text("alpha_min = -20\nalpha_max = 5\nalpha_count = 201\n")
    assert main(["spectrum", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 0


def test_decreasing_row_still_fails_spectrum(tmp_path, monkeypatch, capsys):
    solve = transverse._symmetric_solve

    def swapped(alphas, d, n_max):
        cols = solve(alphas, d, n_max)
        row = np.flatnonzero(np.asarray(alphas) == 1.0)[:, None]
        cols[2][row, [1, 2]] = cols[2][row, [2, 1]]   # alpha = 1 out of order
        return cols

    monkeypatch.setattr(transverse, "_symmetric_solve", swapped)
    table = beta_table([0.5, 1.0, 1.5], D, 3)
    assert table.errors[0] == table.errors[2] == ""
    assert table.errors[1].startswith("symmetric spectrum not increasing: [")
    with pytest.raises(BracketingError):
        transverse.mu_table([0.5, 1.0, 1.5], D, 3)
    with pytest.raises(BracketingError, match="not increasing"):
        perturbation_coefficients(1.0, D, 3)
    perturbation_coefficients(0.5, D, 3)
    cfg = tmp_path / "spectrum.cfg"
    cfg.write_text("alpha_min = 0.5\nalpha_max = 1.5\nalpha_count = 3\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {table.errors[1]}\n"
    assert not (out / "mu_table.csv").exists()
    assert not (out / "beta_table.csv").exists()


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([1.0, 0.7]),
       extra=st.lists(st.floats(-40.0, 40.0), max_size=6),
       n_max=st.integers(0, 5))
def test_table_entries_are_the_one_alpha_routes_bit_for_bit(d, extra, n_max):
    # alpha d = -1 (the zero mode's pole), 0 (the joint origin limit) and
    # -30 (exponentially split pairs), and alpha = 1e4 (Dirichlet limit)
    grid = [-1.0 / d, 0.0, -30.0 / d, 1e4, *extra]
    table = beta_table(grid, d, n_max)
    assert table.mu.shape == table.beta.shape == (len(grid), n_max + 1)
    assert not any(table.errors)
    # alpha d = -1 makes mode 1 the zero mode, a pole of the lambda2 formula
    assert np.isnan(table.lambda2[0, 1:2]).all()
    for i, alpha in enumerate(grid):
        modes = symmetric_spectrum(alpha, d, n_max)
        for n in range(n_max + 1):
            mu, lam2, beta = (table.mu[i, n], table.lambda2[i, n],
                              table.beta[i, n])
            assert mu == modes[n].eigenvalue
            if np.isnan(lam2):
                assert np.isnan(beta)
                with pytest.raises(SingularDenominatorError):
                    perturbation_coefficients(alpha, d, n)
                continue
            assert lam2 == _lambda2(alpha, mu, d, n)
            assert beta == -0.25 + lam2
            pc = perturbation_coefficients(alpha, d, n)
            assert (pc.mu, pc.lambda2, pc.beta) == (mu, lam2, beta)
