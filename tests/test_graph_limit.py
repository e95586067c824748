import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robinwg.effective_1d import bump_probe
from robinwg.errors import BranchError, RobinwgError
from robinwg.graph_limit import (GraphOperatorSpec, green_function,
                                 resolvent_apply, scattering_matrix,
                                 sqrt_upper)

INV = 1 / np.sqrt(2)


def random_c(rng):
    t = rng.uniform(0, 2 * np.pi)
    return np.cos(t), np.sin(t)


def test_free_transmission():
    S = scattering_matrix(GraphOperatorSpec.free(), 1.3)
    assert abs(S[1, 0] - 1.0) < 1e-14
    assert abs(S[0, 0]) < 1e-14


def test_decoupled_total_reflection():
    for k in (0.1, 1.0, 10.0):
        S = scattering_matrix(GraphOperatorSpec.decoupled(), k)
        assert abs(abs(S[0, 0]) - 1.0) < 1e-14
        assert abs(S[1, 0]) == 0.0


def test_scale_invariant_closed_form():
    # oracle: the matching equations solve to tau = 2 c+ c-, rho = c-^2 - c+^2
    S = scattering_matrix(GraphOperatorSpec.scale_invariant(INV, -INV), 2.0)
    assert abs(S[1, 0] - (-1.0)) < 1e-14
    assert abs(S[0, 0]) < 1e-14
    rng = np.random.default_rng(0)
    for _ in range(20):
        cm, cp = random_c(rng)
        spec = GraphOperatorSpec.scale_invariant(cm, cp)
        for k in (0.3, 1.0, 4.0):
            S = scattering_matrix(spec, k)
            assert abs(S[1, 0] - 2 * cp * cm) < 1e-12
            assert abs(S[0, 0] - (cm ** 2 - cp ** 2)) < 1e-12
            assert abs(S[1, 1] - (cp ** 2 - cm ** 2)) < 1e-12


def test_deformed_closed_form():
    # derived by eliminating tau from the matching system
    rng = np.random.default_rng(1)
    for _ in range(20):
        cm, cp = random_c(rng)
        bh = rng.uniform(-3, 3)
        spec = GraphOperatorSpec.deformed(cm, cp, bh)
        for k in (0.5, 2.0):
            S = scattering_matrix(spec, k)
            den = 1j * k - bh
            assert abs(S[1, 0] - 2j * k * cp * cm / den) < 1e-12
            assert abs(S[0, 0] - (1j * k * (cm ** 2 - cp ** 2) + bh) / den) < 1e-12


def test_unitarity_all_kinds():
    rng = np.random.default_rng(2)
    specs = [GraphOperatorSpec.free(), GraphOperatorSpec.decoupled()]
    for _ in range(6):
        cm, cp = random_c(rng)
        specs.append(GraphOperatorSpec.scale_invariant(cm, cp))
        specs.append(GraphOperatorSpec.deformed(cm, cp, rng.uniform(-2, 2)))
    for spec in specs:
        for k in rng.uniform(0.05, 20.0, 50):
            S = scattering_matrix(spec, k)
            assert np.max(np.abs(S.conj().T @ S - np.eye(2))) < 1e-12


def test_scale_invariance_vs_deformed_k_dependence():
    spec = GraphOperatorSpec.scale_invariant(0.6, 0.8)
    Ss = [scattering_matrix(spec, k) for k in (0.1, 1.0, 10.0)]
    assert np.max(np.abs(Ss[0] - Ss[1])) < 1e-12
    assert np.max(np.abs(Ss[1] - Ss[2])) < 1e-12
    spec = GraphOperatorSpec.deformed(0.6, 0.8, 1.0)
    Sa = scattering_matrix(spec, 0.5)
    Sb = scattering_matrix(spec, 5.0)
    assert np.max(np.abs(Sa - Sb)) > 0.1


def test_spec_normalisation():
    spec = GraphOperatorSpec.scale_invariant(INV * (1 + 1e-10), -INV)
    # silently renormalised when close; far-off pairs rejected
    assert abs(spec.c_minus ** 2 + spec.c_plus ** 2 - 1.0) < 1e-14
    with pytest.raises(RobinwgError):
        GraphOperatorSpec.scale_invariant(1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["decoupled", "free", "scale_invariant", "deformed"]),
       st.floats(0.0, 2 * np.pi), st.floats(-50.0, 50.0))
def test_spec_roundtrips_through_to_dict(kind, theta, b_hat):
    c = (np.cos(theta), np.sin(theta))
    spec = {"decoupled": GraphOperatorSpec.decoupled,
            "free": GraphOperatorSpec.free,
            "scale_invariant": lambda: GraphOperatorSpec.scale_invariant(*c),
            "deformed": lambda: GraphOperatorSpec.deformed(*c, b_hat)}[kind]()
    assert GraphOperatorSpec(**spec.to_dict()) == spec


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 2 * np.pi), st.floats(-50.0, 50.0), st.floats(0.01, 50.0))
def test_s_matrix_unitary_and_mirror_symmetric(theta, b_hat, k):
    cm, cp = np.cos(theta), np.sin(theta)
    for make in (GraphOperatorSpec.scale_invariant,
                 lambda c1, c2: GraphOperatorSpec.deformed(c1, c2, b_hat)):
        S = scattering_matrix(make(cm, cp), k)
        assert np.max(np.abs(S.conj().T @ S - np.eye(2))) < 1e-12
        # the mirror s -> -s swaps c_- and c_+, hence the two reflections
        M = scattering_matrix(make(cp, cm), k)
        assert abs(M[0, 0] - S[1, 1]) < 1e-12
        assert abs(M[1, 1] - S[0, 0]) < 1e-12
        assert abs(M[1, 0] - S[1, 0]) < 1e-12


def test_branch_guard():
    with pytest.raises(BranchError):
        sqrt_upper(4.0)
    assert sqrt_upper(-4.0).imag == 2.0
    with pytest.raises(BranchError):
        green_function(GraphOperatorSpec.free(), 2.5, 0.1, 0.2)


def test_green_free_is_free_kernel():
    z = -1.0 + 0.8j
    w = sqrt_upper(z)
    rng = np.random.default_rng(3)
    for _ in range(20):
        s, sp = rng.uniform(-5, 5, 2)
        g = green_function(GraphOperatorSpec.free(), z, s, sp)
        assert abs(g - 1j / (2 * w) * np.exp(1j * w * abs(s - sp))) < 1e-14


def test_green_decoupled_cross_side_zero():
    z = 1j
    g = green_function(GraphOperatorSpec.decoupled(), z, -1.2, 2.3)
    assert g == 0
    # and Dirichlet at the vertex
    g0 = green_function(GraphOperatorSpec.decoupled(), z, 0.0, -2.0)
    assert abs(g0) < 1e-14


def test_green_symmetry():
    rng = np.random.default_rng(4)
    specs = [GraphOperatorSpec.decoupled(),
             GraphOperatorSpec.scale_invariant(0.6, -0.8),
             GraphOperatorSpec.deformed(0.6, 0.8, -0.7)]
    for spec in specs:
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.3, 2))
            s, sp = rng.uniform(-4, 4, 2)
            g1 = green_function(spec, z, s, sp)
            g2 = green_function(spec, z, sp, s)
            assert abs(g1 - g2) < 1e-12


def _dense_fd_graph_resolvent(spec, z, L=30.0, n=100_000):
    """FD resolvent on the broken line with interface conditions at 0.

    Doubled node at the vertex; one-sided second-order stencils impose the
    two gluing conditions.  Independent oracle for the image-sum kernel.
    """
    import scipy.sparse as sp_
    import scipy.sparse.linalg as spla_
    h = 2 * L / n
    n_left = n // 2
    s_left = np.linspace(-L, 0, n_left + 1)[1:]      # excludes -L (Dirichlet)
    s_right = np.linspace(0, L, n - n_left + 1)[:-1]
    s_all = np.concatenate([s_left, s_right])
    N = len(s_all)
    iL = n_left - 1                                  # index of 0^-
    iR = n_left                                      # index of 0^+
    rows, cols, vals = [], [], []
    rhs_scale = np.ones(N)
    for i in range(N):
        if i in (iL, iR):
            continue
        rows.append(i)
        cols.append(i)
        vals.append(2 / h ** 2 - z)
        for j in (i - 1, i + 1):
            if 0 <= j < N:      # out-of-range neighbours are Dirichlet caps
                rows.append(i)
                cols.append(j)
                vals.append(-1 / h ** 2)
    cm, cp, bh = spec.c_minus, spec.c_plus, spec.b_hat
    # condition 1: c- f(0+) - c+ f(0-) = 0
    rows += [iL, iL]
    cols += [iR, iL]
    vals += [cm, -cp]
    rhs_scale[iL] = 0
    # condition 2 with one-sided derivatives:
    # f'(0-) ~ (3 f0 - 4 f-1 + f-2)/(2h), f'(0+) ~ (-3 f0 + 4 f1 - f2)/(2h)
    rows += [iR] * 6
    cols += [iR, iR + 1, iR + 2, iL, iL - 1, iL - 2]
    vals += [cp * (-3) / (2 * h) - bh * cp, cp * 4 / (2 * h), cp * (-1) / (2 * h),
             -cm * 3 / (2 * h) - bh * cm, cm * 4 / (2 * h), cm * (-1) / (2 * h)]
    rhs_scale[iR] = 0
    A = sp_.csr_matrix((vals, (rows, cols)), shape=(N, N), dtype=complex)
    lu = spla_.splu(A.tocsc())

    def solve(sp_val):
        j = int(np.argmin(np.abs(s_all - sp_val)))
        rhs = np.zeros(N, dtype=complex)
        rhs[j] = 1.0 / h
        return s_all, lu.solve(rhs), s_all[j]

    return solve


def test_green_matches_dense_discretization():
    rng = np.random.default_rng(5)
    for cm, cp, bh in ((0.6, 0.8, 0.0), (INV, -INV, 0.0), (0.6, -0.8, 1.3)):
        kind = (GraphOperatorSpec.scale_invariant(cm, cp) if bh == 0
                else GraphOperatorSpec.deformed(cm, cp, bh))
        z = 1.5 + 2.0j
        solve = _dense_fd_graph_resolvent(kind, z)
        for sp_val in (-2.0, 1.5):
            s_all, gfd, sp_snap = solve(sp_val)
            for s_val in (-3.1, -0.9, 0.7, 2.6):
                i = int(np.argmin(np.abs(s_all - s_val)))
                g = green_function(kind, z, s_all[i], sp_snap)
                assert abs(gfd[i] - g) / abs(g) < 1e-4


# ---------------------------------------------------------------------------
# resolvent application
# ---------------------------------------------------------------------------

def _grid(L=20.0, n=16000):
    return np.linspace(-L, L, n + 1)


def _gaussian_like(s, c=-3.0, w=1.2):
    t = (s - c) / w
    out = np.zeros_like(s)
    m = np.abs(t) < 1
    out[m] = np.exp(-1.0 / (1.0 - t[m] ** 2))
    return out


def test_resolvent_apply_free_vs_fourier():
    # the quadrature is exact for the linear interpolant of f, so the grid
    # must be fine enough that interpolation error sits below 1e-8
    z = 1j
    s = _grid(40.0, 2 ** 19)
    f = _gaussian_like(s)
    out = resolvent_apply(GraphOperatorSpec.free(), z, s, f)
    # periodic spectral solution on a box large enough that wrap-around is
    # below target accuracy
    n = len(s) - 1
    xi = 2 * np.pi * np.fft.fftfreq(n, d=s[1] - s[0])
    fh = np.fft.fft(f[:-1])
    ref = np.fft.ifft(fh / (xi ** 2 - z))
    assert np.max(np.abs(out[:-1] - ref)) < 1e-8


def test_resolvent_apply_decoupled_blocks_left_source():
    z = 0.5 + 1j
    s = _grid()
    f = _gaussian_like(s)
    out = resolvent_apply(GraphOperatorSpec.decoupled(), z, s, f)
    assert np.max(np.abs(out[s > 0])) < 1e-14
    assert np.max(np.abs(out[s < 0])) > 1e-3


def test_resolvent_identity():
    # both z need decent Im sqrt(z) so the truncated tails of R(z2)f are
    # negligible when fed through R(z1)
    z1, z2 = 1j, -1.0 + 2.0j
    s = _grid(24.0, 96000)
    f = _gaussian_like(s)
    spec = GraphOperatorSpec.scale_invariant(0.6, 0.8)
    r1 = resolvent_apply(spec, z1, s, f)
    r2 = resolvent_apply(spec, z2, s, f)
    r12 = resolvent_apply(spec, z1, s, r2)
    lhs = r1 - r2
    rhs = (z1 - z2) * r12
    err = np.sqrt(np.trapezoid(np.abs(lhs - rhs) ** 2, s))
    assert err < 1e-6 * np.sqrt(np.trapezoid(np.abs(f) ** 2, s))


def _one_sided_vertex_data(s, g, order=5, n_fit=60):
    """High-order polynomial fit of (g, g') at 0 from each side."""
    i0 = int(np.argmin(np.abs(s)))
    out = {}
    for sign in (+1, -1):
        if sign > 0:
            sel = slice(i0 + 1, i0 + 1 + n_fit)
        else:
            sel = slice(i0 - n_fit, i0)
        X = np.vander(s[sel], order + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(X, g[sel], rcond=None)
        out[sign] = (coef[0], coef[1])
    return out


def test_resolvent_output_satisfies_vertex_conditions():
    z = 1j
    s = _grid(20.0, 40000)
    f = _gaussian_like(s)
    cases = [GraphOperatorSpec.scale_invariant(0.6, 0.8),
             GraphOperatorSpec.deformed(INV, -INV, -np.pi ** 2 / 4),
             GraphOperatorSpec.free()]
    for spec in cases:
        out = resolvent_apply(spec, z, s, f)
        vd = _one_sided_vertex_data(s, out)
        (vp, dp), (vm, dm) = vd[+1], vd[-1]
        cm, cp, bh = spec.c_minus, spec.c_plus, spec.b_hat
        scale = max(abs(vp), abs(vm), abs(dp), abs(dm))
        assert abs(cm * vp - cp * vm) < 1e-8 * scale
        assert abs(cp * dp - cm * dm - bh * (cm * vm + cp * vp)) < 1e-8 * scale
    out = resolvent_apply(GraphOperatorSpec.decoupled(), z, s, f)
    vd = _one_sided_vertex_data(s, out)
    scale = np.max(np.abs(out))
    assert abs(vd[+1][0]) < 1e-8 * scale and abs(vd[-1][0]) < 1e-8 * scale


def test_resolvent_apply_rejects_bad_grids():
    s = np.linspace(0.5, 10.0, 100)  # no vertex in range
    with pytest.raises(RobinwgError):
        resolvent_apply(GraphOperatorSpec.free(), 1j, s, np.zeros_like(s))
    s = np.linspace(5.0, -5.0, 101)  # decreasing
    with pytest.raises(RobinwgError, match="increasing"):
        resolvent_apply(GraphOperatorSpec.free(), 1j, s, np.zeros_like(s))


def test_resolvent_apply_phase_cache_is_exact(monkeypatch):
    from robinwg import graph_limit
    specs = (GraphOperatorSpec.free(),
             GraphOperatorSpec.deformed(0.6, -0.8, 0.7))
    grids = (np.linspace(-12.0, 12.0, 2401), np.linspace(-9.0, 9.0, 1801))
    zs = (1j, -0.5 + 0.8j)
    probe = lambda s: np.exp(-(s + 3.0) ** 2) + 0.5j * np.exp(-(s - 2.0) ** 2)

    cold = {}
    for gi, s in enumerate(grids):
        for zi, z in enumerate(zs):
            for ki, spec in enumerate(specs):
                monkeypatch.setattr(graph_limit, "_last_grid", None)
                cold[gi, zi, ki] = resolvent_apply(spec, z, s, probe(s))

    # alternate grids and z, each pair twice in a row so both the miss and
    # the hit path run; every result must equal its cold one bit for bit
    order = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (1, 1)]
    for gi, zi in order:
        s = grids[gi]
        for _ in range(2):
            for ki, spec in enumerate(specs):
                out = resolvent_apply(spec, zs[zi], s.copy(), probe(s))
                assert np.array_equal(out, cold[gi, zi, ki])


def test_resolvent_apply_output_independent_of_cache(monkeypatch):
    from robinwg import graph_limit
    spec = GraphOperatorSpec.free()
    s = np.linspace(-10.0, 10.0, 2001)
    f = np.exp(-(s + 3.0) ** 2)
    first = resolvent_apply(spec, 1j, s, f)
    ref = first.copy()
    assert first.flags.writeable
    first[:] = 0.0
    again = resolvent_apply(spec, 1j, s, f)
    assert np.array_equal(again, ref)
    assert again is not first
    # the same array object rescaled in place is a new grid, not a hit
    s *= 1.5
    moved = resolvent_apply(spec, 1j, s, f)
    assert not np.array_equal(moved, ref)
    monkeypatch.setattr(graph_limit, "_last_grid", None)
    assert np.array_equal(moved, resolvent_apply(spec, 1j, s, f))


def _green_quadrature(spec, z, s_eval, s, f):
    """Trapezoid rule for int G(z; s_eval, s') f(s') ds', split at the vertex.

    G jumps across s' = 0 for c_- != c_+, so each half line takes its own
    one-sided value at the vertex node (s' = -1e-300 is on the left).
    """
    i0 = len(s) // 2
    left = s[:i0 + 1].copy()
    left[-1] = -1e-300
    return (np.trapezoid(green_function(spec, z, s_eval, left) * f[:i0 + 1], left)
            + np.trapezoid(green_function(spec, z, s_eval, s[i0:]) * f[i0:], s[i0:]))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["decoupled", "free", "scale_invariant", "deformed"]),
       st.floats(0.0, 2 * np.pi), st.floats(-5.0, 5.0),
       st.floats(0.1, 10.0), st.floats(0.01, 2 * np.pi - 0.01),
       st.floats(-4.0, 4.0), st.floats(0.5, 2.0))
def test_resolvent_apply_is_quadrature_of_green_function(kind, theta, b_hat, r, phi,
                                                         center, half_width):
    c = (np.cos(theta), np.sin(theta))
    spec = {"decoupled": GraphOperatorSpec.decoupled,
            "free": GraphOperatorSpec.free,
            "scale_invariant": lambda: GraphOperatorSpec.scale_invariant(*c),
            "deformed": lambda: GraphOperatorSpec.deformed(*c, b_hat)}[kind]()
    z = r * np.exp(1j * phi)                      # off [0, inf)
    if kind == "deformed":                        # away from the bound state
        assume(abs(1j * sqrt_upper(z) - b_hat) > 0.1)
    s = np.linspace(-7.0, 7.0, 4001)
    f = bump_probe(center, half_width)(s)
    out = resolvent_apply(spec, z, s, f)
    # both sides are O(h^2) quadratures of the same integral (h = 3.5e-3)
    idx = [i for i in range(150, len(s), 397) if i != len(s) // 2]
    ref = np.array([_green_quadrature(spec, z, s[i], s, f) for i in idx])
    assert np.max(np.abs(out[idx] - ref)) < 2e-4 * np.max(np.abs(out))


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 2 * np.pi), st.floats(-5.0, 5.0), st.floats(0.1, 10.0),
       st.floats(0.01, 2 * np.pi - 0.01), st.floats(-4.0, 4.0),
       st.permutations(range(4)))
def test_shared_moment_pass_equals_separate_calls(theta, b_hat, r, phi, center,
                                                  order):
    c = (np.cos(theta), np.sin(theta))
    z = r * np.exp(1j * phi)
    assume(abs(1j * sqrt_upper(z) - b_hat) > 0.1)
    kinds = [GraphOperatorSpec.decoupled(), GraphOperatorSpec.free(),
             GraphOperatorSpec.scale_invariant(*c),
             GraphOperatorSpec.deformed(*c, b_hat)]
    specs = [kinds[i] for i in order]
    s = np.linspace(-7.0, 7.0, 1401)
    f = bump_probe(center, 1.2)(s) + 0.5j * bump_probe(-center, 0.8)(s)
    outs = resolvent_apply(specs, z, s, f)
    assert len(outs) == len(specs)
    for spec, out in zip(specs, outs):
        assert np.array_equal(out, resolvent_apply(spec, z, s, f))
    assert resolvent_apply((), z, s, f) == []


def _masked_resolvent_apply(spec, z, s, f):
    """resolvent_apply with the vertex images added through boolean masks
    (`s < 0` and its complement), the update it had before slicing."""
    from robinwg.graph_limit import _amplitudes
    w = sqrt_upper(z)
    h = s[1] - s[0]
    i0 = int(np.argmin(np.abs(s)))
    ph_m, ph_p = np.exp(-1j * w * s), np.exp(1j * w * s)
    iwh = 1j * w * h
    ep, em = np.exp(iwh), np.exp(-iwh)
    c0 = (ep - 1.0) / (1j * w) - (ep - 1.0 - iwh) / ((1j * w) ** 2 * h)
    c1 = (ep - 1.0 - iwh) / ((1j * w) ** 2 * h)
    d0 = (em - 1.0) / (-1j * w) - (em - 1.0 + iwh) / ((1j * w) ** 2 * h)
    d1 = (em - 1.0 + iwh) / ((1j * w) ** 2 * h)
    A = np.concatenate([[0.0], np.cumsum(ph_m[:-1] * (f[:-1] * d0 + f[1:] * d1))])
    B = np.concatenate([[0.0], np.cumsum(ph_p[:-1] * (f[:-1] * c0 + f[1:] * c1))])
    B = B[-1] - B
    pref = 1j / (2 * w)
    out = pref * (ph_p * A + ph_m * B)
    A0, B0 = A[i0], B[i0]
    rho_l, rho_r, tau = _amplitudes(spec, w)
    left = s < 0
    right = ~left
    img_l, img_r = pref * ph_m[left], pref * ph_p[right]
    out[left] += img_l * (rho_l * A0 + (tau - 1.0) * B0)
    out[right] += img_r * (rho_r * B0 + (tau - 1.0) * A0)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 40000), st.floats(0.0, 1.0), st.floats(2.0, 60.0),
       st.sampled_from([0.0, -1e-14, 1e-14]),
       st.sampled_from([1j, 0.7 + 1.3j, -2.0 + 0.1j, -0.3 + 5.0j]),
       st.floats(0.0, 2 * np.pi), st.floats(-5.0, 5.0))
def test_sliced_vertex_images_equal_masked_update(n, at, span, offset, z,
                                                  theta, b_hat):
    # the vertex node sits anywhere from the second to the last but one
    # node, exactly at 0 or just either side of it; up to 40,000 nodes, as
    # numpy's complex products take other SIMD paths on long arrays
    k = 1 + int(at * (n - 3))
    h = span / n
    s = h * (np.arange(n) - k) + offset
    f = bump_probe(-0.3 * h * k, 0.4 * h * n)(s) + 0.5j * np.cos(s)
    c = (np.cos(theta), np.sin(theta))
    assume(abs(1j * sqrt_upper(z) - b_hat) > 0.1)
    for spec in (GraphOperatorSpec.decoupled(), GraphOperatorSpec.free(),
                 GraphOperatorSpec.scale_invariant(*c),
                 GraphOperatorSpec.deformed(*c, b_hat)):
        assert np.array_equal(resolvent_apply(spec, z, s, f),
                              _masked_resolvent_apply(spec, z, s, f))
