import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh, eigh_tridiagonal

from robinwg.effective_1d import bump_probe, s_grid
from robinwg.errors import BracketingError, ProfileError, RobinwgError
from robinwg.geometry import (RECTANGULAR, SMOOTH_BUMP, TABULATED,
                              CurvatureProfile, ScalingParams,
                              WaveguideGeometry, default_bump)
from robinwg.graph_limit import sqrt_upper
from robinwg.transverse import symmetric_spectrum
from robinwg import cli, waveguide2d
from robinwg.waveguide2d import (FULL, SIMPLIFIED, Grid2D, ModeProjector,
                                 _core_system, build_waveguide,
                                 reduced_resolvent, robin_modes, theorem_check)
from reference import (apply_2d, dirichlet_line, full_grid_matrix,
                       gram_deviation, mode_values, scalar_asymmetric_spectrum,
                       traced_peak)

FLAT = CurvatureProfile(SMOOTH_BUMP, amplitude=0.0, half_width=1.0)
BELL = CurvatureProfile(TABULATED, nodes=tuple(np.linspace(-2, 2, 9)),
                        values=(0.0, 0.12, 0.36, 0.6, 0.68, 0.6, 0.36, 0.12,
                                0.0))
Z = 1j


def flat_geometry(eps=0.4, ratio=0.05, alpha=0.0, d=1.0, b=0.0):
    return WaveguideGeometry(FLAT, d, ScalingParams(epsilon=eps, b=b,
                                                    delta_ratio=ratio), alpha)


def bump_geometry(eps, ratio=0.05, alpha=0.0, d=1.0, b=0.0):
    return WaveguideGeometry(default_bump(), d,
                             ScalingParams(epsilon=eps, b=b, delta_ratio=ratio),
                             alpha)


def test_separable_eigenvalues_small_grid():
    # gamma = 0: 2D eigenvalues are exactly sums of the 1D pieces
    geom = flat_geometry(alpha=0.3, ratio=0.5)
    grid = Grid2D(2.0, 10, 16, 1.0)
    op = build_waveguide(geom, SIMPLIFIED, 1, grid)
    A, mass = full_grid_matrix(op)
    A = A.toarray()
    M = np.diag(mass)
    vals = np.sort(eigh(A, M, eigvals_only=True))
    hs = grid.h_s
    nsi = len(grid.s_interior)
    j = np.arange(1, nsi + 1)
    s_eigs = 4 * np.sin(j * np.pi / (2 * (nsi + 1))) ** 2 / hs ** 2
    delta = geom.scaling.delta
    sums = np.sort((s_eigs[:, None] + op.flat_eigvals[None, :] / delta ** 2).ravel())
    assert np.max(np.abs(vals - sums[:len(vals)])) < 1e-10 * np.max(np.abs(vals))


def _robin_matrix(alpha_lower, alpha_upper, hu, nu):
    """The weighted ghost-eliminated Robin matrix Bw, dense."""
    B = 2 * np.eye(nu) - np.eye(nu, k=1) - np.eye(nu, k=-1)
    B[0, 0] = 2 + 2 * hu * alpha_lower
    B[-1, -1] = 2 + 2 * hu * alpha_upper
    B[0, 1] = B[-1, -2] = -2
    wu = np.ones(nu)
    wu[[0, -1]] = 0.5
    return wu[:, None] * B / hu ** 2


@pytest.mark.parametrize("n_u, alpha", [(32, 0.0), (32, -2.0), (64, 0.0)])
def test_flat_transverse_modes_are_scipy_eigh_bit_for_bit(n_u, alpha):
    # the flat eigenbasis is scipy's `eigh_tridiagonal` (LAPACK dstemr) of
    # W^-1/2 Bw W^-1/2, Bw as the library builds it, scaled back by W^-1/2
    # and signed as the continuum modes are; each eigenvalue is its vector's
    # Rayleigh quotient, within 1e-15 |T| of dstemr's.  So are the modes of
    # an asymmetric pair, as a curved column has.
    grid = Grid2D(8.0, 512, n_u, 1.0)
    op = build_waveguide(bump_geometry(0.4, alpha=alpha), FULL, 1, grid)
    nu, hu, wu = n_u + 1, grid.h_u, grid.u_mass

    def scipy_modes(lower, upper):
        Bw = _robin_matrix(lower, upper, hu, nu)
        lam, psi = eigh_tridiagonal(
            np.diag(Bw) / wu, np.diag(Bw, 1) / np.sqrt(wu[:-1] * wu[1:]),
            select="i", select_range=(0, n_u), lapack_driver="stemr")
        Phi = psi / np.sqrt(wu)[:, None]
        mid = n_u // 2
        key = np.where(np.arange(nu) % 2 == 0, Phi[mid],
                       Phi[mid + 1] - Phi[mid - 1])
        return lam, Phi * np.where(key < 0, -1.0, 1.0)

    assert np.array_equal(op.transverse * op.geometry.scaling.delta ** 2,
                          _robin_matrix(alpha, alpha, hu, nu))
    lam, Phi = scipy_modes(alpha, alpha)
    assert op.flat_eigvecs.tobytes() == Phi.tobytes()
    T = 4 / hu ** 2
    assert np.max(np.abs(op.flat_eigvals - lam)) < 1e-15 * nu * T
    assert np.max(np.abs(Phi.T @ (wu[:, None] * Phi) - np.eye(nu))) < 1e-12
    # even modes are even, odd modes odd, about u = 0
    parity = np.where(np.arange(nu) % 2 == 0, 1.0, -1.0)
    assert np.max(np.abs(Phi[::-1] - parity * Phi)) < 1e-10
    lam, Phi = scipy_modes(alpha, 0.7)
    got_lam, got = (a[0] for a in robin_modes(alpha, 0.7, n_u, hu, nu))
    assert got.T.tobytes() == Phi.tobytes()
    assert np.max(np.abs(got_lam - lam)) < 1e-15 * nu * T


def test_failed_flat_eigenproblem_raises(monkeypatch):
    stemr = waveguide2d.lapack.dstemr
    grid = Grid2D(8.0, 512, 16, 1.0)
    waveguide2d.flat_modes.cache_clear()   # the flat modes are solved anew
    for (short, code), message in (((0, 3), "dstemr info = 3"),
                                   ((1, 0), "returned 16 of 17 pairs")):
        def faulty(*args, short=short, code=code, **kwargs):
            m, w, v, _ = stemr(*args, **kwargs)
            return m - short, w, v, code

        monkeypatch.setattr(waveguide2d.lapack, "dstemr", faulty)
        with pytest.raises(RobinwgError, match=message):
            build_waveguide(bump_geometry(0.4), FULL, 1, grid)


@pytest.mark.parametrize("variant", [FULL, SIMPLIFIED])
def test_core_bands_apply_and_count_like_csr(variant):
    # E x summed in CSR's row order, bit for bit, and CSR's nnz, which
    # leaves out explicit zeros (the simplified off band is all zero)
    grid = Grid2D(8.0, 512, 32, 1.0)
    E = build_waveguide(bump_geometry(0.4, alpha=-2.0), variant, 1,
                        grid).matrix
    nu = grid.n_u + 1
    csr = sp.diags([E.off, E.diag, E.off], [-nu, 0, nu], format="csr")
    rng = np.random.default_rng(7)
    x = rng.standard_normal(len(E.diag)) + 1j * rng.standard_normal(len(E.diag))
    assert E.apply(x).tobytes() == (csr @ x).tobytes()
    assert E.nnz == csr.nnz
    if variant == SIMPLIFIED:     # the record keeps zeros that CSR drops
        assert E.nnz < len(E.diag) + 2 * len(E.off)


def test_flat_reduced_resolvent_is_free_1d():
    # the projector's modes are the operator's own, so each mode is the
    # free line to rounding: the simplified strip at n_u = 128, and the
    # benchmark's straight strip (full variant, alpha = 0.7) at 32 and 64
    for variant, alpha, n_u in ((SIMPLIFIED, 0.0, 128), (FULL, 0.7, 32),
                                (FULL, 0.7, 64)):
        geom = flat_geometry(alpha=alpha)
        grid = Grid2D(12.0, 1200, n_u, 1.0)
        op = build_waveguide(geom, variant, 2, grid)
        proj = ModeProjector(geom, grid, 2)
        f = bump_probe(-4.0, 1.5)(grid.s_interior)
        ref = dirichlet_line(grid.h_s, Z, f)
        for n in (0, 1, 2):
            g, info = reduced_resolvent(op, proj, n, n, Z, f)
            assert np.max(np.abs(g - ref)) < 1e-13
        # off-diagonal vanishes to the modes' orthogonality
        g01, _ = reduced_resolvent(op, proj, 0, 1, Z, f)
        assert np.max(np.abs(g01)) < 1e-11


def test_nan_residual_fails_the_post_check(monkeypatch):
    # NaN compares false both ways, so the gate must read "not below"; a
    # finite f reaches it through a band solve result that is not finite
    geom = bump_geometry(0.4)
    grid = Grid2D(8.0, 512, 16, 1.0)
    op = build_waveguide(geom, FULL, 1, grid)
    proj = ModeProjector(geom, grid, 1)
    f = bump_probe(-4.0, 1.5)(grid.s_interior)
    monkeypatch.setattr(waveguide2d.lapack, "zgbsv",
                        lambda kl, ku, ab, b, **kw: (
                            ab, None, np.full(b.shape, np.nan + 0j), 0))
    with pytest.raises(RobinwgError, match="core residual nan"):
        reduced_resolvent(op, proj, 0, 0, Z, f)


def test_perturbed_core_solution_trips_the_core_gate(monkeypatch):
    # a finite core error, one entry off by 1e-8 relative, fails the core
    # backward-error gate before the whole-grid check is read
    geom = bump_geometry(0.4, alpha=-2.0)
    grid = Grid2D(8.0, 512, 32, 1.0)
    op = build_waveguide(geom, FULL, 1, grid)
    proj = ModeProjector(geom, grid, 1)
    f = bump_probe(-3.0, 1.2)(grid.s_interior)
    gbsv = waveguide2d.lapack.zgbsv

    def perturbed(*args, **kwargs):
        lu, piv, x, info = gbsv(*args, **kwargs)
        x[np.unravel_index(np.abs(x).argmax(), x.shape)] *= 1 + 1e-8
        return lu, piv, x, info

    monkeypatch.setattr(waveguide2d.lapack, "zgbsv", perturbed)
    with pytest.raises(RobinwgError, match="core residual"):
        reduced_resolvent(op, proj, 0, 0, Z, f)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_f_is_rejected_before_any_work(monkeypatch, bad):
    geom = bump_geometry(0.4)
    grid = Grid2D(8.0, 512, 16, 1.0)
    op = build_waveguide(geom, FULL, 1, grid)
    proj = ModeProjector(geom, grid, 1)
    f = bump_probe(-4.0, 1.5)(grid.s_interior)
    block = np.array([f, f, f])
    f[100] = bad
    # in a block, a finite first row does not let a bad second row through
    block[1, 100] = bad
    calls = []
    for module, name in ((waveguide2d, "exterior_solve"),
                         (waveguide2d.lapack, "zgbsv")):
        monkeypatch.setattr(module, name,
                            lambda *a, name=name, **kw: calls.append(name))
    for rows in (f, block):
        with pytest.raises(RobinwgError, match="finite"):
            reduced_resolvent(op, proj, 0, 0, Z, rows)
    assert calls == []


@pytest.mark.parametrize("profile, alpha", [(default_bump(), -2.0),
                                            (default_bump(), 0.7),
                                            (FLAT, 0.7)],
                         ids=["curved_alpha_-2", "curved_alpha_0.7",
                              "straight_strip"])
def test_block_rows_equal_their_single_row_calls(profile, alpha):
    geom = WaveguideGeometry(profile, 1.0,
                             ScalingParams(epsilon=0.4, delta_ratio=0.05), alpha)
    grid = Grid2D(8.0, 512, 32, 1.0)
    op = build_waveguide(geom, FULL, 1, grid)
    proj = ModeProjector(geom, grid, 1)
    si = grid.s_interior
    F = np.array([bump_probe(-3.0, 1.2)(si), bump_probe(2.5, 0.8)(si),
                  np.cos(si) * bump_probe(0.0, 4.0)(si)])
    assert (op.core.stop > op.core.start) == (profile is not FLAT)
    for m, n in ((0, 0), (1, 0), (1, 1)):
        G, info = reduced_resolvent(op, proj, m, n, Z, F)
        assert G.shape == F.shape and info["iterations"] == 0
        # the block keeps the first row's field only
        assert info["field"].shape == op.shape
        for p, (f, g) in enumerate(zip(F, G)):
            g1, info1 = reduced_resolvent(op, proj, m, n, Z, f)
            assert np.array_equal(g, g1)
            if p == 0:
                assert np.array_equal(info["field"], info1["field"])
    for bad in (F[:, :-1], F[None]):
        with pytest.raises(RobinwgError, match="on the s interior"):
            reduced_resolvent(op, proj, 0, 0, Z, bad)


@pytest.mark.parametrize("alpha", [0.0, -2.0])
def test_block_call_holds_one_row_field_at_a_time(alpha):
    # a 10-row call holds mode n's exterior solution (one node value per
    # row), the Green columns (one field's worth) and one row's field, M F
    # and residual at a time: its traced peak, 1.10 blocks of rows x n_si x
    # (n_u + 1) complex numbers on theorem_check's grid, stays below 1.3
    # (2.04 with every mode's exterior solution held for every row, 3.7
    # with every row's M F and field held too)
    geom = bump_geometry(0.2, alpha=alpha)
    line = s_grid(geom.profile, 0.2, waveguide2d.s_half_length(Z))
    grid = Grid2D(line.half_length, line.n_cells, 32, 1.0)
    op = build_waveguide(geom, FULL, 1, grid)
    proj = ModeProjector(geom, grid, 1)
    si = grid.s_interior
    F = np.array([bump_probe(c, 1.0)(si) for c in np.linspace(-5.0, 5.0, 10)])
    peak = traced_peak(lambda: reduced_resolvent(op, proj, 0, 0, Z, F))
    assert peak < 1.3 * F.size * op.shape[1] * 16


def test_renormalisation_delta_independence():
    grid = Grid2D(12.0, 1200, 32, 1.0)
    si = None
    outs = []
    for ratio in (0.1, 0.05):
        geom = flat_geometry(ratio=ratio, alpha=0.7)
        op = build_waveguide(geom, SIMPLIFIED, 1, grid)
        proj = ModeProjector(geom, grid, 1)
        si = grid.s_interior
        f = bump_probe(-4.0, 1.5)(si)
        g, _ = reduced_resolvent(op, proj, 1, 1, Z, f)
        outs.append(g)
    assert np.max(np.abs(outs[0] - outs[1])) < 1e-8


def test_projector_orthonormal_and_flat_exact():
    geom = bump_geometry(0.4, alpha=0.7)
    grid = Grid2D(6.0, 600, 128, 1.0)
    proj = ModeProjector(geom, grid, 3)
    op = build_waveguide(geom, FULL, 3, grid)
    # orthonormal in the operator's own weights, trapezoid u-mass times h_u
    assert np.array_equal(proj.quad, grid.u_mass * grid.h_u)
    assert gram_deviation(proj) < 1e-12
    # flat columns are the operator's flat eigenvectors in unit L2 norm,
    # through synthesize and project alike
    assert np.max(np.abs(proj.flat * np.sqrt(grid.h_u)
                         - op.flat_eigvecs[:, :4].T)) < 1e-12
    flat = np.flatnonzero(geom.eta(grid.s_interior) == 0)
    assert 5 in flat  # far from the scaled support
    nsi, nu = op.shape
    field = np.random.default_rng(4).standard_normal((nsi, nu))
    for n in range(4):
        S = proj.synthesize(np.ones(nsi), n)
        assert np.array_equal(S[flat], np.broadcast_to(proj.flat[n],
                                                       (len(flat), nu)))
        want = (field * proj.flat[n]) @ proj.quad
        assert np.array_equal(proj.project(field, n)[flat], want[flat])


@pytest.mark.parametrize("profile", ["bump", "bell"])
@pytest.mark.parametrize("alpha", [-2.0, 0.0, 0.7])
def test_projector_core_modes_are_the_scalar_solves_bit_for_bit(profile, alpha):
    # the flat modes are the operator's flat eigenvectors over sqrt(h_u),
    # bit for bit; one call over all curved columns gives each column the
    # modes of its own one-pair solve, sign-matched to the flat modes; each
    # solves its column's discrete Robin eigenproblem
    prof = default_bump() if profile == "bump" else BELL
    geom = WaveguideGeometry(prof, 1.0,
                             ScalingParams(epsilon=0.4, delta_ratio=0.05), alpha)
    grid = Grid2D(6.0, 600, 32, 1.0)
    si, hu, nu = grid.s_interior, grid.h_u, grid.n_u + 1
    wu = grid.u_mass
    op = build_waveguide(geom, FULL, 3, grid)
    for n_max in (1, 3):
        proj = ModeProjector(geom, grid, n_max)
        flat = op.flat_eigvecs[:, :n_max + 1].T
        assert proj.flat.tobytes() == (flat / np.sqrt(hu)).tobytes()
        # the operator's core, whose padding columns hold the flat modes
        curved = np.flatnonzero(geom.eta(si) != 0)
        assert proj.core == op.core
        assert proj.core.start < curved[0] and curved[-1] + 1 < proj.core.stop
        a1, a2 = geom.robin_coefficients(si)
        for col in range(proj.core.start, proj.core.stop):
            Bw = _robin_matrix(a2[col], a1[col], hu, nu)
            modes = (robin_modes(a2[col], a1[col], grid.n_u, hu, n_max + 1)[1][0]
                     if col in curved else flat) / np.sqrt(hu)
            for n, want in enumerate(modes):
                if np.dot(want, proj.flat[n]) < 0:
                    want = -want
                got = proj.core_modes[n, col - proj.core.start]
                assert np.array_equal(got, want), (col, n)
                lam = got @ Bw @ got / (got @ (wu * got))
                assert np.linalg.norm(Bw @ got - lam * wu * got) < (
                    1e-12 * np.abs(Bw).sum(1).max() * np.linalg.norm(got))


@pytest.mark.parametrize("alpha", [-2.0, 0.0, 0.7])
def test_curved_modes_converge_to_the_continuum_at_second_order(alpha):
    # the discrete modes of a curved column against the scalar continuum
    # solve sampled on the u grid: halving h_u divides the error by 4
    geom = bump_geometry(0.4, alpha=alpha)
    errors = []
    for n_u in (32, 64):
        grid = Grid2D(6.0, 600, n_u, 1.0)
        proj = ModeProjector(geom, grid, 3)
        si, u = grid.s_interior, grid.u_points
        col = (proj.core.start + proj.core.stop) // 2 + 5
        assert geom.eta(si[col]) != 0
        a1, a2 = geom.robin_coefficients(si)
        err = []
        for n, (branch, k, _, A, B) in enumerate(
                scalar_asymmetric_spectrum(a1[col], a2[col], 1.0, 3)):
            want = mode_values(branch, k, A, B, u)
            got = proj.core_modes[n, col - proj.core.start]
            err.append(np.max(np.abs(got - np.sign(got @ want) * want)))
        errors.append(err)
    ratio = np.array(errors[0]) / np.array(errors[1])
    assert np.all((3.8 < ratio) & (ratio < 4.2)), (errors, ratio)


def test_projection_bessel_inequality():
    geom = bump_geometry(0.4)
    grid = Grid2D(8.0, 512, 48, 1.0)
    op = build_waveguide(geom, SIMPLIFIED, 4, grid)
    proj = ModeProjector(geom, grid, 4)
    si = grid.s_interior
    f = bump_probe(-3.0, 1.2)(si)
    _, info = reduced_resolvent(op, proj, 0, 0, Z, f)
    G = info["field"]
    wq = proj.quad
    norms = (np.abs(G) ** 2) @ wq
    partial = np.zeros_like(norms)
    gaps = []
    for nmax in (0, 2, 4):
        partial = sum(np.abs(proj.project(G, m)) ** 2 for m in range(nmax + 1))
        assert np.all(partial <= norms * (1 + 1e-10))
        gaps.append(np.max(norms - partial))
    assert gaps[0] >= gaps[1] >= gaps[2]


def test_manufactured_solution_second_order():
    # psi = cos(pi s/(2L)) xi_0(u): eigenvalue errors and the solve error of
    # a manufactured right-hand side both converge at O(h_u^2).  (The raw
    # boundary-row residual of the symmetric ghost form carries an O(h_u)
    # pointwise term on the measure-h_u strip, which is what integrates away.)
    geom = flat_geometry(alpha=0.8, ratio=0.5)
    xi0 = symmetric_spectrum(0.8, 1.0, 0)[0]
    L = 2.0
    eig_errs, sol_errs = [], []
    for n_u in (16, 32, 64):
        grid = Grid2D(L, 60, n_u, 1.0)
        op = build_waveguide(geom, SIMPLIFIED, 0, grid)
        eig_errs.append(abs(op.flat_eigvals[0] - xi0.eigenvalue))
        si, u = grid.s_interior, grid.u_points
        S, U = np.meshgrid(si, u, indexing="ij")
        psi = np.cos(np.pi * S / (2 * L)) * xi0(U)
        delta = geom.scaling.delta
        lam = (np.pi / (2 * L)) ** 2 + xi0.eigenvalue / delta ** 2
        z = 1j
        rhs = (lam - z) * psi          # exact (H - z) psi
        A, mass = full_grid_matrix(op)
        A = A - sp.diags(z * mass)
        sol = spla.spsolve(A.tocsc(), mass * rhs.ravel()).reshape(psi.shape)
        sol_errs.append(np.max(np.abs(sol - psi)) / np.max(np.abs(psi)))
    for errs in (eig_errs, sol_errs):
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.6) and np.all(orders < 2.4), (errs, orders)


def test_full_variant_rejects_non_smooth_profile():
    prof = CurvatureProfile(RECTANGULAR, amplitude=0.5, half_width=1.0)
    geom = WaveguideGeometry(prof, 1.0,
                             ScalingParams(epsilon=0.4, delta_ratio=0.05), 0.0)
    grid = Grid2D(4.0, 512, 16, 1.0)
    with pytest.raises(ProfileError):
        build_waveguide(geom, FULL, 0, grid)
    build_waveguide(geom, SIMPLIFIED, 0, grid)  # fine without gamma''


def test_full_minus_simplified_scales_linearly_in_delta_ratio():
    # the b1/b2/W-type difference terms are all O(delta/eps)
    eps = 0.4
    norms = {}
    for ratio in (0.1, 0.05):
        geom = bump_geometry(eps, ratio=ratio)
        grid = Grid2D(4.0, 400, 32, 1.0)
        a_full = build_waveguide(geom, FULL, 1, grid)
        a_hat = build_waveguide(geom, SIMPLIFIED, 1, grid)
        si, u = grid.s_interior, grid.u_points
        S, U = np.meshgrid(si, u, indexing="ij")
        psi = np.exp(-S ** 2) * np.cos(np.pi * U / 3)
        dv = apply_2d(a_full, psi) - apply_2d(a_hat, psi)
        wq = grid.u_mass * grid.h_u
        norms[ratio] = np.sqrt(np.sum((np.abs(dv) ** 2 @ wq)) * grid.h_s)
    r = norms[0.1] / norms[0.05]
    assert abs(r - 2.0) < 0.4


def test_reduced_resolvent_self_adjointness():
    geom = bump_geometry(0.4)
    grid = Grid2D(8.0, 800, 32, 1.0)
    op = build_waveguide(geom, FULL, 1, grid)
    proj = ModeProjector(geom, grid, 1)
    si = grid.s_interior
    f = bump_probe(-3.0, 1.2)(si)
    g = bump_probe(2.5, 1.0)(si)
    rf, _ = reduced_resolvent(op, proj, 0, 0, Z, f)
    rg, _ = reduced_resolvent(op, proj, 0, 0, np.conj(Z), g)
    lhs = np.trapezoid(np.conj(f) * (rg.conj() if False else rg), si)
    # <f, R(zbar) g> = <R(z) f, g> for the reduced operator (m = n)
    lhs = np.trapezoid(np.conj(f) * rg, si)
    rhs = np.trapezoid(np.conj(rf) * g, si)
    assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), abs(rhs))


def test_theorem_check_neumann_ground_mode_small():
    geom = bump_geometry(0.4)
    report = theorem_check(geom, 0, Z, bump_probe(-4.0, 1.5), [0.4, 0.2],
                           n_max=1, n_u=24, variant=FULL)
    assert report.predicted["kind"] == "free"
    assert abs(report.transmission[-1] - 1.0) < 0.05
    assert report.errors[-1] < report.alt_errors[-1]
    for m, vals in report.offdiagonal.items():
        assert vals[-1] < vals[0]


def test_theorem_check_excited_mode_decouples_small():
    geom = bump_geometry(0.4)
    report = theorem_check(geom, 1, Z, bump_probe(-4.0, 1.5), [0.4, 0.2],
                           n_max=1, n_u=24, variant=FULL)
    assert report.predicted["kind"] == "decoupled"
    assert report.leakage[-1] < report.leakage[0]
    assert report.errors[-1] < report.alt_errors[-1]


def test_theorem_dichotomy_tuned_vs_detuned_profile():
    """The resonance is an exceptional event: amplitude tuned so that
    beta_0(alpha) gamma^2 has a zero-energy resonance couples the edges;
    scaling the amplitude by 1.1 restores decoupling."""
    alpha = 1.0
    # amplitude from the well-strength invariance of the reference bump
    # (beta * amplitude^2 * half_width^2 at resonance is scale covariant),
    # confirmed by the mismatch of the tuned potential vanishing below
    from robinwg.resonance import Potential1D, zero_energy_solve
    from robinwg.transverse import perturbation_coefficients
    beta0 = perturbation_coefficients(alpha, 1.0, 0).beta
    a_star = float(np.sqrt(-7.647474116758 * 1.5 ** 2 / beta0))
    tuned = CurvatureProfile(SMOOTH_BUMP, amplitude=a_star, half_width=2.0)
    assert abs(zero_energy_solve(
        Potential1D.from_profile(tuned, beta0), 2).mismatch) < 1e-9

    eps_list = [0.4, 0.2]
    geom = WaveguideGeometry(tuned, 1.0,
                             ScalingParams(epsilon=0.4, delta_ratio=0.05), alpha)
    rep_tuned = theorem_check(geom, 0, Z, bump_probe(-4.0, 1.5), eps_list,
                              n_max=1, n_u=24, variant=FULL)
    assert rep_tuned.predicted["kind"] == "scale_invariant"
    assert rep_tuned.alt_errors[-1] > 3 * rep_tuned.errors[-1]

    detuned = tuned.scaled(1.1)
    geom = WaveguideGeometry(detuned, 1.0,
                             ScalingParams(epsilon=0.4, delta_ratio=0.05), alpha)
    rep_detuned = theorem_check(geom, 0, Z, bump_probe(-4.0, 1.5), eps_list,
                                n_max=1, n_u=24, variant=FULL)
    assert rep_detuned.predicted["kind"] == "decoupled"
    assert rep_detuned.errors[-1] < rep_detuned.alt_errors[-1]


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3))
def test_s_half_length_keeps_the_caps_past_the_decay(re_z, im_z):
    # the cap amplitude measured from s = 0 is below e^-10
    z = complex(re_z, im_z)
    L = waveguide2d.s_half_length(z)
    assert L >= waveguide2d.MIN_HALF_LENGTH
    assert L * sqrt_upper(z).imag >= 10.0
    assert s_grid(default_bump(), 0.1, L).half_length == L


def test_grid_validation():
    with pytest.raises(Exception):
        Grid2D(4.0, 100, 8, 1.0)        # n_u too small
    grid = Grid2D(4.0, 100, 16, 1.0)
    with pytest.raises(Exception):
        grid.check_mode_resolution(8)   # too many modes for n_u = 16


def _band_matrix(ab, nu):
    """The matrix held in LAPACK band storage with kl = ku = nu."""
    size = ab.shape[1]
    return sp.dia_matrix((ab[nu:], 2 * nu - np.arange(nu, 3 * nu + 1)),
                         shape=(size, size))


# an off-centre profile gives exteriors of unequal length
OFF_CENTRE = CurvatureProfile(TABULATED, nodes=tuple(np.linspace(0.5, 3.0, 6)),
                              values=(0.0, 0.3, 0.6, 0.6, 0.3, 0.0))


@pytest.mark.parametrize("profile, alpha, grid", [
    (default_bump(), 0.7, Grid2D(6.0, 600, 32, 1.0)),
    (OFF_CENTRE, -2.0, Grid2D(8.0, 1000, 32, 1.0))],
    ids=["bump", "off_centre"])
def test_core_band_is_the_matrix_free_core_operator(profile, alpha, grid):
    # the band, the exterior's Schur corners included, and b are the core
    # rows of the whole-grid system: K x = b - (M F - (M A - shift M) x)[C]
    # for the field x assembled from any core values
    geom = WaveguideGeometry(profile, 1.0,
                             ScalingParams(epsilon=0.4, delta_ratio=0.05), alpha)
    op = build_waveguide(geom, FULL, 1, grid)
    proj = ModeProjector(geom, grid, 1)
    # a source on both exteriors and on the core
    s = grid.s_interior
    f = bump_probe(-3.0, 1.2)(s) + bump_probe(1.5, 2.5)(s)
    (nsi, nu), C = op.shape, op.core
    assert 0 < C.start and C.stop < nsi
    if profile is OFF_CENTRE:
        assert C.start - (nsi - C.stop) > 50
    rng = np.random.default_rng(3)
    x = rng.standard_normal((C.stop - C.start, nu)) + 1j * rng.standard_normal(
        (C.stop - C.start, nu))
    F = f[None].astype(complex)
    for n in (0, 1):
        ab, b, assemble, shift = _core_system(op, proj, n, Z, F)
        assert ab.shape == (3 * nu + 1, x.size) and b.shape == (x.size, 1)
        rhs = proj.synthesize(F[0], n) * grid.u_mass
        want = b[:, 0] - (rhs - op._weighted_apply(assemble(0, x), shift))[
            C].ravel()
        got = _band_matrix(ab, nu) @ x.ravel()
        assert np.linalg.norm(got - want) < 1e-12 * np.linalg.norm(want)


def _direct_field(op, proj, n, f):
    delta = op.geometry.scaling.delta
    shift = op.flat_eigvals[n] / delta ** 2 + Z
    A, mass = full_grid_matrix(op)
    A = A - sp.diags(shift * mass)
    F = proj.synthesize(f.astype(complex), n)
    return spla.spsolve(A.tocsc(), mass * F.ravel()).reshape(op.shape)


@pytest.mark.parametrize("profile, variant", [(default_bump(), FULL),
                                              (default_bump(), SIMPLIFIED),
                                              (BELL, FULL)])
def test_operator_is_flat_outside_the_core(profile, variant):
    # the solver eliminates everything outside op.core as flat strip: the
    # assembled operator must equal the uncurved one there, entry by entry
    # (the spline's edge slope puts midpoint fluxes beyond its curved nodes)
    geom = WaveguideGeometry(profile, 1.0,
                             ScalingParams(epsilon=0.2, delta_ratio=0.05), 0.7)
    grid = Grid2D(6.0, 1200, 16, 1.0)
    op = build_waveguide(geom, variant, 1, grid)
    uncurved = WaveguideGeometry(geom.profile.scaled(0.0), geom.d,
                                 geom.scaling, geom.alpha)
    flat = build_waveguide(uncurved, variant, 1, grid)
    assert flat.core == slice(0, 0)
    diff = (full_grid_matrix(op)[0] - full_grid_matrix(flat)[0]).tocoo()
    hit = diff.data != 0
    cols = np.concatenate([diff.row[hit], diff.col[hit]]) // (grid.n_u + 1)
    assert op.core.start <= cols.min() and cols.max() < op.core.stop
    # no wider than the curved columns and one column each side
    assert op.core.start >= cols.min() - 1 and op.core.stop <= cols.max() + 2


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([FULL, SIMPLIFIED]), st.sampled_from(["bump", "bell"]),
       st.floats(-2.0, 1.0), st.sampled_from([0.4, 0.2]), st.integers(0, 2 ** 32 - 1))
def test_matrix_free_apply_is_the_full_grid_matrix(variant, profile, alpha, eps,
                                                   seed):
    # the flat stencil less the core correction is the whole-grid operator
    prof = default_bump() if profile == "bump" else BELL
    geom = WaveguideGeometry(prof, 1.0,
                             ScalingParams(epsilon=eps, delta_ratio=0.05), alpha)
    grid = Grid2D(6.0, 800, 16, 1.0)
    op = build_waveguide(geom, variant, 1, grid)
    A, mass = full_grid_matrix(op)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal(op.shape) + 1j * rng.standard_normal(op.shape)
    want = (A @ X.ravel() / mass).reshape(op.shape)
    assert np.linalg.norm(apply_2d(op, X) - want) <= 1e-12 * np.linalg.norm(want)


def test_theorem_check_solves_the_flat_spectrum_once(monkeypatch):
    # the continuum spectrum enters only through beta_n, asked for by mode
    # once per check; every projection uses the discrete modes
    from robinwg import transverse
    from robinwg.report import predicted_limit
    calls = []
    solve = transverse._symmetric_solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(transverse, "_symmetric_solve", counted)
    for alpha, n in ((0.0, 0), (-2.0, 1)):
        calls.clear()
        rep = theorem_check(bump_geometry(0.4, alpha=alpha), n, Z,
                            bump_probe(-4.0, 1.5), [0.4, 0.2, 0.1], n_max=1,
                            n_u=16)
        assert calls == [([alpha], 1.0, n)]
        beta = transverse.perturbation_coefficients(alpha, 1.0, n).beta
        assert rep.predicted == predicted_limit(default_bump(), beta,
                                               0.0)[0].to_dict()


@pytest.mark.parametrize("alpha", [-2.0, 0.0, 0.7])
def test_core_solve_matches_a_direct_solve(alpha):
    geom = bump_geometry(0.4, alpha=alpha)
    grid = Grid2D(8.0, 512, 32, 1.0)
    op = build_waveguide(geom, FULL, 1, grid)
    proj = ModeProjector(geom, grid, 1)
    f = bump_probe(-3.0, 1.2)(grid.s_interior)
    for n in (0, 1):
        _, info = reduced_resolvent(op, proj, n, n, Z, f)
        ref = _direct_field(op, proj, n, f)
        assert np.linalg.norm(info["field"] - ref) < 1e-8 * np.linalg.norm(ref)
        assert info["iterations"] == 0


def test_straight_strip_is_the_empty_core():
    geom = flat_geometry(alpha=0.7)
    grid = Grid2D(8.0, 512, 32, 1.0)
    op = build_waveguide(geom, FULL, 1, grid)
    proj = ModeProjector(geom, grid, 1)
    f = bump_probe(-3.0, 1.2)(grid.s_interior)
    _, info = reduced_resolvent(op, proj, 0, 0, Z, f)
    assert op.core == slice(0, 0) and info["iterations"] == 0
    ref = _direct_field(op, proj, 0, f)
    assert np.linalg.norm(info["field"] - ref) < 1e-8 * np.linalg.norm(ref)


def test_tabulated_profile_core_is_its_node_range():
    geom = WaveguideGeometry(BELL, 1.0,
                             ScalingParams(epsilon=0.4, delta_ratio=0.05), 0.0)
    grid = Grid2D(8.0, 512, 32, 1.0)
    op = build_waveguide(geom, FULL, 1, grid)
    lo, hi = geom.scaled_support
    inside = np.flatnonzero((grid.s_interior > lo) & (grid.s_interior < hi))
    assert op.core == slice(inside[0] - 1, inside[-1] + 2)
    proj = ModeProjector(geom, grid, 1)
    f = bump_probe(-3.0, 1.2)(grid.s_interior)
    _, info = reduced_resolvent(op, proj, 0, 0, Z, f)
    ref = _direct_field(op, proj, 0, f)
    assert np.linalg.norm(info["field"] - ref) < 1e-8 * np.linalg.norm(ref)


def test_dump_field_reuses_the_theorem_check_solve(tmp_path, monkeypatch):
    eps_list = [0.4, 0.2]
    calls, reports = [], []
    solve, check = waveguide2d.reduced_resolvent, waveguide2d.theorem_check

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    def kept(*args, **kwargs):
        reports.append(check(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(waveguide2d, "reduced_resolvent", counted)
    # cli imports theorem_check inside cmd_waveguide_check
    monkeypatch.setattr(waveguide2d, "theorem_check", kept)
    cfg = tmp_path / "wg.cfg"
    cfg.write_text("alpha = 0.0\nn = 0\nn_max = 1\nn_u = 16\n"
                   "eps_list = 0.4,0.2\ndump_field = true\n")
    out = tmp_path / "out"
    assert cli.main(["waveguide-check", "--config", str(cfg),
                     "--out", str(out)]) == 0
    assert len(calls) == len(eps_list)

    rows = [line.split(",") for line in
            (out / "field_slice.csv").read_text().splitlines()
            if not line.startswith(("#", "s,"))]
    s_col = np.unique([float(r[0]) for r in rows])
    si, u, field = reports[0].probe_field
    stride = max(1, len(si) // 400)
    assert np.array_equal(s_col, si[::stride])
    assert len(rows) == len(s_col) * len(u)
    # the field lives on the interior nodes of the check's own s-grid
    assert np.array_equal(si, s_grid(default_bump(), eps_list[-1],
                                     waveguide2d.s_half_length(Z)).points[1:-1])
    first = rows[0]
    assert complex(float(first[2]), float(first[3])) == field[0, 0]


def test_theorem_check_validates_mode_and_eps_list():
    probe = bump_probe(-4.0, 1.5)
    with pytest.raises(RobinwgError, match="n_max"):
        theorem_check(flat_geometry(), 1, Z, probe, [0.4, 0.2], n_max=0)
    with pytest.raises(RobinwgError, match="strictly decreasing"):
        theorem_check(flat_geometry(eps=0.1), 0, Z, probe, [0.1, 0.2, 0.4])
    with pytest.raises(RobinwgError, match="at least one probe"):
        theorem_check(flat_geometry(), 0, Z, [], [0.4, 0.2])
    # the probe vanishes on the s-grid (|s| < 12.3 at eps 0.4)
    with pytest.raises(RobinwgError, match="probe 0 has sampled norm 0"):
        theorem_check(flat_geometry(), 0, Z, bump_probe(30.0, 1.5),
                      [0.4, 0.2])


def test_mode_projector_sturm_guard(monkeypatch):
    # at alpha = -4 the negative pair splits by ~e^(-2|alpha|d) on weakly
    # curved columns; the discrete modes resolve it, and the check runs
    rep = theorem_check(bump_geometry(0.4, alpha=-4.0), 0, Z,
                        bump_probe(-4.0, 1.5), [0.4, 0.2, 0.1], n_max=1)
    assert rep.predicted["kind"] == "decoupled"
    assert rep.verdict == "converges-to-predicted"
    assert [float(f"{e:.3g}") for e in rep.errors] == [0.0252, 0.0104, 0.00473]
    # the benchmark's three waveguide-check configs pass the guard
    for alpha, n in ((0.0, 0), (0.0, 1), (-2.0, 0)):
        rep = theorem_check(bump_geometry(0.4, alpha=alpha), n, Z,
                            bump_probe(-4.0, 1.5), [0.4, 0.2, 0.1], n_max=1)
        assert rep.verdict == "converges-to-predicted"
    # a mode out of order changes sign the wrong number of times
    stemr = waveguide2d.lapack.dstemr

    def swapped(*args, **kwargs):
        m, w, v, info = stemr(*args, **kwargs)
        v[:, [0, 1]] = v[:, [1, 0]]
        return m, w, v, info

    monkeypatch.setattr(waveguide2d.lapack, "dstemr", swapped)
    waveguide2d.flat_modes.cache_clear()   # the flat modes are solved anew
    grid = Grid2D(8.0, 512, 32, 1.0)
    with pytest.raises(BracketingError, match="oscillation count"):
        ModeProjector(bump_geometry(0.4, alpha=-4.0), grid, 1)
    with pytest.raises(BracketingError, match="oscillation count"):
        build_waveguide(bump_geometry(0.4), FULL, 1, grid)


def test_off_diagonal_norms_measure_leakage_not_the_transverse_grid():
    # alpha = 1, n = 2, n_max = 3: r_02 shares its parity with r_22, and
    # projected on sampled continuum modes it sat on an h_u^2 floor
    # (5.3e-4 at n_u = 32); on the operator's own modes it falls with eps
    # and reads the same at every n_u
    geom = bump_geometry(0.4, alpha=1.0)
    norms = [theorem_check(geom, 2, Z, bump_probe(-4.0, 1.5), [0.4, 0.2],
                           n_max=3, n_u=n_u).offdiagonal[0]
             for n_u in (32, 64)]
    for r02 in norms:
        assert r02[1] < r02[0] < 1e-7
    assert np.allclose(norms[0], norms[1], rtol=0.01)


def test_perturbed_exterior_column_trips_the_field_check(monkeypatch):
    # the assembled field is checked on the whole grid: one exterior column
    # off by 1e-6 of the field's scale leaves a residual far above the bound
    geom = bump_geometry(0.4, alpha=-2.0)
    grid = Grid2D(8.0, 512, 32, 1.0)
    op = build_waveguide(geom, FULL, 1, grid)
    proj = ModeProjector(geom, grid, 1)
    f = bump_probe(-3.0, 1.2)(grid.s_interior)
    _, info = reduced_resolvent(op, proj, 0, 0, Z, f)
    solve = waveguide2d.exterior_solve

    def perturbed(*args):
        U_l, U_r = solve(*args)
        U_l[:, 40] += 1e-6 * np.abs(info["field"]).max()
        return U_l, U_r

    monkeypatch.setattr(waveguide2d, "exterior_solve", perturbed)
    assert op.core.start > 41
    with pytest.raises(RobinwgError, match="assembled field residual"):
        reduced_resolvent(op, proj, 0, 0, Z, f)


@pytest.mark.parametrize("profile", [default_bump(), FLAT])
def test_one_exterior_solve_and_no_factorisation_beyond_the_core(
        monkeypatch, profile):
    from robinwg import effective_1d
    geom = WaveguideGeometry(profile, 1.0,
                             ScalingParams(epsilon=0.4, delta_ratio=0.05), -2.0)
    grid = Grid2D(8.0, 512, 32, 1.0)
    op = build_waveguide(geom, FULL, 1, grid)
    proj = ModeProjector(geom, grid, 1)
    f = bump_probe(-3.0, 1.2)(grid.s_interior)
    sizes = {"gtsv": [], "gbsv": []}
    gtsv, gbsv = effective_1d.zgtsv, waveguide2d.lapack.zgbsv

    def counted_gtsv(dl, d, du, b, *args, **kwargs):
        sizes["gtsv"].append(b.shape)
        return gtsv(dl, d, du, b, *args, **kwargs)

    def counted_gbsv(kl, ku, ab, *args, **kwargs):
        sizes["gbsv"].append((kl, ku, ab.shape[1]))
        return gbsv(kl, ku, ab, *args, **kwargs)

    apply = waveguide2d.DiscreteWaveguideOperator._weighted_apply
    applies = []

    def counted_apply(self, *args, **kwargs):
        applies.append(1)
        return apply(self, *args, **kwargs)

    synthesize = ModeProjector.synthesize
    syntheses = []

    def counted_synthesize(self, *args, **kwargs):
        syntheses.append(1)
        return synthesize(self, *args, **kwargs)

    monkeypatch.setattr(effective_1d, "zgtsv", counted_gtsv)
    monkeypatch.setattr(waveguide2d.lapack, "zgbsv", counted_gbsv)
    monkeypatch.setattr(waveguide2d.DiscreteWaveguideOperator,
                        "_weighted_apply", counted_apply)
    monkeypatch.setattr(ModeProjector, "synthesize", counted_synthesize)
    nsi, nu = op.shape
    k = op.core.stop - op.core.start
    # a block of 3 rows is solved by the same two calls as one row
    for rows in (f, np.array([f, 2 * f, 3 * f])):
        sizes["gtsv"].clear()
        sizes["gbsv"].clear()
        applies.clear()
        syntheses.clear()
        reduced_resolvent(op, proj, 0, 0, Z, rows)
        p = np.atleast_2d(rows).shape[0]
        # mode n's exterior nodes in one solve, a column per row (the other
        # modes have no source there), the core in one band solve
        assert sizes["gtsv"] == [(nsi - k, p)]
        assert sizes["gbsv"] == ([(nu, nu, k * nu)] if k else [])
        # one matrix-free apply per row serves both gates, and the
        # residual's source is the one whole-grid synthesis per row (M F on
        # the core comes from the projector's core modes)
        assert len(applies) == p
        assert len(syntheses) == p


def test_projector_of_another_geometry_or_grid_is_refused(monkeypatch):
    # the core system reads the projector's modes on op.core, so a
    # projector built for another eps on a grid of the same size, another
    # alpha or another grid is refused before any work
    grid = Grid2D(8.0, 512, 32, 1.0)
    op = build_waveguide(bump_geometry(0.4), FULL, 1, grid)
    f = bump_probe(-3.0, 1.2)(grid.s_interior)

    def no_work(*args, **kwargs):
        raise AssertionError("the core system was formed")

    monkeypatch.setattr(waveguide2d, "_core_system", no_work)
    for proj in (ModeProjector(bump_geometry(0.2), grid, 1),
                 ModeProjector(bump_geometry(0.4, alpha=0.7), grid, 1),
                 ModeProjector(op.geometry, Grid2D(8.0, 512, 48, 1.0), 1),
                 ModeProjector(op.geometry, Grid2D(9.0, 512, 32, 1.0), 1)):
        with pytest.raises(RobinwgError, match="projector's geometry"):
            reduced_resolvent(op, proj, 0, 0, Z, f)


def test_two_probe_study_is_the_max_of_its_one_probe_studies(monkeypatch):
    # the README geometry; the report's per-eps errors are the max over the
    # probes, and every first-probe record is the first probe's own
    probes = [bump_probe(-4.0, 1.5), bump_probe(-5.0, 1.8)]
    eps_list = [0.4, 0.2, 0.1]
    calls = []
    solve = waveguide2d.reduced_resolvent

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(waveguide2d, "reduced_resolvent", counted)
    geom = bump_geometry(0.4)
    both = theorem_check(geom, 0, Z, probes, eps_list, n_max=1)
    assert len(calls) == len(eps_list)
    first, second = (theorem_check(geom, 0, Z, p, eps_list, n_max=1)
                     for p in probes)
    for key in ("errors", "alt_errors"):
        assert getattr(both, key) == [max(a, b) for a, b in zip(
            getattr(first, key), getattr(second, key))]
    # each maximum comes from a different probe here
    assert both.errors == second.errors != first.errors
    assert both.alt_errors == first.alt_errors != second.alt_errors
    for key in ("leakage", "transmission", "offdiagonal"):
        assert getattr(both, key) == getattr(first, key)
    assert all(np.array_equal(a, b)
               for a, b in zip(both.probe_field, first.probe_field))
