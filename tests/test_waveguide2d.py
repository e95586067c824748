import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh, solve_banded

from robinwg.effective_1d import (Grid1D, build_h_n_eps, bump_probe,
                                  resolvent_solve, s_grid)
from robinwg.errors import (BracketingError, ProfileError, RobinwgError,
                            SolverConvergenceError)
from robinwg.geometry import (RECTANGULAR, SMOOTH_BUMP, TABULATED,
                              CurvatureProfile, ScalingParams,
                              WaveguideGeometry, default_bump)
from robinwg.transverse import symmetric_spectrum
from robinwg import cli, waveguide2d
from robinwg.waveguide2d import (FULL, SIMPLIFIED, Grid2D, ModeProjector,
                                 _separable_preconditioner, build_waveguide,
                                 gregory_weights, reduced_resolvent,
                                 theorem_check)
from reference import full_grid_matrix, mode_values, scalar_asymmetric_spectrum

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


def test_gregory_weights_integrate_trig_to_high_order():
    # end-corrected trapezoid (7th order measured): products of the first
    # few modes integrate to ~1e-8 at the n_u used for tight-tolerance runs
    for n, tol in ((65, 5e-7), (129, 1e-8)):
        u = np.linspace(-1, 1, n)
        w = gregory_weights(n, u[1] - u[0])
        for p in (np.pi / 2, np.pi, 3 * np.pi / 2):
            exact = 1.0 + np.sin(2 * p) / (2 * p)
            assert abs(np.dot(w, np.cos(p * u) ** 2) - exact) < tol


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


def test_flat_reduced_resolvent_is_free_1d():
    geom = flat_geometry()
    grid = Grid2D(12.0, 1200, 128, 1.0)
    op = build_waveguide(geom, SIMPLIFIED, 2, grid)
    proj = ModeProjector(geom, grid, 2)
    si = grid.s_interior
    f = bump_probe(-4.0, 1.5)(si)
    for n in (0, 1, 2):
        g, info = reduced_resolvent(op, proj, n, n, Z, f)
        g1 = Grid1D(grid.s_half_length, grid.n_s)
        full = np.zeros(grid.n_s + 1, dtype=complex)
        full[1:-1] = f
        ref = resolvent_solve(build_h_n_eps(FLAT, 0.0, 1.0, 0.0, g1), Z, full)[1:-1]
        assert np.max(np.abs(g - ref)) < 1e-8
        assert info["preconditioned_residual"] < 1e-9
        # the separable preconditioner is exact on the flat strip
        assert info["iterations"] <= 2
    # off-diagonal vanishes to solver tolerance
    g01, _ = reduced_resolvent(op, proj, 0, 1, Z, f)
    assert np.max(np.abs(g01)) < 1e-9


def test_gmres_stall_is_caught_by_the_post_check():
    # rtol below rounding: GMRES's own residual estimate drops to ~1e-15,
    # but the preconditioned residual recomputed from rhs - A g does not
    geom = bump_geometry(0.4)
    grid = Grid2D(8.0, 512, 48, 1.0)
    op = build_waveguide(geom, FULL, 1, grid)
    proj = ModeProjector(geom, grid, 1)
    f = bump_probe(-4.0, 1.5)(grid.s_interior)
    rtol = 1e-16
    with pytest.raises(SolverConvergenceError) as exc:
        reduced_resolvent(op, proj, 0, 0, Z, f, rtol=rtol, maxiter=80)
    assert exc.value.history
    # the solve is good; only the target is out of reach
    pr_res = float(str(exc.value).rsplit(" ", 1)[-1])
    assert 10 * rtol < pr_res < 1e-9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_residual_fails_the_post_check():
    # NaN compares false both ways, so the gate must read "not below"
    geom = bump_geometry(0.4)
    grid = Grid2D(8.0, 512, 16, 1.0)
    op = build_waveguide(geom, FULL, 1, grid)
    proj = ModeProjector(geom, grid, 1)
    f = bump_probe(-4.0, 1.5)(grid.s_interior)
    f[100] = np.nan
    with pytest.raises(SolverConvergenceError, match="nan"):
        reduced_resolvent(op, proj, 0, 0, Z, f)


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
    geom = bump_geometry(0.4)
    grid = Grid2D(6.0, 600, 128, 1.0)
    proj = ModeProjector(geom, grid, 3)
    assert proj.gram_deviation() < 1e-8
    # flat columns equal the symmetric modes exactly, through synthesize
    # and project alike
    u = grid.u_points
    flat = np.flatnonzero(geom.eta(grid.s_interior) == 0)
    assert 5 in flat  # far from the scaled support
    field = np.random.default_rng(4).standard_normal((len(grid.s_interior), len(u)))
    for n, m in enumerate(symmetric_spectrum(0.0, 1.0, 3)):
        S = proj.synthesize(np.ones(len(grid.s_interior)), n)
        assert np.array_equal(S[flat], np.broadcast_to(m(u), (len(flat), len(u))))
        want = (field * np.broadcast_to(m(u), field.shape)) @ proj.quad
        assert np.array_equal(proj.project(field, n)[flat], want[flat])


@pytest.mark.parametrize("profile", ["bump", "bell"])
@pytest.mark.parametrize("alpha", [-2.0, 0.0, 0.7])
def test_projector_core_modes_are_the_scalar_solves_bit_for_bit(profile, alpha):
    # one lane-wise pass over all curved columns gives each column the modes
    # of its own scalar-brentq solve, sign-matched to the flat modes
    prof = default_bump() if profile == "bump" else BELL
    geom = WaveguideGeometry(prof, 1.0,
                             ScalingParams(epsilon=0.4, delta_ratio=0.05), alpha)
    grid = Grid2D(6.0, 600, 32, 1.0)
    si, u = grid.s_interior, grid.u_points
    for n_max in (1, 3):
        proj = ModeProjector(geom, grid, n_max)
        flat = [m(u) for m in symmetric_spectrum(alpha, 1.0, n_max)]
        curved = np.flatnonzero(geom.eta(si) != 0)
        assert proj.core == slice(curved[0], curved[-1] + 1)
        a1, a2 = geom.robin_coefficients(si)
        for col in range(proj.core.start, proj.core.stop):
            modes = scalar_asymmetric_spectrum(a1[col], a2[col], 1.0, n_max)
            for n, (branch, k, _, A, B) in enumerate(modes):
                want = mode_values(branch, k, A, B, u) if col in curved else flat[n]
                if np.dot(want, flat[n]) < 0:
                    want = -want
                got = proj.core_modes[n, col - proj.core.start]
                assert np.array_equal(got, want), (col, n)


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
        dv = a_full.apply(psi) - a_hat.apply(psi)
        wq = gregory_weights(len(u), grid.h_u)
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


def test_grid_validation():
    with pytest.raises(Exception):
        Grid2D(4.0, 100, 8, 1.0)        # n_u too small
    grid = Grid2D(4.0, 100, 16, 1.0)
    with pytest.raises(Exception):
        grid.check_mode_resolution(8)   # too many modes for n_u = 16


def test_separable_preconditioner_matches_per_mode_banded_solves():
    geom = bump_geometry(0.4, alpha=0.7)
    grid = Grid2D(6.0, 600, 32, 1.0)
    op = build_waveguide(geom, FULL, 1, grid)
    nsi, nu = op.shape
    hs, delta = grid.h_s, geom.scaling.delta
    lam, Phi = op.flat_eigvals, op.flat_eigvecs
    rng = np.random.default_rng(3)
    r = rng.standard_normal(nsi * nu) + 1j * rng.standard_normal(nsi * nu)
    for n in (0, 1):
        shifts = (lam - lam[n]) / delta ** 2 - Z
        Rt = r.reshape(nsi, nu) @ Phi
        Y = np.empty((nsi, nu), dtype=complex)
        for j in range(nu):
            ab = np.zeros((3, nsi), dtype=complex)
            ab[0, 1:] = -1.0 / hs ** 2
            ab[1, :] = 2.0 / hs ** 2 + op.potential_s + shifts[j]
            ab[2, :-1] = -1.0 / hs ** 2
            Y[:, j] = solve_banded((1, 1), ab, Rt[:, j])
        apply = _separable_preconditioner(op, n, Z)
        assert np.array_equal(apply(r), (Y @ Phi.T).ravel())
        assert np.array_equal(apply(r), apply(r))   # no state carried over


def _direct_field(op, proj, n, f):
    delta = op.geometry.scaling.delta
    shift = op.transverse_threshold(n) / delta ** 2 + Z
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
    assert np.linalg.norm(op.apply(X) - want) <= 1e-12 * np.linalg.norm(want)


def test_theorem_check_solves_the_flat_spectrum_once(monkeypatch):
    calls = []
    solve = waveguide2d.symmetric_spectrum

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(waveguide2d, "symmetric_spectrum", counted)
    for alpha, n in ((0.0, 0), (-2.0, 1)):
        calls.clear()
        theorem_check(bump_geometry(0.4, alpha=alpha), n, Z, bump_probe(-4.0, 1.5),
                      [0.4, 0.2, 0.1], n_max=1, n_u=16)
        assert calls == [(alpha, 1.0, 1)]


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
        assert info["preconditioned_residual"] <= 1e-9
        assert info["iterations"] > 0


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


def test_core_preconditioner_is_the_restriction_of_the_full_one():
    # the closed-form Schur terms eliminate the flat exterior exactly
    geom = bump_geometry(0.4, alpha=-2.0)
    grid = Grid2D(8.0, 512, 32, 1.0)
    op = build_waveguide(geom, FULL, 1, grid)
    nu = grid.n_u + 1
    rows = slice(op.core.start * nu, op.core.stop * nu)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(rows.stop - rows.start) + 0j
    for n in (0, 1):
        embedded = np.zeros(np.prod(op.shape), dtype=complex)
        embedded[rows] = v
        full = _separable_preconditioner(op, n, Z)(embedded)[rows]
        core = _separable_preconditioner(op, n, Z, op.core)(v)
        assert np.linalg.norm(core - full) < 1e-12 * np.linalg.norm(full)


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
    solve, check = waveguide2d.reduced_resolvent, cli.theorem_check

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    def kept(*args, **kwargs):
        reports.append(check(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(waveguide2d, "reduced_resolvent", counted)
    monkeypatch.setattr(cli, "theorem_check", kept)
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
    assert np.array_equal(si, s_grid(default_bump(), eps_list[-1], Z,
                                     12.0).points[1:-1])
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


def test_mode_projector_sturm_guard():
    # at alpha = -4 the negative pair splits by ~e^(-2|alpha|d), below the
    # lane-wise solve's bracket spacing on weakly curved columns: the modes
    # come out with shifted indices, and the sign count catches it
    with pytest.raises(BracketingError, match="oscillation count"):
        theorem_check(bump_geometry(0.4, alpha=-4.0), 0, Z,
                      bump_probe(-4.0, 1.5), [0.4, 0.2])
    # the benchmark's three waveguide-check configs pass the guard
    for alpha, n in ((0.0, 0), (0.0, 1), (-2.0, 0)):
        rep = theorem_check(bump_geometry(0.4, alpha=alpha), n, Z,
                            bump_probe(-4.0, 1.5), [0.4, 0.2, 0.1], n_max=1)
        assert rep.verdict == "converges-to-predicted"
