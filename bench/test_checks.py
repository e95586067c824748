"""Negative controls: every check must reject a wrong answer.

Run from the repository root:

    python3 -m pytest -q bench/test_checks.py

Each test feeds a check the program's real output (it must pass) and then
a wrong variant of it (it must fail).  The last two tests start the
benchmark itself: two runs with the same seed must write the same output
digests, and a run without the library sources must fail without a result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks as C  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from robinwg import Potential1D, detect_resonance, effective_1d, geometry  # noqa: E402

BUMP = geometry.CurvatureProfile(geometry.SMOOTH_BUMP, **W.BUMP)
SQUARE = geometry.CurvatureProfile(geometry.RECTANGULAR, 1.0, 0.5, 0.5)


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".bench_runs" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _scan_doc(profile, beta):
    res = detect_resonance(Potential1D.from_profile(profile, beta))
    return {"beta_star": beta, "result": res.to_dict()}


def test_square_well_rejects_shifted_root():
    doc = _scan_doc(SQUARE, -math.pi ** 2)
    assert C.check_square_well(doc) == []
    doc["beta_star"] += 1e-6
    assert C.check_square_well(doc)


def test_scan_root_rejects_beta_star_off_by_1e6():
    g2 = C.bump_squared(**W.BUMP)
    doc = _scan_doc(BUMP, W.BUMP_BETA_STAR)
    assert C.check_scan_root(doc, g2, (-2.0, 2.0), "bump") == []
    off = dict(doc, beta_star=W.BUMP_BETA_STAR + 1e-6)
    assert C.check_scan_root(off, g2, (-2.0, 2.0), "bump")
    # right root, wrong resonance constants
    doc2 = _scan_doc(BUMP, W.BUMP_BETA_STAR)
    doc2["result"] = dict(doc2["result"], c_plus=-doc2["result"]["c_plus"])
    assert C.check_scan_root(doc2, g2, (-2.0, 2.0), "bump")


def test_covariance_rejects_perturbed_scaled_root():
    a = 1.37
    base = _scan_doc(BUMP, W.BUMP_BETA_STAR)
    scaled = _scan_doc(BUMP.scaled(a), W.BUMP_BETA_STAR / a ** 2)
    assert C.check_amplitude_covariance(base, scaled, a) == []
    scaled["beta_star"] += 1e-6
    assert C.check_amplitude_covariance(base, scaled, a)


def test_spectrum_rejects_perturbed_eigenvalues(workdir):
    wl = W.ResonanceScan(0, workdir)
    cfg = "n_max = 7\nalpha_min = -10\nalpha_max = 10\nalpha_count = 201\n"
    out = wl._cli("spectrum", "spectrum", cfg)
    mu = W._read_rows(out.data["dir"] / "mu_table.csv")
    beta = W._read_rows(out.data["dir"] / "beta_table.csv")
    assert C.check_spectrum(mu, beta, 7) == []
    bad = [r[:] for r in mu]
    bad[8 * 150 + 3][2] *= 1 + 1e-6                   # parity equation
    assert C.check_spectrum(bad, beta, 7)
    bad = [r[:] for r in mu]
    bad[8 * 180][2] = -abs(bad[8 * 180][2])           # negative count at alpha > 0
    assert C.check_spectrum(bad, beta, 7)
    bad = [r[:] for r in beta]
    bad[8 * 100 + 2][4] = 0.7                          # beta_2(0) != 3/4
    assert C.check_spectrum(mu, bad, 7)


def test_transmission_rejects_wrong_sign_target():
    rep = effective_1d.convergence_study(
        SQUARE, -math.pi ** 2, 1.0, W.Z, effective_1d.bump_probe(-4.0, 1.5),
        W.EPS_1D, h_target=1e-3).to_dict()
    r = 1 / math.sqrt(2)
    tau = C.transmission_formula(r, -r, -math.pi ** 2 / 4, W.Z)
    assert C.check_transmission(rep, tau, C.TAU_1D_TOL, "sq") == []
    assert C.check_transmission(rep, -tau, C.TAU_1D_TOL, "sq")
    assert C.check_convergence(rep, "deformed", "sq", 0.02) == []
    assert C.check_convergence(rep, "scale_invariant", "sq", 0.02)


def test_floor_verdict_rule():
    floor = {"verdict": C.MATCH, "eps_list": [0.4, 0.2, 0.1],
             "errors": [3.0e-4, 2.4e-4, 2.37e-4],
             "discretization_estimate": None, "notes": []}
    assert C.check_floor_verdict(floor)
    noted = dict(floor, discretization_estimate=2.3e-4,
                 notes=["errors at discretisation floor 2.3e-4"])
    assert C.check_floor_verdict(noted) == []
    decaying = dict(floor, errors=[3.0e-2, 1.6e-2, 0.8e-2])
    assert C.check_floor_verdict(decaying) == []
    assert C.check_floor_verdict(dict(floor, verdict="inconclusive")) == []
    assert C.check_decreasing([0.02, 0.01, 0.011], "leakage")


def test_strip_rejects_perturbed_resolvent():
    wl = W.Waveguide2D(4, Path("."))
    out = wl._strip()
    assert wl.check("straight_strip", out, {}) == []
    g, g2 = out.data["r_nn"]
    ref = C.free_resolvent_1d(wl.strip_grid.h_s, W.Z, wl.strip_f)
    assert C.check_strip(g + 1e-7, ref, g2)
    assert C.check_strip(g, ref, g2 * (1 + 1e-7))


def test_override_prediction_is_rejected(workdir):
    wl = W.Waveguide2D(0, workdir)
    out = wl._cli("waveguide-check", "readme_n0", W.README_WG,
                  "--override-prediction", "decoupled")
    assert out.data["exit"] == 4
    fails = wl.check("readme_n0", out, {})
    assert any("exit code 4" in f for f in fails)
    assert any("verdict mismatch" in f for f in fails)


def test_benchmark_json_is_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.SPEC


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_same_seed_gives_same_digests():
    digests = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", "limits", "--seed", "7",
                    "--seconds", "1", "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["failed"] * 8 == result["attempted"]    # readme_n0 only
        digests.append((ROOT / ".bench_runs" / "digests-limits-seed7.json")
                       .read_text())
    assert digests[0] == digests[1]


def test_run_without_sources_fails(workdir):
    shutil.copytree(BENCH, workdir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    proc = _run(workdir, "--workload", "limits", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
