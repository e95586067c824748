import json

import numpy as np
import pytest

from robinwg.cli import _dump_field_slice, _write_csv, main


def run(tmp_path, name, cfg_text, *extra):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / name
    code = main([name.split("__")[0], "--config", str(cfg),
                 "--out", str(out), *extra])
    return code, out


def test_spectrum_default_landmarks(tmp_path):
    code, out = run(tmp_path, "spectrum", "alpha_count = 11\n")
    assert code == 0
    beta = (out / "beta_table.csv").read_text().splitlines()
    assert beta[0].startswith("# robinwg version:")
    assert any(line.startswith("# config hash:") for line in beta[:4])
    header = next(l for l in beta if l.startswith("alpha"))
    assert header == "alpha,n,mu_n,lambda2_n,beta_n"
    rows = [l.split(",") for l in beta if not l.startswith(("#", "alpha"))]
    at_zero = {int(r[1]): float(r[4]) for r in rows if float(r[0]) == 0.0}
    assert abs(at_zero[0]) < 1e-10          # the singular point emits the limit
    for n in (1, 2, 3):
        assert abs(at_zero[n] - 0.75) < 1e-10
    assert (out / "mu_table.csv").exists()


def test_spectrum_determinism(tmp_path):
    cfg = "alpha_count = 21\nn_max = 2\n"
    _, out1 = run(tmp_path, "spectrum__a", cfg)
    _, out2 = run(tmp_path, "spectrum__b", cfg)
    assert ((out1 / "beta_table.csv").read_bytes()
            == (out2 / "beta_table.csv").read_bytes())


def test_spectrum_empty_grid_usage_error(tmp_path):
    code, _ = run(tmp_path, "spectrum", "alpha_count = 0\n")
    assert code == 2


@pytest.mark.parametrize("cfg", ["d = -1.0\n", "d = 0\n", "n_max = -1\n"],
                         ids=["negative_d", "zero_d", "negative_n_max"])
def test_spectrum_bad_geometry_is_config_error(tmp_path, capsys, cfg):
    code, out = run(tmp_path, "spectrum", "alpha_count = 5\n" + cfg)
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not list(out.glob("*"))


def test_unknown_key_rejected(tmp_path):
    code, _ = run(tmp_path, "spectrum", "alpha_countt = 5\n")
    assert code == 2


def test_resonance_square_well(tmp_path):
    cfg = ("kind = rectangular\namplitude = 1.0\ncenter = 0.5\n"
           "half_width = 0.5\nbeta_min = -15\nbeta_max = -1\n")
    code, out = run(tmp_path, "resonance", cfg)
    assert code == 0
    doc = json.loads((out / "resonance.json").read_text())
    assert abs(doc["data"]["beta_star"] - (-np.pi ** 2)) < 1e-8
    res = doc["data"]["result"]
    assert res["resonant"]
    assert abs(res["c_plus"] + 1 / np.sqrt(2)) < 1e-8
    assert abs(res["b_hat_per_b"] + np.pi ** 2 / 4) < 1e-7
    assert "config_hash" in doc["meta"]


def test_resonance_beta_from_transverse(tmp_path):
    cfg = "alpha = 0.0\nn = 1\n"   # beta_1(0) = 3/4 > 0: not resonant
    code, out = run(tmp_path, "resonance", cfg)
    assert code == 0
    doc = json.loads((out / "resonance.json").read_text())
    assert abs(doc["data"]["beta"] - 0.75) < 1e-10
    assert not doc["data"]["result"]["resonant"]


def test_limit_check_generic(tmp_path):
    cfg = ("beta = 3.0\neps_list = 0.4,0.2,0.1\nh_target = 4e-3\n"
           "error_threshold = 0.02\n")
    code, out = run(tmp_path, "limit-check", cfg)
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["data"]["verdict"] == "converges-to-predicted"
    assert doc["data"]["predicted"]["kind"] == "decoupled"
    errors_csv = (out / "errors.csv").read_text()
    assert "error_vs_predicted" in errors_csv


def test_limit_check_override_mismatch(tmp_path):
    cfg = ("beta = 3.0\neps_list = 0.4,0.2\nh_target = 4e-3\n")
    code, out = run(tmp_path, "limit-check", cfg, "--override-prediction", "free")
    assert code == 4
    doc = json.loads((out / "report.json").read_text())
    assert doc["data"]["verdict"] == "mismatch"


def test_waveguide_check_small(tmp_path):
    cfg = ("alpha = 0.0\nn = 0\nn_max = 1\nn_u = 16\n"
           "eps_list = 0.4,0.2\ndump_field = true\n")
    code, out = run(tmp_path, "waveguide-check", cfg)
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["data"]["predicted"]["kind"] == "free"
    assert abs(doc["data"]["transmission_extrapolated"]["re"] - 1.0) < 0.05
    slice_csv = (out / "field_slice.csv").read_text().splitlines()
    header = next(l for l in slice_csv if not l.startswith("#"))
    assert header == "s,u,re,im"


@pytest.mark.parametrize("command, cfg, key", [
    ("waveguide-check", "n_u = 16\neps_list = 0.4,0.2\ndump_field = ture\n",
     "dump_field"),
    ("waveguide-check", "probe = gaussian\n", "probe"),
    ("limit-check", "beta = 3.0\nprobe = gaussian\n", "probe"),
    ("waveguide-check", "eps_list =\n", "eps_list"),
    ("limit-check", "beta = 3.0\neps_list =\n", "eps_list"),
    ("limit-check", "beta = 3.0\nh_target = 0\n", "h_target"),
    ("limit-check", "beta = 3.0\nhalf_length = -5\n", "half_length"),
    ("limit-check", "beta = 3.0\neps_list = 0.4,-0.1\n", "eps_list"),
    ("limit-check", "beta = 3.0\neps_list = 0.2,0.4\n", "eps_list"),
    ("waveguide-check", "eps_list = 0.1,0.2,0.4\n", "eps_list"),
    ("waveguide-check", "eps_list = 0.4,0.4\n", "eps_list"),
    ("waveguide-check", "eps_list = 0.4,0\n", "eps_list"),
    ("limit-check", "beta = 3.0\nprobe_half_width = 0\n", "probe_half_width"),
    ("waveguide-check", "probe_half_width = -1\n", "probe_half_width"),
    ("limit-check", "alpha = 1.0\nn = 0\nd = -1\n", "d must be positive"),
    ("limit-check", "alpha = 1.0\nn = -1\n", "n must be >= 0"),
    ("resonance", "alpha = 1.0\nn = -2\n", "n must be >= 0"),
    ("resonance", "beta = 3.0\ntol_d = -1\n", "tol_d"),
    ("waveguide-check", "d = -1\n", "d must be positive"),
    ("waveguide-check", "n = -1\n", "n must be >= 0"),
    ("waveguide-check", "n = 1\nn_max = 0\n", "n_max must be >= n"),
    ("waveguide-check", "n_u = 15\n", "n_u must be >= 16"),
    ("waveguide-check", "n = 3\n", "n_u = 32 under-resolves transverse mode 4; "
     "n_u >= 40"),
    ("waveguide-check", "n = 3\nn_max = 4\n", "n_u >= 40 resolves it"),
    ("waveguide-check", "delta_ratio = 0\n", "delta_ratio must lie in (0, 1]"),
    ("waveguide-check", "delta_ratio = 1.5\n", "delta_ratio must lie in (0, 1]"),
    ("waveguide-check", "variant = half\n", "variant must be 'full' or"),
    ("resonance", "half_width = -1\nbeta_min = -20\nbeta_max = -0.5\n",
     "half_width must be positive"),
    ("resonance", "kind = tabulated\nnodes = 0,1\nvalues = 0,0\n"
     "beta_min = -20\nbeta_max = -0.5\n", "at least 4 nodes"),
    ("limit-check", "beta = 3.0\nhalf_width = -1\n",
     "half_width must be positive"),
    ("waveguide-check", "b = -10\n", "1 + 2*eps*b > 0"),
    ("waveguide-check", "amplitude = 100\n", "not a valid chart"),
    ("waveguide-check", "half_width = -2\n", "half_width must be positive"),
    ("waveguide-check", "kind = rectangular\n", "requires a smooth profile"),
    ("limit-check", "beta = 3.0\nb = -10\n", "1 + eps*b > 0"),
    ("limit-check", "beta = 3.0\nz_im = 0\n", "z_im must be nonzero"),
    ("waveguide-check", "z_re = -1\nz_im = 0\n", "z_im must be nonzero"),
    ("limit-check", "beta = 3.0\nerror_threshold = -1\n", "error_threshold"),
    ("waveguide-check", "error_threshold = 0\n", "error_threshold"),
], ids=["misspelt_bool", "waveguide_probe", "limit_probe", "waveguide_no_eps",
        "limit_no_eps", "zero_h_target", "negative_half_length",
        "limit_negative_eps", "limit_increasing_eps", "increasing_eps",
        "waveguide_repeated_eps", "waveguide_zero_eps", "limit_zero_probe_width",
        "waveguide_negative_probe_width", "limit_negative_d",
        "limit_negative_n", "resonance_negative_n",
        "resonance_negative_tol_d", "waveguide_negative_d",
        "waveguide_negative_n", "waveguide_n_above_n_max",
        "waveguide_n_u_below_16", "waveguide_default_n_max_under_resolved",
        "waveguide_n_max_under_resolved", "waveguide_zero_delta_ratio",
        "waveguide_delta_ratio_above_1", "waveguide_unknown_variant",
        "resonance_negative_half_width", "resonance_two_node_table",
        "limit_negative_half_width", "waveguide_deformation_below_chart",
        "waveguide_invalid_chart", "waveguide_negative_half_width",
        "waveguide_full_variant_rectangle", "limit_deformation_flips_coupling",
        "limit_real_z", "waveguide_real_z", "limit_negative_error_threshold",
        "waveguide_zero_error_threshold"])
def test_study_commands_reject_bad_configs(tmp_path, capsys, command, cfg, key):
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not out.exists() or not list(out.glob("*"))


@pytest.mark.parametrize("command, cfg, key", [
    ("spectrum", "alpha_min = -inf\n", "alpha_min"),
    ("resonance", "beta_min = nan\nbeta_max = -1\n", "beta_min"),
    ("resonance", "beta = inf\n", "beta"),
    ("limit-check", "beta = 3.0\neps_list = 0.4,nan\n", "eps_list"),
    ("waveguide-check", "half_width = inf\n", "half_width"),
    ("resonance", "beta_min = -5\nbeta_max = -5\n", "scan range is empty"),
    ("resonance", "amplitude = 0.0\nbeta_min = -20\nbeta_max = -0.5\n",
     "zero profile"),
], ids=["spectrum_inf", "resonance_nan_range", "resonance_inf_beta",
        "limit_nan_eps", "waveguide_inf_width", "resonance_empty_range",
        "resonance_zero_profile"])
def test_non_finite_floats_and_empty_scans_are_config_errors(
        tmp_path, capsys, command, cfg, key):
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("command, cfg, size", [
    ("limit-check", "beta = 3.0\nz_re = 1.0\nz_im = 0.001\n", "20,001,005"),
    ("waveguide-check", "z_re = 1.0\nz_im = 0.01\n", "16,508,481"),
], ids=["limit", "waveguide"])
def test_z_near_the_positive_axis_is_rejected_before_any_solve(
        tmp_path, capsys, monkeypatch, command, cfg, size):
    # these grids would need gigabytes: a missing guard fails here at once
    from robinwg import effective_1d, waveguide2d

    def no_study(*args, **kwargs):
        raise AssertionError("the study ran past the grid guard")

    monkeypatch.setattr(effective_1d, "convergence_study", no_study)
    monkeypatch.setattr(waveguide2d, "theorem_check", no_study)
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: z_re = 1.0, z_im = ")
    assert f"grid of {size} unknowns" in err and "2,000,000" in err
    assert not list(out.glob("*"))


def test_sturm_guard_names_a_remedy_the_config_has(tmp_path, capsys):
    # -pi^2 and -4 pi^2 share the last of 119 intervals of [-5000, -1]
    cfg = ("kind = rectangular\namplitude = 1.0\ncenter = 0.5\n"
           "half_width = 0.5\nbeta_min = -5000\nbeta_max = -1\n")
    code, out = run(tmp_path, "resonance", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scan interval [-43.0084, -1]")
    assert "narrow the coupling range (beta_min, beta_max)" in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("command, cfg", [
    ("limit-check", "beta = 3.0\neps_list = 0.4,0.2\nprobe_center = 40\n"),
    ("waveguide-check", "n_u = 16\neps_list = 0.4,0.2\nprobe_center = 30\n"),
], ids=["limit", "waveguide"])
def test_probe_off_the_grid_gets_no_verdict(tmp_path, capsys, command, cfg):
    code, out = run(tmp_path, command, cfg)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: probe 0 has sampled norm")
    assert not list(out.glob("*"))


def test_limit_check_emits_green_trace(tmp_path):
    cfg = "beta = 3.0\neps_list = 0.4,0.2\nh_target = 4e-3\n"
    code, out = run(tmp_path, "limit-check", cfg)
    assert code == 0
    trace = (out / "green_trace.csv").read_text().splitlines()
    header = next(l for l in trace if not l.startswith("#"))
    assert header == "source,s,re_g,im_g"


def test_missing_config_file(tmp_path):
    code = main(["spectrum", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)])
    assert code == 2


def test_spectrum_json_format(tmp_path):
    code, out = run(tmp_path, "spectrum", "alpha_count = 5\nn_max = 1\n",
                    "--format", "json")
    assert code == 0
    doc = json.loads((out / "beta_table.json").read_text())
    assert len(doc["data"]) == 10


def test_format_is_a_spectrum_option_only(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "limit-check", "beta = 3.0\n", "--format", "json")
    assert exc.value.code == 2


def test_field_slice_bytes_equal_the_row_writer(tmp_path):
    # the column-wise formatting of field_slice.csv against _write_csv on
    # the (s, u, re, im) rows, on a seeded field with signed zeros and
    # extreme exponents
    rng = np.random.default_rng(7)
    s = np.linspace(-15.14, 15.14, 1203)[1:-1]
    u = np.linspace(-1.0, 1.0, 17)
    field = (rng.standard_normal((len(s), len(u)))
             * 10.0 ** rng.integers(-300, 300, (len(s), len(u)))
             + 1j * rng.standard_normal((len(s), len(u))))
    field[3, 4], field[5] = complex(-0.0, 0.0), 1.0
    cfg_raw = {"alpha": "0.0"}
    _dump_field_slice((s, u, field), tmp_path, cfg_raw, 3)
    stride = max(1, len(s) // 400)
    S, U = np.meshgrid(s[::stride], u, indexing="ij")
    part = field[::stride]
    rows = np.column_stack([S.ravel(), U.ravel(), part.real.ravel(),
                            part.imag.ravel()])
    _write_csv(tmp_path / "rows.csv", ["s", "u", "re", "im"], rows, cfg_raw, 3)
    assert ((tmp_path / "field_slice.csv").read_bytes()
            == (tmp_path / "rows.csv").read_bytes())
