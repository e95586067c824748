"""A CLI call pays only for the scipy it runs.

Each check imports (and runs) in a fresh interpreter and reads
`sys.modules`.  `spectrum` and `resonance` run on numpy alone.  Only
`waveguide-check` and `limit-check` need scipy, and of it only the compiled
LAPACK extension `scipy.linalg._flapack`, which their `cmd_*` load (through
`robinwg._lapack`) when they run: neither the `scipy.linalg` package nor
`scipy.sparse` is imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def modules_after(imports, then="pass"):
    """The modules loaded after `imports` and the statements `then`."""
    code = f"import sys, {imports}\n{then}\nprint(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return set(out.stdout.split())


def test_no_module_loads_the_ode_spline_or_optimize_stack():
    loaded = modules_after("robinwg, robinwg.cli, robinwg.effective_1d, "
                           "robinwg.waveguide2d")
    assert "robinwg.waveguide2d" in loaded
    # the 2D core is one banded LU, so no iterative solver is loaded either
    heavy = {"scipy.integrate", "scipy.interpolate", "scipy.optimize",
             "scipy.special", "scipy.sparse", "scipy.linalg"}
    assert not heavy & loaded


def test_study_subcommands_load_only_the_lapack_extension(tmp_path):
    # the README limit.cfg and wg.cfg
    configs = {"limit-check": "beta = 3.0\neps_list = 0.4,0.2,0.1,0.05,0.025\n",
               "waveguide-check": "alpha = 0.0\nn = 0\nn_max = 1\n"
                                  "eps_list = 0.4,0.2,0.1\ndelta_ratio = 0.05\n"}
    calls = []
    for command, text in configs.items():
        (tmp_path / f"{command}.cfg").write_text(text)
        calls.append([command, "--config", str(tmp_path / f"{command}.cfg"),
                      "--out", str(tmp_path / command)])
    loaded = modules_after("robinwg.cli", "\n".join(
        f"assert robinwg.cli.main({argv!r}) == 0" for argv in calls))
    assert (tmp_path / "waveguide-check" / "report.json").exists()
    scipy = [m.split(".") for m in loaded if m.split(".")[0] == "scipy"]
    assert ["scipy", "linalg", "_flapack"] in scipy
    assert not [m for m in scipy if m[1:2] == ["sparse"]
                or m[1:] == ["_lib", "_util"]
                or (m[1:2] == ["linalg"] and m[2:] != ["_flapack"])]


@pytest.mark.parametrize("first, then", [("robinwg._lapack", "scipy.linalg"),
                                         ("scipy.linalg", "robinwg._lapack")])
def test_lapack_routines_are_scipy_linalg_lapacks(first, then):
    # whichever loads the extension first, both hold the same routines
    modules_after(f"{first}, {then}", "\n".join(
        f"assert robinwg._lapack.{name} is scipy.linalg.lapack.{name}"
        for name in ("zgtsv", "zgbsv", "dstemr")))


def test_cli_loads_no_scipy():
    loaded = modules_after("robinwg.cli")
    assert "robinwg.cli" in loaded
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]


def test_spectrum_and_resonance_run_on_numpy_alone(tmp_path):
    configs = {"spectrum": "alpha_count = 21\n",
               "scan": "beta_min = -20\nbeta_max = -0.5\n",    # bump scan
               "mode": "alpha = 0.7\nn = 1\n"}                 # beta_1(0.7)
    calls = []
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
        command = "spectrum" if name == "spectrum" else "resonance"
        calls.append([command, "--config", str(tmp_path / f"{name}.cfg"),
                      "--out", str(tmp_path / name)])
    loaded = modules_after("robinwg.cli", "\n".join(
        f"assert robinwg.cli.main({argv!r}) == 0" for argv in calls))
    assert (tmp_path / "spectrum" / "beta_table.csv").exists()
    assert (tmp_path / "scan" / "resonance.json").exists()
    assert "beta_source" in (tmp_path / "mode" / "resonance.json").read_text()
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]
