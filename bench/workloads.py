"""The benchmark's workloads: seeded inputs and the operations of a round.

A workload object is built once per process (that is part of set-up); its
`operations()` are then run as whole rounds, each round the same
operations on the same inputs.  An operation returns an `Outcome`: a digest
of everything it produced plus the parsed data its checks read.  Library
calls go through module attributes (`effective_1d.convergence_study`, not a
name imported here) so the traced mode's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks as C
from robinwg import cli, effective_1d, geometry, waveguide2d

Z = 1j
BUMP = dict(amplitude=1.5, center=0.0, half_width=2.0)      # default_bump()
# Resonant coupling of the default bump, copied as an input of the 1D studies.
# Recompute it with:
#   PYTHONPATH=src python3 -c "from robinwg import *; \
#   print(repr(find_resonant_coupling(default_bump(), (-20, -0.5))))"
BUMP_BETA_STAR = -7.6474741167578895
EPS_1D = [0.4, 0.2, 0.1, 0.05, 0.025]
README_WG = ("alpha = 0.0\nn = 0\nn_max = 1\neps_list = 0.4,0.2,0.1\n"
             "delta_ratio = 0.05\n")


@dataclass
class Outcome:
    digest: str
    data: dict = field(default_factory=dict)
    output_bytes: int = 0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_rows(path: Path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith(("#", "alpha")):
            continue
        rows.append([float(x) for x in line.split(",")])
    return rows


class Workload:
    """Base: one output directory per CLI operation, reused every round."""

    # operation name -> text that its one expected check failure contains;
    # an operation listed here fails because of a known program fault
    known_faults: dict = {}
    # whole rounds a run makes at least, whatever --seconds says
    min_rounds = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def _cli(self, command: str, name: str, cfg_text: str, *extra) -> Outcome:
        cfg = self.workdir / f"{name}.cfg"
        if not cfg.exists():
            cfg.write_text(cfg_text)
        out = self.workdir / name
        code = cli.main([command, "--config", str(cfg), "--out", str(out),
                         "--seed", str(self.seed), *extra])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        digests = {k: _sha(v) for k, v in files.items()}
        data = {"exit": code, "digests": digests, "dir": out}
        return Outcome(_sha(json.dumps([code, digests]).encode()), data,
                       sum(len(v) for v in files.values()))

    @staticmethod
    def _json(outcome: Outcome, name: str) -> dict:
        return json.loads((outcome.data["dir"] / name).read_text())["data"]

    def operations(self):
        raise NotImplementedError

    def check(self, name: str, outcome: Outcome, done: dict) -> list:
        raise NotImplementedError


def _exit_ok(outcome, label):
    code = outcome.data["exit"]
    return [] if code == 0 else [f"{label}: exit code {code}"]


# ---------------------------------------------------------------------------

class ResonanceScan(Workload):
    """Three `resonance` scans and one `spectrum` table through cli.main."""

    # four operations a round against the eight of `limits`: one more round
    # gives each per-operation median one more sample
    min_rounds = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.amp = float(self.rng.uniform(1.2, 1.8))
        a = self.amp
        self.configs = {
            "square_well": ("kind = rectangular\namplitude = 1.0\ncenter = 0.5\n"
                            "half_width = 0.5\nbeta_min = -15\nbeta_max = -1\n"),
            "bump": "beta_min = -20\nbeta_max = -0.5\n",
            "bump_scaled": (f"amplitude = {1.5 * a!r}\n"
                            f"beta_min = {-20 / a ** 2!r}\n"
                            f"beta_max = {-0.5 / a ** 2!r}\n"),
            "spectrum": ("n_max = 7\nalpha_min = -10\nalpha_max = 10\n"
                         "alpha_count = 2001\n"),
        }

    def operations(self):
        ops = [(name, lambda name=name: self._cli("resonance", name,
                                                  self.configs[name]))
               for name in ("square_well", "bump", "bump_scaled")]
        ops.append(("spectrum", lambda: self._cli("spectrum", "spectrum",
                                                  self.configs["spectrum"])))
        return ops

    def check(self, name, outcome, done):
        fails = _exit_ok(outcome, name)
        if fails:
            return fails
        if name == "spectrum":
            d = outcome.data["dir"]
            return C.check_spectrum(_read_rows(d / "mu_table.csv"),
                                    _read_rows(d / "beta_table.csv"), 7)
        doc = self._json(outcome, "resonance.json")
        if name == "square_well":
            return C.check_square_well(doc)
        if name == "bump":
            return C.check_scan_root(doc, C.bump_squared(**BUMP), (-2.0, 2.0), name)
        g2 = C.bump_squared(1.5 * self.amp, 0.0, 2.0)          # bump_scaled
        base = self._json(done["bump"], "resonance.json")
        return (C.check_scan_root(doc, g2, (-2.0, 2.0), name)
                + C.check_amplitude_covariance(base, doc, self.amp))


# ---------------------------------------------------------------------------

class Limit1D(Workload):
    """Four `effective_1d.convergence_study` runs over a seeded probe set."""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # 5 probes left of the vertex then 5 right; probe 0 is on the left
        self.probes = []
        for side in (-1.0, 1.0):
            for _ in range(5):
                c = float(self.rng.uniform(3.0, 5.5))
                w = float(self.rng.uniform(0.8, 1.8))
                self.probes.append(effective_1d.bump_probe(side * c, w))
        bump = geometry.CurvatureProfile(geometry.SMOOTH_BUMP, **BUMP)
        square = geometry.CurvatureProfile(geometry.RECTANGULAR, 1.0, 0.5, 0.5)
        self.studies = {
            "bump_beta_3": (bump, 3.0, 0.0),
            "bump_beta_m3": (bump, -3.0, 0.0),
            "bump_beta_star": (bump, BUMP_BETA_STAR, 0.0),
            "square_deformed": (square, -math.pi ** 2, 1.0),
        }
        self.probe_eps_pairs = len(self.studies) * len(self.probes) * len(EPS_1D)

    def _study(self, name):
        profile, beta, b = self.studies[name]
        report = effective_1d.convergence_study(
            profile, beta, b, Z, self.probes, EPS_1D, h_target=1e-3)
        doc = report.to_dict()
        return Outcome(_sha(json.dumps(doc, sort_keys=True).encode()), {"report": doc})

    def operations(self):
        return [(name, lambda name=name: self._study(name)) for name in self.studies]

    def check(self, name, outcome, done):
        rep = outcome.data["report"]
        _, beta, b = self.studies[name]
        kind = {"bump_beta_3": "decoupled", "bump_beta_m3": "decoupled",
                "bump_beta_star": "scale_invariant",
                "square_deformed": "deformed"}[name]
        fails = C.check_convergence(rep, kind, name, 0.02) + C.check_floor_verdict(rep)
        if kind == "decoupled":
            fails += C.check_decreasing(rep["leakage"], f"{name}: leakage")
            if beta < 0:
                # attractive but between beta* and 0: one bound state, no
                # zero-energy resonance
                D, _, _, nodes = C.zero_energy(C.bump_squared(**BUMP), (-2.0, 2.0), [beta])
                if abs(D[0]) < 1e-3 or nodes[0] != 1:
                    fails.append(f"{name}: independent D = {D[0]:.3g}, "
                                 f"nodes = {nodes[0]}; expected non-resonant")
            return fails
        if name == "bump_beta_star":
            _, fr, q, _ = C.zero_energy(C.bump_squared(**BUMP), (-2.0, 2.0), [beta])
            cm, cp, _ = C.resonance_constants(fr[0], q[0])
            b_hat = 0.0
        else:
            cm, cp, b_hat = 1 / math.sqrt(2), -1 / math.sqrt(2), -math.pi ** 2 / 4 * b
        p = rep["predicted"]
        if (abs(p["c_minus"] - cm) > C.CONST_TOL or abs(p["c_plus"] - cp) > C.CONST_TOL
                or abs(p["b_hat"] - b_hat) > C.CONST_TOL * max(1.0, abs(b_hat))):
            fails.append(f"{name}: predicted (c-, c+, b_hat) = ({p['c_minus']}, "
                         f"{p['c_plus']}, {p['b_hat']}), expected ({cm}, {cp}, {b_hat})")
        fails += C.check_transmission(rep, C.transmission_formula(cm, cp, b_hat, Z),
                                      C.TAU_1D_TOL, name)
        return fails


# ---------------------------------------------------------------------------

class Waveguide2D(Workload):
    """Three `waveguide-check` runs through cli.main and a straight strip."""

    known_faults = {"readme_n0": "floor verdict"}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.configs = {
            "readme_n0": README_WG + "dump_field = true\n",
            "n1": README_WG.replace("n = 0", "n = 1"),
            "robin_m2": README_WG.replace("alpha = 0.0", "alpha = -2.0"),
        }
        # n_u = 64: at 32 cells the sampled continuum mode and the discrete
        # transverse eigenvector differ enough to show at 1e-8 for n >= 1
        self.strip_alpha = float(self.rng.uniform(0.2, 1.0))
        self.strip_grid = waveguide2d.Grid2D(12.0, 1200, 64, 1.0)
        probe = effective_1d.bump_probe(float(self.rng.uniform(-5.0, -3.0)),
                                        float(self.rng.uniform(1.0, 1.8)))
        self.strip_f = probe(self.strip_grid.s_interior)

    def _strip(self):
        flat = geometry.CurvatureProfile(geometry.SMOOTH_BUMP, amplitude=0.0)
        out = []
        for ratio in (0.1, 0.05):
            geo = geometry.WaveguideGeometry(
                flat, 1.0, geometry.ScalingParams(epsilon=0.4, delta_ratio=ratio),
                self.strip_alpha)
            op = waveguide2d.build_waveguide(geo, waveguide2d.FULL, 1, self.strip_grid)
            proj = waveguide2d.ModeProjector(geo, self.strip_grid, 1)
            g, _ = waveguide2d.reduced_resolvent(op, proj, 0, 0, Z, self.strip_f)
            out.append(g)
        return Outcome(_sha(b"".join(g.tobytes() for g in out)), {"r_nn": out})

    def operations(self):
        ops = [(name, lambda name=name: self._cli("waveguide-check", name,
                                                  self.configs[name]))
               for name in self.configs]
        ops.append(("straight_strip", self._strip))
        return ops

    def check(self, name, outcome, done):
        if name == "straight_strip":
            grid = self.strip_grid
            ref = C.free_resolvent_1d(grid.h_s, Z, self.strip_f)
            g, g_other = outcome.data["r_nn"]
            return C.check_strip(g, ref, g_other)
        fails = _exit_ok(outcome, name)
        rep = self._json(outcome, "report.json")
        fails += C.check_floor_verdict(rep)
        fails += C.check_decreasing(
            [max(v[i] for v in rep["offdiagonal"].values())
             for i in range(len(rep["eps_list"]))], f"{name}: off-diagonal norms")
        if name == "readme_n0":
            fails += C.check_convergence(rep, "free", name, 0.05)
            fails += C.check_transmission(rep, 1.0, C.TAU_2D_TOL, name)
            if "field_slice.csv" not in outcome.data["digests"]:
                fails.append(f"{name}: dump_field wrote no field_slice.csv")
            return fails
        fails += C.check_convergence(rep, "decoupled", name, 0.05)
        fails += C.check_decreasing(rep["leakage"], f"{name}: leakage")
        if name == "robin_m2":
            beta0 = C.beta_from_mu(-2.0, C.robin_ground_mu(-2.0))
            D, _, _, _ = C.zero_energy(C.bump_squared(**BUMP), (-2.0, 2.0), [beta0])
            if abs(D[0]) < 1e-3:
                fails.append(f"{name}: beta_0 = {beta0:.4g} is resonant "
                             "by the independent solve")
        return fails


# ---------------------------------------------------------------------------

class Limits(Workload):
    """The 1D studies then the 2D checks, one round: no resonance scan.

    One workload rather than two so that each run can measure longer within
    the benchmark's time budget; the 1D and 2D operations keep their own
    inputs and checks.
    """

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.parts = [Limit1D(seed, workdir), Waveguide2D(seed, workdir)]
        self.known_faults = Waveguide2D.known_faults
        self.probe_eps_pairs = self.parts[0].probe_eps_pairs
        self._owner = {name: part for part in self.parts
                       for name, _ in part.operations()}

    def operations(self):
        return [op for part in self.parts for op in part.operations()]

    def check(self, name, outcome, done):
        return self._owner[name].check(name, outcome, done)


WORKLOADS = {"resonance_scan": ResonanceScan, "limits": Limits}
