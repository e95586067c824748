"""Benchmark for robinwg: one workload per process, seeded, checked.

    python3 bench/run.py --workload resonance_scan --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --write-benchmark-json

A run times `SETUP_SAMPLES` fresh child processes from spawn to the point
where the first operation could start (`import robinwg` plus the seeded
inputs), one before the rounds and the others between them; `setup_s` is
their median.  It runs whole rounds of the workload's operations for about
`--seconds` seconds, at least the workload's `min_rounds` of them, and
reports as `wall_s` the sum over operations of each operation's median
time.  The first round's outputs are checked; every later round must
reproduce its digests.
With `--trace 1` the rounds alternate untraced and traced, and the per-layer
figures of the traced rounds are printed instead of the end-to-end ones.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one process, one thread: fixed before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"

SETUP_SAMPLES = 5

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 45,
    "workloads": [
        {"name": "resonance_scan",
         "why": "cli resonance scans on three profiles plus a 2001-alpha spectrum "
                "table: the callback-bound resonance and geometry layers"},
        {"name": "limits",
         "why": "four 1D convergence studies over 10 seeded probes, three cli "
                "waveguide-checks and a straight strip: banded and sparse solves, "
                "GMRES; no resonance scan"},
    ],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": name, "unit": unit, "better": "lower"} for name, unit in [
            ("setup.import_s", "s"), ("setup.inputs_s", "s"),
            ("geometry.sample.calls", "count"), ("geometry.sample.s", "s"),
            ("resonance.find_resonant_coupling.s", "s"),
            ("resonance.zero_energy_solve.calls", "count"),
            ("resonance.zero_energy_solve.s", "s"),
            ("resonance.from_profile.calls", "count"),
            ("resonance.from_profile.s", "s"),
            ("resonance.solves_per_root", "solves/root"),
            ("resonance.detect_resonance.s", "s"),
            ("transverse.beta_table.s", "s"),
            ("transverse.symmetric_spectrum.calls", "count"),
            ("transverse.asymmetric_spectrum.calls", "count"),
            ("transverse.asymmetric_spectrum.s", "s"),
            ("graph_limit.resolvent_apply.calls", "count"),
            ("graph_limit.resolvent_apply.s", "s"),
            ("graph_limit.green_function.s", "s"),
            ("effective_1d.resolvent_solve.calls", "count"),
            ("effective_1d.resolvent_solve.s", "s"),
            ("effective_1d.resolvent_solve.unknowns", "count"),
            ("effective_1d.solves_per_probe_eps", "solves/pair"),
            ("effective_1d.build_h_n_eps.s", "s"),
            ("effective_1d.extract_vertex_data.s", "s"),
            ("effective_1d.convergence_study.self_s", "s"),
            ("waveguide2d.build_waveguide.s", "s"),
            ("waveguide2d.build_waveguide.nnz", "count"),
            ("waveguide2d.ModeProjector.s", "s"),
            ("waveguide2d.reduced_resolvent.calls", "count"),
            ("waveguide2d.reduced_resolvent.s", "s"),
            ("waveguide2d.gmres_iterations", "count"),
            ("waveguide2d.s_per_gmres_iteration", "s"),
            ("waveguide2d.theorem_check.self_s", "s"),
            ("cli.main.self_s", "s"),
            ("cli.output_bytes", "B"),
            ("trace.overhead_s", "s"),
        ]
    ],
}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _import_library():
    """Import robinwg from this checkout's src/, never from elsewhere."""
    if not (SRC / "robinwg" / "__init__.py").is_file():
        raise SystemExit(f"error: no robinwg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import robinwg  # noqa: F401
    import workloads
    return workloads, time.perf_counter() - t0


def _build(workloads, name, seed, workdir):
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[name](seed, workdir)
    return wl, time.perf_counter() - t0


def setup_probe(args):
    """Child side of the set-up timing: import, build inputs, report."""
    workloads, import_s = _import_library()
    workdir = RUNS_DIR / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _, inputs_s = _build(workloads, args.workload, args.seed, workdir)
        ready = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"ready": ready, "import_s": import_s, "inputs_s": inputs_s}))
    return 0


def setup_sample(args):
    """Spawn -> first operation ready, in one fresh process.

    Returns (total, import_s, inputs_s).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()         # CLOCK_MONOTONIC: shared with the child
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: set-up probe exited {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    return rec["ready"] - t0, rec["import_s"], rec["inputs_s"]


def run_round(wl, ops, first, op_times):
    """One round of `ops`.

    Returns (summed operation time, {op: failure messages}, output bytes).
    The first round's outputs are checked and their digests kept in `first`
    as {op: (digest, failures)}; later rounds must reproduce the digests.
    """
    elapsed, nbytes = 0.0, 0
    round_failures, outcomes = {}, {}
    for name, fn in ops:
        t0 = time.perf_counter()
        try:
            outcome = fn()
        except Exception:            # a crashing operation fails, the run goes on
            elapsed += time.perf_counter() - t0
            round_failures[name] = ["raised:\n" + traceback.format_exc()]
            continue
        dt = time.perf_counter() - t0
        elapsed += dt
        op_times.setdefault(name, []).append(dt)
        nbytes += outcome.output_bytes
        outcomes[name] = outcome
        if name not in first:
            try:
                fails = wl.check(name, outcome, outcomes)
            except Exception:
                fails = ["check raised:\n" + traceback.format_exc()]
            first[name] = (outcome.digest, fails)
        digest, fails = first[name]
        if outcome.digest != digest:
            round_failures[name] = ["outputs differ from the first round"]
        elif fails:
            round_failures[name] = fails
    return elapsed, round_failures, nbytes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json at the checkout root and exit")
    args = ap.parse_args(argv)

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args)

    # set-up samples are spread over the run, one before the rounds, one
    # after each round and any left over at the end, so that they see the
    # same host speed as the rounds
    samples = [setup_sample(args)]

    def between_rounds():
        if len(samples) < SETUP_SAMPLES:
            samples.append(setup_sample(args))

    workloads, _ = _import_library()
    workdir = RUNS_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, _ = _build(workloads, args.workload, args.seed, workdir)
        correct, attempted, failed, values = measure(wl, args, between_rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    while len(samples) < SETUP_SAMPLES:
        between_rounds()
    setup_s, import_s, inputs_s = (statistics.median(x) for x in zip(*samples))
    if args.trace:
        values.update({"setup.import_s": import_s, "setup.inputs_s": inputs_s})
    else:
        values.update({
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    for k, m in metrics.items():
        print(f"{k:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def measure(wl, args, between_rounds):
    """Run rounds for about args.seconds; returns (correct, attempted, failed, metrics).

    `between_rounds()` is called after every round but the last.
    """
    from spans import Tracer

    ops = wl.operations()
    first, op_times, messages = {}, {}, {}
    untraced, traced = [], []
    tracer = Tracer() if args.trace else None
    attempted = failed = 0
    correct = True
    t_start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(untraced) > len(traced)
        if use_trace:
            tracer.install()
        try:
            elapsed, round_failures, nbytes = run_round(wl, ops, first, op_times)
        finally:
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else untraced).append(elapsed)
        attempted += len(ops)
        failed += len(round_failures)
        for name, msgs in round_failures.items():
            messages.setdefault(name, msgs)
            known = wl.known_faults.get(name)
            correct &= all(known is not None and known in m for m in msgs)
        spent = time.perf_counter() - t_start
        if len(untraced) + len(traced) >= wl.min_rounds and spent + elapsed > args.seconds:
            break
        between_rounds()

    for name, msgs in sorted(messages.items()):
        for m in msgs:
            print(f"FAIL {args.workload}.{name}: {m}", file=sys.stderr)
    print("rounds untraced " + " ".join(f"{x:.3f}" for x in untraced)
          + (" traced " + " ".join(f"{x:.3f}" for x in traced) if tracer else ""))
    for name, ts in op_times.items():
        print(f"op {name} " + " ".join(f"{x:.3f}" for x in ts))

    RUNS_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    (RUNS_DIR / f"digests-{tag}.json").write_text(json.dumps(
        {name: digest for name, (digest, _) in first.items()},
        indent=1, sort_keys=True) + "\n")
    med = statistics.median
    if tracer:
        tracer.write(RUNS_DIR / f"trace-{tag}.json")
        metrics = tracer.metrics(len(traced), getattr(wl, "probe_eps_pairs", 0))
        metrics["cli.output_bytes"] = nbytes
        metrics["trace.overhead_s"] = med(traced) - med(untraced)
    else:
        # per-operation medians: a stall in one call of one operation does
        # not move the figure, and every operation weighs in once
        metrics = {"wall_s": sum(med(ts) for ts in op_times.values())}
    return correct, attempted, failed, metrics


if __name__ == "__main__":
    sys.exit(main())
