"""Benchmark runner: one workload, one seed, untraced or traced.

Untraced (``--trace 0``): set up the instances, then solve them one after
another (a closed loop with one caller), timing each solve from outside the
library and checking its output outside the timed interval. Each seeded
instance is solved once. Solves of the fixed reference instance are
interleaved with them, so that both share the run's time evenly, and go on
while ``--seconds`` allows (at least ``MIN_REF_SOLVES``). Prints the
end-to-end metrics.

Traced (``--trace 1``): solve the first half of the set untraced, then the
same cases with every pddopt layer wrapped (see ``tracing.py``). Checks that
both passes give bit-identical results, writes the spans, and prints the
per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS, case_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_PROBES = 5
MIN_REF_SOLVES = 2


@dataclass
class Solve:
    case: int
    seconds: float
    sweeps: int = 0
    inner_solves: int = 0
    ref: bool = False
    check: object = None
    error: str = ""

    @property
    def failed(self):
        return bool(self.error) or not self.check.ok


@dataclass
class RunResult:
    solves: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)   # name -> (value, unit, samples)
    correct: bool = True
    notes: list = field(default_factory=list)

    @property
    def attempted(self):
        return len(self.solves)

    @property
    def failed(self):
        return sum(s.failed for s in self.solves)

    def put(self, name, value, unit, samples):
        self.metrics[name] = (float(value), unit, samples)


# --------------------------------------------------------------------------
# solving
# --------------------------------------------------------------------------

def _solve_once(workload, case, recorder, solve_id):
    recorder.solve_id = solve_id
    first_inner = len(recorder.inner_solves)
    error, output = "", None
    t0 = time.perf_counter()
    try:
        output = workload.solve(case)
    except Exception:  # a raised solve is a failed attempt; keep measuring
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    inner = recorder.inner_solves[first_inner:]
    return Solve(case.index, seconds, sweeps=sum(s[1] for s in inner),
                 inner_solves=len(inner), error=error), output


def _check(workload, case, solve, output, reference):
    """Check one output; ``reference`` maps case index -> first signature."""
    if solve.error:
        return
    solve.check = workload.check(case, output)
    sig = solve.check.signature() + (solve.sweeps,)
    first = reference.setdefault(case.index, sig)
    if sig != first:
        solve.check.invariant_errors.append(
            f"result {sig} differs from the first solve of case {case.index}: {first}")


def measure(workload, cases, seconds, reference, ref_case=None):
    """Untraced closed loop: each of ``cases`` once, and ``ref_case`` whenever
    its solves so far took no longer than those of ``cases``; once ``cases``
    are done, ``ref_case`` again while ``seconds`` allows, at least
    ``MIN_REF_SOLVES`` times in all. Interleaving spreads the reference
    solves over the whole run, so they see the same machine speed as the
    rest. Returns the list of :class:`Solve`."""
    recorder = tracing.SpanRecorder()
    solves, pending = [], list(cases)
    ref_times, seeded_s = [], 0.0
    start = time.perf_counter()
    with tracing.counting(recorder):
        while True:
            if ref_case is None or (pending and sum(ref_times) > seeded_s):
                if not pending:
                    break
                case = pending.pop(0)
            elif (pending or len(ref_times) < MIN_REF_SOLVES
                  or time.perf_counter() - start + ref_times[-1] <= seconds):
                case = ref_case
            else:
                break
            solve, output = _solve_once(workload, case, recorder, len(solves))
            _check(workload, case, solve, output, reference)
            solve.ref = case is ref_case
            if solve.ref:
                ref_times.append(solve.seconds)
            else:
                seeded_s += solve.seconds
            solves.append(solve)
    return solves


def measure_traced(workload, cases, reference):
    """Traced pass over ``cases``; returns (solves, recorder)."""
    recorder = tracing.SpanRecorder()
    results = []
    with tracing.traced(recorder):
        for k, case in enumerate(cases):
            with recorder.span("bench.solve"):
                solve, output = _solve_once(workload, case, recorder, k)
            results.append((case, solve, output))
    # checks run after the wrappers are removed, so they add no spans
    for case, solve, output in results:
        _check(workload, case, solve, output, reference)
    return [r[1] for r in results], recorder


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def end_to_end(workload, result, setup_times):
    solves = result.solves
    seeded = [s for s in solves if not s.ref]
    ref = [s for s in solves if s.ref]
    n = len(solves)
    total_s = sum(s.seconds for s in solves)
    sweeps = sum(s.sweeps for s in solves)
    if setup_times:
        result.put("setup_s", statistics.median(setup_times), "s", len(setup_times))
    result.put("ref_solve_s", statistics.median(s.seconds for s in ref), "s", len(ref))
    result.put("sweep_ms", 1e3 * total_s / max(sweeps, 1), "ms", sweeps)
    result.put("solve_s.p50", statistics.median(s.seconds for s in seeded), "s", len(seeded))
    result.put("solves_per_s", sum(not s.failed for s in solves) / total_s, "1/s", n)
    result.put("failed_frac", sum(s.failed for s in solves) / n, "fraction", n)
    result.put("converged_frac",
               sum(bool(s.check and s.check.converged) for s in solves) / n, "fraction", n)
    result.put("peak_rss_mib",
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1)
    quality = [s.check.quality for s in seeded if s.check is not None]
    if quality:
        agg = statistics.fmean if workload.quality_stat == "mean" else statistics.median
        result.put(workload.quality_name, agg(quality), workload.quality_unit, len(quality))


PER_LAYER = {
    # name: (kind, span name, unit); kind "incl"/"self" are seconds per solve
    "core.rbsum_self_s": ("self", "core.rbsum_run", "s"),
    "core.pdd_self_s": ("self", "core.pdd_run", "s"),
    "core.stationarity_s": ("incl", "core.stationarity_residuals", "s"),
    "multicast.step_t_s": ("incl", "multicast.step_t", "s"),
    "multicast.step_w_s": ("incl", "multicast.step_w", "s"),
    "multicast.build_surrogate_C_s": ("incl", "multicast.build_surrogate_C", "s"),
    "multicast.coupling_norms_s": ("incl", "multicast.coupling_norms", "s"),
    "multicast.solve_t_subproblem_s": ("incl", "multicast.solve_t_subproblem", "s"),
    "multicast.gradient_s": ("incl", "multicast.al_block_gradient", "s"),
    "multicast.al_value_s": ("incl", "multicast.al_value", "s"),
    "multicast.constraint_s": ("incl", "multicast.constraint", "s"),
    "relay.step_F_s": ("incl", "relay.step_F", "s"),
    "relay.step_bars_s": ("incl", "relay.step_bars", "s"),
    "relay.step_X_s": ("incl", "relay.step_X", "s"),
    "relay.step_V_s": ("incl", "relay.step_V", "s"),
    "relay.refresh_weights_s": ("incl", "relay.refresh_weights", "s"),
    "relay.al_value_s": ("incl", "relay.al_value", "s"),
    "relay.constraint_s": ("incl", "relay.constraint", "s"),
    "relay.instance_from_dict_s": ("incl", "relay.instance_from_dict", "s"),
    "volmin.step_Y_s": ("incl", "volmin.step_Y", "s"),
    "volmin.step_S_s": ("incl", "volmin.step_S", "s"),
    "volmin.step_X_s": ("incl", "volmin.step_X", "s"),
    "volmin.f_eps_s": ("incl", "volmin.f_eps", "s"),
    "volmin.al_value_s": ("incl", "volmin.al_value", "s"),
    "volmin.constraint_s": ("incl", "volmin.constraint", "s"),
    "volmin.sigma_subproblem_calls": ("calls", "volmin.sigma_subproblem", "count"),
    "numerics.min_eigvec_sym_s": ("incl", "numerics.min_eigvec_sym", "s"),
    "numerics.min_eigvec_sym_calls": ("calls", "numerics.min_eigvec_sym", "count"),
    "numerics.solve_sylvester_s": ("incl", "numerics.solve_sylvester", "s"),
    "numerics.solve_sylvester_calls": ("calls", "numerics.solve_sylvester", "count"),
    "numerics.project_ball_s": ("incl", "numerics.project_ball", "s"),
    "numerics.thin_svd_s": ("incl", "numerics.thin_svd", "s"),
    "numerics.thin_svd_calls": ("calls", "numerics.thin_svd", "count"),
    "numerics.project_simplex_columns_s": ("incl", "numerics.project_simplex_columns", "s"),
    "cli.main_self_s": ("self", "cli.main", "s"),
}
LAYERS = ("bench", "core", "multicast", "relay", "volmin", "numerics", "cli", "ioformats")


def per_layer(workload, cases, result, plain, traced, recorder):
    """Per-solve layer metrics of the traced pass (``plain``: its untraced twin)."""
    m = len(traced)
    totals = recorder.totals()
    for name, (kind, span, unit) in PER_LAYER.items():
        calls, incl, own = totals.get(span, (0, 0.0, 0.0))
        value = {"incl": incl, "self": own, "calls": calls}[kind] / m
        result.put(name, value, unit, m)
    for layer in LAYERS:
        own = sum(v[2] for k, v in totals.items() if k.split(".", 1)[0] == layer)
        result.put(f"self.{layer}_s", own / m, "s", m)

    inner, outer = recorder.inner_solves, recorder.outer_runs
    sweeps = sum(s[1] for s in inner)
    result.put("core.inner_sweeps", sweeps / m, "count", m)
    result.put("core.outer_iters", sum(r[1] for r in outer) / m, "count", m)
    result.put("core.inner_capped_frac",
               sum(not s[2] for s in inner) / max(len(inner), 1), "fraction", len(inner))
    result.put("core.rho_floor_hits", sum(r[2] for r in outer) / m, "count", m)
    result.put("core.h_inf_final.max", max((r[3] for r in outer), default=math.nan),
               "1", len(outer))
    result.put("core.ms_per_sweep", 1e3 * sum(s.seconds for s in plain) / max(sweeps, 1),
               "ms", sweeps)
    result.put("multicast.instance_mib", workload.instance_bytes(cases) / 2**20 / len(cases),
               "MiB", len(cases))
    plain_rate = m / sum(s.seconds for s in plain)
    traced_rate = m / sum(s.seconds for s in traced)
    result.put("trace.overhead_frac", 1.0 - traced_rate / plain_rate, "fraction", m)
    result.put("trace.spans_per_solve", len(recorder) / m, "count", m)


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------

def probe_setup(workload_name, seed, work_dir):
    """Set-up time reported by a fresh process (see ``probe_setup.py``)."""
    cmd = [sys.executable, str(HERE / "probe_setup.py"), "--workload", workload_name,
           "--seed", str(seed), "--out", str(work_dir)]
    out = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run(workload, seed, seconds, trace, work_dir, setup_probes=0):
    """Run one workload; returns (RunResult, recorder or None).

    ``setup_s`` is reported only when ``setup_probes`` > 0."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    result = RunResult()
    setup_times = [probe_setup(workload.name, seed, work_dir / "probe")
                   for _ in range(setup_probes)]
    *cases, ref_case = workload.setup(case_seeds(workload, seed), work_dir)
    workload.warm_up(cases[0])
    reference = {}
    recorder = None
    if not trace:
        result.solves = measure(workload, cases, seconds, reference, ref_case)
        end_to_end(workload, result, setup_times)
    else:
        subset = cases[:max(1, len(cases) // 2)]
        plain = measure(workload, subset, seconds, reference)
        before = tracing.snapshot_bindings()
        traced, recorder = measure_traced(workload, subset, reference)
        result.solves = plain + traced
        leftover = tracing.changed_bindings(before)
        if leftover:
            result.correct = False
            result.notes.append(f"wrappers not restored: {leftover}")
        per_layer(workload, subset, result, plain, traced, recorder)
    result.correct = result.correct and all(
        s.check is None or not s.check.invariant_errors for s in result.solves)
    return result, recorder


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------

def env_info(workload, seed):
    np_cfg = np.show_config(mode="dicts")
    sp_cfg = scipy.show_config(mode="dicts")
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numpy_blas": np_cfg["Build Dependencies"]["blas"].get("version"),
        "scipy_blas": sp_cfg["Build Dependencies"]["blas"].get("version"),
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def report(result, env, out_path):
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for note in result.notes:
        print(f"# {note}")
    for name, (value, unit, samples) in result.metrics.items():
        print(f"{name:36s} {value:14.6g} {unit:9s} n={samples}")
    tally = {"attempted": result.attempted, "failed": result.failed,
             "shortfall": sum(bool(s.check and s.check.shortfalls) for s in result.solves),
             "invariant": sum(bool(s.check and s.check.invariant_errors) for s in result.solves),
             "raised": sum(bool(s.error) for s in result.solves)}
    print(f"checks {json.dumps(tally)}")
    for s in result.solves:
        if s.failed:
            why = s.error.strip().splitlines()[-1] if s.error else \
                "; ".join(s.check.invariant_errors + s.check.shortfalls)
            print(f"# failed case {s.case}: {why}")
    with open(out_path, "w") as fh:
        json.dump({
            "env": env, "correct": result.correct, "checks": tally,
            "metrics": {k: {"value": v, "unit": u, "samples": n}
                        for k, (v, u, n) in result.metrics.items()},
            "solves": [{"case": s.case, "ref": s.ref, "seconds": s.seconds,
                        "sweeps": s.sweeps,
                        "inner_solves": s.inner_solves, "failed": s.failed,
                        "error": s.error,
                        "check": None if s.check is None else {
                            "quality": s.check.quality, "converged": s.check.converged,
                            "outer_iters": s.check.outer_iters, "h_final": s.check.h_final,
                            "invariant": s.check.invariant_errors,
                            "shortfall": s.check.shortfalls}}
                       for s in result.solves],
        }, fh, indent=1)


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    out_dir = OUT_ROOT / args.workload
    work_dir = out_dir / f"seed{args.seed}-trace{args.trace}"
    result, recorder = run(workload, args.seed, args.seconds, args.trace, work_dir,
                           setup_probes=0 if args.trace else SETUP_PROBES)
    env = env_info(args.workload, args.seed)
    stem = out_dir / f"seed{args.seed}-trace{args.trace}"
    if recorder is not None:
        recorder.write_csv(f"{stem}-spans.csv")
        result.notes.append(f"{len(recorder)} spans written to {stem}-spans.csv")
    report(result, env, f"{stem}.json")

    metrics = {}
    for spec in declared_metrics(args.trace):
        value, unit, _ = result.metrics[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0
