"""Benchmark command line: instance generation, solving, seed sweeps, and
the property-verification suites.

Subcommands
-----------
gen     write a seeded random instance (and, for volmin, the ground truth)
solve   run a solver on an instance; writes results JSON + iteration CSV
bench   run one configuration over many seeds; writes a summary CSV
verify  run property suites (numerics, pdd-core, multicast, relay, volmin, all)

``PDD_LOG_LEVEL`` controls logging verbosity (DEBUG shows per-iteration
progress).
"""

import argparse
import csv
import json
import logging
import os
import statistics
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import ioformats
from . import multicast as mc
from . import numerics
from . import relay as rl
from . import volmin as vm
from .core import PddConfig, PddTrace
from .errors import InvalidInputError, PddOptError
from .verify import SUITES, run_suites

log = logging.getLogger("pddopt")

# the flags only volmin reads, with their defaults; see _app
VOLMIN_FLAGS = {"format": "vmin", "truth_out": None, "truth": None, "restarts": 3,
                "eps_smooth": 1e-2, "prescale": False}

CONFIG_FLAGS = ("rho0", "c", "tau", "eps0", "max_outer", "max_inner", "mode")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=os.environ.get("PDD_LOG_LEVEL", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if hasattr(args, "seed"):
            _check_seed(args.seed, "--seed")
        return args.func(args)
    except PddOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser():
    parser = argparse.ArgumentParser(prog="pddopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # no abbreviations: gen would read --truth, a solve flag, as --truth-out
    p_gen = sub.add_parser("gen", help="generate a random instance file", allow_abbrev=False)
    p_gen.add_argument("--app", required=True, choices=APPS)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="instance file to write")
    g = _add_generator_flags(p_gen)
    g.add_argument("--format", choices=["vmin", "csv"], default=VOLMIN_FLAGS["format"],
                   help="volmin instance format")
    g.add_argument("--truth-out", help="volmin: ground-truth JSON to write")
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="solve one instance")
    p_solve.add_argument("--app", required=True, choices=APPS)
    p_solve.add_argument("--instance", help="instance file (omit to generate)")
    _add_generator_flags(p_solve)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run one configuration over many seeds")
    p_bench.add_argument("--app", required=True, choices=APPS)
    p_bench.add_argument("--instance", help="fixed instance file (else generated per seed)")
    _add_generator_flags(p_bench)
    p_bench.add_argument("--seeds", required=True,
                         help="comma list or inclusive range a..b")
    p_bench.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="run property-verification suites")
    p_verify.add_argument("suite", nargs="?", default="all",
                          choices=[*SUITES, "all"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _check_seed(seed, flag):
    """Seeds feed ``numpy.random.default_rng``, which takes no negative integer."""
    if seed < 0:
        raise InvalidInputError(f"{flag} must be a non-negative integer, got {seed}")


def _add_generator_flags(p):
    g = p.add_argument_group("generator parameters")
    g.add_argument("--nt", type=int, default=8, help="multicast: BS antennas")
    g.add_argument("--groups", type=int, default=4, help="multicast: group count")
    g.add_argument("--users-per-group", type=int, default=2)
    g.add_argument("--pbs-db", type=float, default=10.0, help="multicast: power (dB)")
    g.add_argument("--ns", type=int, default=4, help="relay: source antennas")
    g.add_argument("--nr", type=int, default=4, help="relay: relay antennas")
    g.add_argument("--k", type=int, default=4, help="relay users / volmin rank")
    g.add_argument("--snr-db", type=float, default=10.0,
                   help="relay/volmin SNR in dB (volmin: inf = noiseless)")
    g.add_argument("--n", type=int, default=10, help="volmin: data rows")
    g.add_argument("--l", type=int, default=200, help="volmin: data columns")
    g.add_argument("--gamma", type=float, default=0.8, help="volmin: simplex cap")
    return g


def _add_config_flags(p):
    g = p.add_argument_group("solver configuration (overrides app defaults)")
    g.add_argument("--config", help="JSON file with PddConfig field overrides")
    g.add_argument("--rho0", type=float)
    g.add_argument("--c", type=float)
    g.add_argument("--tau", type=float)
    g.add_argument("--eps0", type=float)
    g.add_argument("--max-outer", type=int, dest="max_outer")
    g.add_argument("--max-inner", type=int, dest="max_inner")
    g.add_argument("--mode", choices=["pdd", "ipdd"])
    g.add_argument("--restarts", type=int, default=VOLMIN_FLAGS["restarts"],
                   help="volmin random restarts")
    g.add_argument("--truth", help="volmin: ground-truth JSON for MSE evaluation")
    g.add_argument("--eps-smooth", type=float, default=VOLMIN_FLAGS["eps_smooth"],
                   help="volmin: volume smoothing parameter")
    g.add_argument("--prescale", action="store_true",
                   help="volmin: rescale data so the rank-K spectrum clears the smoothing floor")


def _config_overrides(args):
    """CLI flags > config file (app defaults fill the rest).

    Each value is checked here, before any instance is built or solved, so
    ``bench`` rejects a bad value once rather than failing every seed."""
    overrides = {}
    if getattr(args, "config", None):
        overrides.update(_read_config_file(args.config))
    for name in CONFIG_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    PddConfig(**overrides)
    return overrides


def _read_config_file(path):
    """PddConfig overrides from a JSON object; the seed comes only from --seed."""
    data = _read_json(path, "config")
    if "seed" in data:
        raise InvalidInputError(f"config file {path} sets 'seed'; use --seed instead")
    unknown = sorted(set(data) - {f.name for f in fields(PddConfig)})
    if unknown:
        raise InvalidInputError(
            f"config file {path}: unknown PddConfig field(s) {', '.join(unknown)}")
    return data


def _read_json(path, what):
    """The JSON object in the ``what`` file at ``path``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not text
        raise InvalidInputError(f"cannot read JSON {what} file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError(f"{what} file {path} must hold a JSON object")
    return data


def _from_json_file(path, what, from_dict):
    """``from_dict`` applied to the JSON object in the ``what`` file at ``path``."""
    data = _read_json(path, what)
    try:
        return from_dict(data)
    except KeyError as exc:
        raise InvalidInputError(f"{what} file {path} has no key {exc}") from exc
    except (TypeError, ValueError) as exc:  # a value of the wrong type or shape
        raise InvalidInputError(f"{what} file {path} holds a malformed value: {exc}") from exc


# --------------------------------------------------------------------------
# gen and solve, through one record per app
# --------------------------------------------------------------------------

class App:
    """One ``--app`` for ``gen``, ``solve`` and ``bench``: ``generate`` and ``load``
    (``--instance``, else generated) give ``(instance, truth)``, ``solve`` the
    ``results.json`` dict and the trace; ``bench`` reports ``results[objective]``.
    ``flags`` are the ``VOLMIN_FLAGS`` it reads. This base serves multicast and
    relay, which have no truth and keep instances in JSON files through
    ``module.instance_to_dict`` / ``instance_from_dict``."""

    flags = ()

    def write(self, args, inst, truth):
        _dump_json(Path(args.out), self.module.instance_to_dict(inst))

    def load(self, args, seed):
        if args.instance:
            return _from_json_file(args.instance, "instance", self.module.instance_from_dict), None
        return self.generate(args, seed)


class _Multicast(App):
    name, module, objective = "multicast", mc, "min_rate_bits"

    def generate(self, args, seed):
        return mc.gen_instance(args.nt, args.groups, args.users_per_group,
                               10.0 ** (args.pbs_db / 10.0), seed), None

    def solve(self, args, inst, truth, config, on_iteration):
        w, _, trace = mc.solve(inst, mc.default_config(inst, **config), on_iteration)
        return {"w": ioformats.complex_to_pairs(w), "min_rate_bits": mc.min_rate(w, inst),
                "kkt_residual": mc.kkt_residual(w, inst)}, trace


class _Relay(App):
    name, module, objective = "relay", rl, "sum_rate_nats"

    def generate(self, args, seed):
        return rl.gen_instance(args.ns, args.nr, args.k, args.snr_db, seed), None

    def solve(self, args, inst, truth, config, on_iteration):
        res = rl.solve(inst, rl.default_config(inst, **config), on_iteration)
        return {"V": ioformats.complex_to_pairs(res["V"]),
                "F": ioformats.complex_to_pairs(res["F"]), "sum_rate_nats": res["sum_rate_nats"],
                "repair_scale": list(res["repair_scale"])}, res["trace"]


class _Volmin(App):
    name, objective, flags = "volmin", "f_eps", tuple(VOLMIN_FLAGS)

    def generate(self, args, seed):
        return vm.gen_data(args.n, args.k, args.l, args.gamma, args.snr_db, seed)

    def write(self, args, inst, truth):
        write = ioformats.write_vmin if args.format == "vmin" else ioformats.write_matrix_csv
        write(args.out, inst.A)
        if args.truth_out:
            _dump_json(Path(args.truth_out), {
                "X": truth.X.tolist(), "S": truth.S.tolist(), "gamma": truth.gamma,
                "snr_db": None if np.isinf(truth.snr_db) else truth.snr_db})

    def load(self, args, seed):
        """Data built with ``--k`` and ``--eps-smooth``, and its ground truth:
        from a ``--truth`` file for ``--instance`` data, else generated."""
        # before any solve: vm.mse_metric scores a truth only up to MSE_MAX_RANK
        if (args.truth or not args.instance) and args.k > vm.MSE_MAX_RANK:
            source = f"--truth {args.truth}" if args.instance else "generated data"
            raise InvalidInputError(f"{source}: MSE evaluation supports "
                                    f"K <= {vm.MSE_MAX_RANK}, got --k {args.k}")
        if not args.instance:
            inst, truth = self.generate(args, seed)
            return vm.build_instance(inst.A, args.k, args.eps_smooth), truth
        try:
            A = ioformats.read_dense_matrix(args.instance)
        except OSError as exc:
            raise InvalidInputError(
                f"cannot read data matrix file {args.instance}: {exc}") from exc
        inst = vm.build_instance(A, args.k, args.eps_smooth)
        if not args.truth:
            return inst, None
        return inst, _from_json_file(args.truth, "truth", lambda data: _truth_from_dict(data, inst))

    def solve(self, args, inst, truth, config, on_iteration):
        """Restarts and optional prescaling, X reported unscaled; the winning
        restart's records go to ``on_iteration`` after all restarts.

        ``f_eps`` is that of the unscaled X at the smoothing level scaled with
        it, ``f_eps(X / scale, eps / scale**2)``: the scaled run's volume minus
        ``2 K log(scale)``, so it tells solutions apart at any scale and is
        the plain ``f_eps(X, eps)`` without prescaling."""
        scale = _volmin_prescale(inst) if args.prescale else 1.0
        if scale != 1.0:
            inst = vm.build_instance(scale * inst.A, inst.rank, inst.eps)
            log.info("prescaled data by %.3e", scale)
        X, S, trace = vm.solve_restarts(inst, vm.default_config(inst, **config),
                                        restarts=args.restarts)
        for rec in trace.records:
            on_iteration(rec)
        X_out = X / scale
        results = {"X": X_out.tolist(), "S": S.tolist(),
                   "f_eps": vm.f_eps(X_out, inst.eps / scale**2),
                   "restarts_used": args.restarts}
        if truth is not None:
            results["mse_db"] = vm.mse_metric(X_out, truth.X)
        return results, trace


APPS = {app.name: app for app in (_Multicast(), _Relay(), _Volmin())}


def _truth_from_dict(data, inst):
    X = np.asarray(data["X"])
    if X.shape != (inst.n_rows, inst.rank):
        raise ValueError(f"X has shape {X.shape}, the data and --k need "
                         f"{(inst.n_rows, inst.rank)}")
    return vm.GroundTruth(
        X=X, S=np.asarray(data["S"]), gamma=data["gamma"],
        snr_db=np.inf if data["snr_db"] is None else data["snr_db"],
    )


def _app(args):
    """The ``--app`` record, once the flags are checked before any file is
    written: each ``VOLMIN_FLAGS`` flag the app does not read holds its default,
    ``--restarts`` is at least 1, and ``--truth`` comes with ``--instance``."""
    app = APPS[args.app]
    for dest, default in VOLMIN_FLAGS.items():
        if dest not in app.flags and getattr(args, dest, default) != default:
            raise InvalidInputError(f"{app.name} does not read --{dest.replace('_', '-')}")
    if getattr(args, "restarts", 1) < 1:
        raise InvalidInputError(f"--restarts must be at least 1, got {args.restarts}")
    if getattr(args, "truth", None) and not args.instance:
        raise InvalidInputError(
            "--truth needs --instance: generated data carries its own ground truth")
    return app


def cmd_gen(args):
    app = _app(args)
    inst, truth = app.generate(args, args.seed)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    app.write(args, inst, truth)
    log.info("wrote %s instance to %s", app.name, args.out)
    return 0


def cmd_solve(args):
    app = _app(args)
    outdir = Path(args.out)
    overrides = _config_overrides(args)
    inst, truth = app.load(args, args.seed)
    outdir.mkdir(parents=True, exist_ok=True)
    results, trace = _run_app(app, args, overrides, inst, truth, args.seed,
                              outdir / "trace.csv")
    _dump_json(outdir / "results.json", results)
    log.info("results written to %s", outdir)
    return 0 if trace.converged else 1


def _run_app(app, args, overrides, inst, truth, seed, trace_path):
    """``app.solve`` with the trace streamed line-buffered: a crash leaves a parseable prefix."""
    with open(trace_path, "w", newline="", buffering=1) as fh:
        writer = csv.writer(fh)
        writer.writerow(PddTrace.CSV_COLUMNS)

        def on_iteration(rec):
            writer.writerow(PddTrace.csv_row(rec))
            log.debug("k=%d h_inf=%.3e rho=%.3e branch=%s", rec.k, rec.h_inf,
                      rec.rho, rec.branch)

        results, trace = app.solve(args, inst, truth, dict(overrides, seed=seed),
                                   on_iteration)
    results["feasibility_gap"] = trace.records[-1].h_inf
    results["iterations"] = len(trace.records)
    return results, trace


def _volmin_prescale(inst):
    """Scale factor pushing the rank-K singular value of A above the
    smoothing floor (heuristic: columns of S average 1/sqrt(L/K) mass).
    ``build_instance`` ensures K <= min(N, L), so A has a K-th singular value."""
    sK = numerics.singular_values(inst.A)[inst.rank - 1]
    target = 2.0 * np.sqrt(inst.eps) * np.sqrt(inst.n_cols / inst.rank)
    if sK <= 0:
        return 1.0
    return max(1.0, target / sK)


# --------------------------------------------------------------------------
# bench
# --------------------------------------------------------------------------

def _parse_seeds(expr):
    try:
        if ".." in expr:
            a, b = expr.split("..")
            seeds = list(range(int(a), int(b) + 1))
        else:
            seeds = [int(s) for s in expr.split(",") if s != ""]
    except ValueError as exc:
        raise InvalidInputError(
            f"malformed --seeds value {expr!r}: expected a comma list or a range a..b"
        ) from exc
    if not seeds:
        raise InvalidInputError("need at least one seed")
    for seed in seeds:
        _check_seed(seed, "--seeds")
    return seeds


def cmd_bench(args):
    app = _app(args)
    seeds = _parse_seeds(args.seeds)
    overrides = _config_overrides(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed in seeds:
        t0 = time.perf_counter()
        # outside the per-seed catch: a malformed instance or dimension is
        # the same for every seed, so the first seed ends the run (exit 2)
        inst, truth = app.load(args, seed)
        try:
            results, _ = _run_app(app, args, overrides, inst, truth, seed,
                                  outdir / f"trace_seed{seed}.csv")
            rows.append({
                "seed": seed, "status": "ok", "objective": results[app.objective],
                "feasibility_gap": results["feasibility_gap"],
                "iterations": results["iterations"],
                "time_s": time.perf_counter() - t0,
            })
        except Exception as exc:  # record, keep going
            log.warning("seed %d failed: %s", seed, exc)
            rows.append({"seed": seed, "status": f"failed: {exc}",
                         "objective": float("nan"),
                         "feasibility_gap": float("nan"), "iterations": 0,
                         "time_s": time.perf_counter() - t0})
    _write_bench_csv(outdir / "summary.csv", rows)
    print(f"bench: {sum(r['status'] == 'ok' for r in rows)}/{len(rows)} seeds ok, "
          f"summary in {outdir / 'summary.csv'}")
    return 0 if all(r["status"] == "ok" for r in rows) else 1


def _write_bench_csv(path, rows):
    cols = ["seed", "status", "objective", "feasibility_gap", "iterations", "time_s"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for r in rows:
            writer.writerow([r[c] for c in cols])
        ok_rows = [r for r in rows if r["status"] == "ok"]
        for stat, fn in (("mean", statistics.fmean), ("median", statistics.median),
                         ("p10", lambda v: _percentile(v, 10)),
                         ("p90", lambda v: _percentile(v, 90))):
            if not ok_rows:
                break
            writer.writerow([
                f"aggregate_{stat}", "",
                fn([r["objective"] for r in ok_rows]),
                fn([r["feasibility_gap"] for r in ok_rows]),
                fn([r["iterations"] for r in ok_rows]),
                fn([r["time_s"] for r in ok_rows]),
            ])


def _percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def cmd_verify(args):
    results = run_suites(args.suite, seed=args.seed)
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        detail = f"  [{r.detail}]" if r.detail else ""
        print(f"{mark} {r.suite}/{r.name}{detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return 1 if failed else 0


def _dump_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
