import csv
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pddopt
from pddopt import ioformats
from pddopt.cli import main
from pddopt.errors import InvalidInputError


def run_cli(*args):
    return main([str(a) for a in args])


class TestVminFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 9))
        path = tmp_path / "m.vmin"
        ioformats.write_vmin(path, A)
        np.testing.assert_array_equal(ioformats.read_vmin(path), A)

    def test_header(self, tmp_path):
        path = tmp_path / "m.vmin"
        ioformats.write_vmin(path, np.zeros((3, 4)))
        raw = path.read_bytes()
        assert raw[:4] == b"VMIN"
        assert int.from_bytes(raw[4:8], "little") == 3
        assert int.from_bytes(raw[8:12], "little") == 4
        assert len(raw) == 12 + 8 * 12

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.vmin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(InvalidInputError):
            ioformats.read_vmin(path)

    def test_csv_dispatch(self, tmp_path):
        A = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "m.csv"
        ioformats.write_matrix_csv(path, A)
        np.testing.assert_allclose(ioformats.read_dense_matrix(path), A)

    def test_complex_pairs_roundtrip(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        np.testing.assert_array_equal(
            ioformats.pairs_to_complex(ioformats.complex_to_pairs(M)), M)

    def test_complex_pairs_keep_signed_zeros(self):
        M = np.array([[complex(-0.0, 1.0), complex(2.0, -0.0)],
                      [complex(-0.0, -0.0), complex(-3.5, 4.0)]])
        out = ioformats.pairs_to_complex(ioformats.complex_to_pairs(M))
        assert out.dtype == complex and out.tobytes() == M.tobytes()

    @pytest.mark.parametrize("data", [[[1.0, 2.0, 3.0]], [[1.0]], 5.0, [1.0, 2.0]],
                             ids=["three-element-leaf", "one-element-leaf", "scalar",
                                  "bare-pair"])
    def test_pairs_to_complex_rejects_non_pairs(self, data):
        with pytest.raises(ValueError, match="expected nested \\[re, im\\] pairs"):
            ioformats.pairs_to_complex(data)


class TestGen:
    def test_deterministic_multicast(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("gen", "--app", "multicast", "--nt", 4, "--groups", 2,
                           "--users-per-group", 1, "--seed", 5, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_deterministic_volmin_binary(self, tmp_path):
        a, b = tmp_path / "a.vmin", tmp_path / "b.vmin"
        for out in (a, b):
            assert run_cli("gen", "--app", "volmin", "--n", 6, "--k", 2, "--l", 20,
                           "--snr-db", "inf", "--seed", 7, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_relay_snr_maps_to_power(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("gen", "--app", "relay", "--ns", 2, "--nr", 2, "--k", 2,
                "--snr-db", 10, "--seed", 0, "--out", out)
        data = json.loads(out.read_text())
        assert data["P_S"] == pytest.approx(10.0)
        assert data["P_R"] == pytest.approx(10.0)

    def test_multicast_pbs_db(self, tmp_path):
        out = tmp_path / "m.json"
        run_cli("gen", "--app", "multicast", "--nt", 8, "--groups", 4,
                "--users-per-group", 2, "--pbs-db", 10, "--seed", 0, "--out", out)
        data = json.loads(out.read_text())
        assert data["P_BS"] == pytest.approx(10.0)
        assert len(data["channels"]) == 8
        assert data["sigma2"] == [1.0] * 8


class TestSolve:
    def test_multicast_end_to_end(self, tmp_path):
        inst = tmp_path / "mc.json"
        run_cli("gen", "--app", "multicast", "--nt", 4, "--groups", 2,
                "--users-per-group", 1, "--seed", 3, "--out", inst)
        outdir = tmp_path / "run"
        code = run_cli("solve", "--app", "multicast", "--instance", inst,
                       "--seed", 3, "--out", outdir)
        results = json.loads((outdir / "results.json").read_text())
        assert set(results) == {"w", "min_rate_bits", "kkt_residual",
                                "feasibility_gap", "iterations"}
        with open(outdir / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "k"
        assert len(rows) - 1 == results["iterations"]
        # exit code 0 iff converged before the cap
        assert code == (0 if results["feasibility_gap"] <= 1e-4 else 1)

    def test_relay_end_to_end(self, tmp_path):
        inst = tmp_path / "rel.json"
        run_cli("gen", "--app", "relay", "--ns", 2, "--nr", 2, "--k", 2,
                "--snr-db", 10, "--seed", 1, "--out", inst)
        outdir = tmp_path / "run"
        code = run_cli("solve", "--app", "relay", "--instance", inst,
                       "--seed", 1, "--out", outdir)
        assert code == 0
        results = json.loads((outdir / "results.json").read_text())
        assert set(results) == {"V", "F", "sum_rate_nats", "feasibility_gap",
                                "repair_scale", "iterations"}
        assert results["sum_rate_nats"] > 0

    def test_volmin_end_to_end_with_truth(self, tmp_path):
        inst = tmp_path / "v.vmin"
        truth = tmp_path / "truth.json"
        run_cli("gen", "--app", "volmin", "--n", 10, "--k", 3, "--l", 100,
                "--snr-db", "inf", "--seed", 2, "--out", inst,
                "--truth-out", truth)
        outdir = tmp_path / "run"
        run_cli("solve", "--app", "volmin", "--instance", inst, "--k", 3,
                "--truth", truth, "--seed", 2, "--restarts", 2, "--out", outdir)
        results = json.loads((outdir / "results.json").read_text())
        assert set(results) == {"X", "S", "mse_db", "feasibility_gap", "f_eps",
                                "restarts_used", "iterations"}
        with open(outdir / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert results["iterations"] == len(rows) - 1  # the winning restart's rows
        assert results["mse_db"] <= -25.0
        assert results["restarts_used"] == 2

    def test_volmin_prescale(self, tmp_path):
        from pddopt import cli
        from pddopt import volmin as vm

        # data scaled far down, so sigma_K sits below the smoothing floor
        small, _ = vm.gen_data(N=6, K=2, L=30, gamma=0.8, snr_db=None, seed=4)
        data = tmp_path / "a.vmin"
        ioformats.write_vmin(data, 1e-3 * small.A)
        inst = vm.build_instance(ioformats.read_vmin(data), 2)
        scale = cli._volmin_prescale(inst)
        assert scale > 1.0
        outdir = tmp_path / "run"
        code = run_cli("solve", "--app", "volmin", "--instance", data, "--k", 2,
                       "--prescale", "--restarts", 2, "--max-outer", 4, "--seed", 3,
                       "--out", outdir)
        scaled = vm.build_instance(scale * inst.A, 2)
        X, _, trace = vm.solve_restarts(
            scaled, vm.default_config(scaled, seed=3, max_outer=4), restarts=2)
        results = json.loads((outdir / "results.json").read_text())
        np.testing.assert_array_equal(np.array(results["X"]), X / scale)
        # the reported X's volume at the smoothing level scaled with it
        assert results["f_eps"] == vm.f_eps(X / scale, inst.eps / scale**2)
        assert results["f_eps"] == pytest.approx(
            vm.f_eps(X, inst.eps) - 2 * inst.rank * np.log(scale), rel=1e-12)
        assert code == (0 if trace.converged else 1)

    def test_volmin_prescale_objective_tells_seeds_apart(self, tmp_path):
        from pddopt import volmin as vm

        # at the smoothing level of the unscaled data, both seeds' reported X
        # sat on the floor of f_eps and read the same volume to 13 digits
        data, _ = vm.gen_data(10, 3, 200, 0.8, 40.0, seed=0)
        path = tmp_path / "a.vmin"
        ioformats.write_vmin(path, 1e-3 * data.A)
        outdir = tmp_path / "bench"
        run_cli("bench", "--app", "volmin", "--instance", path, "--k", 3, "--prescale",
                "--restarts", 1, "--max-outer", 4, "--seeds", "0..1", "--out", outdir)
        with open(outdir / "summary.csv") as fh:
            objs = [float(r["objective"]) for r in csv.DictReader(fh) if r["seed"] in ("0", "1")]
        assert len(objs) == 2
        assert abs(objs[0] - objs[1]) > 1e-6 * abs(objs[0])

    def test_config_overrides(self, tmp_path):
        inst = tmp_path / "mc.json"
        run_cli("gen", "--app", "multicast", "--nt", 4, "--groups", 2,
                "--users-per-group", 1, "--seed", 3, "--out", inst)
        outdir = tmp_path / "run"
        run_cli("solve", "--app", "multicast", "--instance", inst, "--seed", 3,
                "--max-outer", 2, "--out", outdir)
        results = json.loads((outdir / "results.json").read_text())
        assert results["iterations"] <= 2

    def test_config_file_precedence(self, tmp_path):
        inst = tmp_path / "mc.json"
        run_cli("gen", "--app", "multicast", "--nt", 4, "--groups", 2,
                "--users-per-group", 1, "--seed", 3, "--out", inst)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_outer": 3}))
        outdir = tmp_path / "run1"
        run_cli("solve", "--app", "multicast", "--instance", inst, "--seed", 3,
                "--config", cfg, "--out", outdir)
        assert json.loads((outdir / "results.json").read_text())["iterations"] <= 3
        outdir2 = tmp_path / "run2"  # CLI flag wins over the config file
        run_cli("solve", "--app", "multicast", "--instance", inst, "--seed", 3,
                "--config", cfg, "--max-outer", 1, "--out", outdir2)
        assert json.loads((outdir2 / "results.json").read_text())["iterations"] == 1

    def test_generated_instance_without_file(self, tmp_path):
        outdir = tmp_path / "run"
        code = run_cli("solve", "--app", "relay", "--ns", 2, "--nr", 2, "--k", 2,
                       "--snr-db", 10, "--seed", 1, "--out", outdir)
        assert code == 0

    def test_volmin_eps_smooth_applies_to_generated_data(self, tmp_path):
        data, truth = tmp_path / "d.vmin", tmp_path / "truth.json"
        dims = ("--n", 6, "--l", 30, "--k", 2, "--seed", 4)
        run_cli("gen", "--app", "volmin", *dims, "--out", data, "--truth-out", truth)
        solve = ("solve", "--app", "volmin", *dims, "--eps-smooth", 0.5,
                 "--restarts", 1, "--max-outer", 5)
        run_cli(*solve, "--out", tmp_path / "gen")
        run_cli(*solve, "--instance", data, "--truth", truth, "--out", tmp_path / "file")
        generated = (tmp_path / "gen" / "results.json").read_bytes()
        assert generated == (tmp_path / "file" / "results.json").read_bytes()
        assert set(json.loads(generated)) >= {"f_eps", "mse_db"}


class TestFlagsPerSubcommand:
    """Each subcommand accepts only the flags it reads."""

    @pytest.mark.parametrize("command, flag", [
        ("gen", "--truth t.json"), ("gen", "--eps-smooth 0.5"), ("gen", "--prescale"),
        ("solve", "--format csv"), ("solve", "--truth-out t.json"),
        ("bench", "--format csv"), ("bench", "--truth-out t.json"),
    ], ids=["gen-truth", "gen-eps-smooth", "gen-prescale", "solve-format",
            "solve-truth-out", "bench-format", "bench-truth-out"])
    def test_flag_the_subcommand_does_not_read_exits_2(self, tmp_path, capsys, command, flag):
        seeds = ("--seeds", 0) if command == "bench" else ()
        with pytest.raises(SystemExit) as info:
            run_cli(command, "--app", "volmin", *seeds, "--out", tmp_path / "out",
                    *flag.split())
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, app, flag", [
        ("solve", "multicast", "--truth t.json"), ("solve", "relay", "--restarts 0"),
        ("solve", "multicast", "--eps-smooth -1"), ("solve", "relay", "--prescale"),
        ("bench", "multicast", "--restarts 5"), ("bench", "relay", "--truth t.json"),
        ("gen", "relay", "--format csv"), ("gen", "multicast", "--truth-out t.json"),
    ], ids=["solve-multicast-truth", "solve-relay-restarts", "solve-multicast-eps-smooth",
            "solve-relay-prescale", "bench-multicast-restarts", "bench-relay-truth",
            "gen-relay-format", "gen-multicast-truth-out"])
    def test_volmin_flag_on_another_app_exits_2(self, tmp_path, capsys, command, app, flag):
        seeds = ("--seeds", 0) if command == "bench" else ()
        code = run_cli(command, "--app", app, *seeds, "--out", tmp_path / "out", *flag.split())
        assert code == 2
        assert capsys.readouterr().err == f"error: {app} does not read {flag.split()[0]}\n"
        assert not (tmp_path / "out").exists()

    def test_volmin_flag_at_its_default_is_accepted(self, tmp_path):
        code = run_cli("solve", "--app", "relay", "--ns", 1, "--nr", 1, "--k", 1,
                       "--restarts", 3, "--eps-smooth", 0.01, "--out", tmp_path / "run")
        assert code in (0, 1)
        assert (tmp_path / "run" / "results.json").is_file()

    def test_truth_without_instance_exits_2(self, tmp_path, capsys):
        truth = tmp_path / "truth.json"
        run_cli("gen", "--app", "volmin", "--n", 6, "--l", 30, "--k", 2,
                "--out", tmp_path / "d.vmin", "--truth-out", truth)
        code = run_cli("solve", "--app", "volmin", "--n", 6, "--l", 30, "--k", 2,
                       "--truth", truth, "--out", tmp_path / "run")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --truth needs --instance: generated data carries its own ground truth\n")
        assert not (tmp_path / "run" / "trace.csv").exists()


class TestBench:
    def test_rows_and_aggregates(self, tmp_path):
        outdir = tmp_path / "bench"
        code = run_cli("bench", "--app", "relay", "--ns", 2, "--nr", 2, "--k", 2,
                       "--snr-db", 10, "--seeds", "1,2,3", "--out", outdir)
        assert code == 0
        with open(outdir / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        per_seed = [r for r in rows[1:] if not r[0].startswith("aggregate")]
        agg = [r for r in rows[1:] if r[0].startswith("aggregate")]
        assert [r[0] for r in per_seed] == ["1", "2", "3"]
        assert {r[0] for r in agg} == {"aggregate_mean", "aggregate_median",
                                       "aggregate_p10", "aggregate_p90"}
        objs = [float(r[2]) for r in per_seed]
        med = [float(r[2]) for r in agg if r[0] == "aggregate_median"][0]
        assert med == pytest.approx(float(np.median(objs)))

    def test_seed_order_invariance(self, tmp_path):
        rows = {}
        for tag, seeds in (("a", "1,2"), ("b", "2,1")):
            outdir = tmp_path / tag
            run_cli("bench", "--app", "relay", "--ns", 2, "--nr", 2, "--k", 2,
                    "--snr-db", 10, "--seeds", seeds, "--out", outdir)
            with open(outdir / "summary.csv") as fh:
                for r in csv.reader(fh):
                    if r and r[0] in ("1", "2"):
                        rows.setdefault(tag, {})[r[0]] = r[2:5]
        assert rows["a"] == rows["b"]

    @pytest.mark.parametrize("app, dims, key", [
        ("multicast", ("--nt", 4, "--groups", 2, "--users-per-group", 1), "min_rate_bits"),
        ("relay", ("--ns", 2, "--nr", 2, "--k", 2), "sum_rate_nats"),
        ("volmin", ("--n", 6, "--l", 30, "--k", 2, "--restarts", 1, "--max-outer", 3),
         "f_eps"),
    ], ids=["multicast", "relay", "volmin"])
    def test_objective_matches_solve(self, tmp_path, app, dims, key):
        run_cli("solve", "--app", app, *dims, "--seed", 2, "--out", tmp_path / "solve")
        run_cli("bench", "--app", app, *dims, "--seeds", 2, "--out", tmp_path / "bench")
        results = json.loads((tmp_path / "solve" / "results.json").read_text())
        with open(tmp_path / "bench" / "summary.csv") as fh:
            row = next(r for r in csv.DictReader(fh) if r["seed"] == "2")
        assert row["status"] == "ok"
        assert float(row["objective"]) == results[key]
        assert float(row["feasibility_gap"]) == results["feasibility_gap"]
        assert int(row["iterations"]) == results["iterations"]

    def test_seed_range_syntax(self, tmp_path):
        outdir = tmp_path / "bench"
        run_cli("bench", "--app", "relay", "--ns", 1, "--nr", 1, "--k", 1,
                "--snr-db", 5, "--seeds", "0..2", "--out", outdir)
        with open(outdir / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        per_seed = [r for r in rows[1:] if not r[0].startswith("aggregate")]
        assert len(per_seed) == 3


class TestVerify:
    def test_numerics_suite_exit_zero(self, capsys, monkeypatch, property_run):
        # cmd_verify prints the session's catalogue run, so no property runs twice
        from pddopt import cli

        records, _ = property_run
        monkeypatch.setattr(cli, "run_suites",
                            lambda suite, seed=0: [r for r in records if r.suite == suite])
        assert run_cli("verify", "numerics") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + sum(r.suite == "numerics" for r in records)
        assert all(line.startswith("PASS numerics/") for line in lines[:-1])
        assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} properties passed"

    def test_all_lists_every_suite_once(self):
        from itertools import groupby

        from pddopt.verify import CATALOGUE, SUITES

        assert SUITES == ("numerics", "pdd-core", "multicast", "relay", "volmin")
        assert [suite for suite, _ in groupby(p.suite for p in CATALOGUE)] == list(SUITES)

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("verify", "nonsense")


class TestInvalidInputExitCode:
    def test_multicast_zero_channel_user(self, tmp_path, capsys):
        inst = tmp_path / "mc.json"
        inst.write_text(json.dumps({
            "N_t": 2, "groups": [[0], [1]], "sigma2": [1.0, 1.0], "P_BS": 1.0,
            "channels": [[[1.0, 0.0], [0.0, 0.5]], [[0.0, 0.0], [0.0, 0.0]]],
        }))
        code = run_cli("solve", "--app", "multicast", "--instance", inst,
                       "--out", tmp_path / "run")
        assert code == 2
        assert "user 1 has an all-zero channel" in capsys.readouterr().err

    def test_volmin_fewer_columns_than_rank(self, tmp_path, capsys):
        data = tmp_path / "a.csv"
        ioformats.write_matrix_csv(data, np.arange(8.0).reshape(4, 2))
        code = run_cli("solve", "--app", "volmin", "--instance", data, "--k", 3,
                       "--out", tmp_path / "run")
        assert code == 2
        assert "need at least K data columns" in capsys.readouterr().err


class TestNumericalFailureExitCode:
    def test_relay_singular_linear_solve(self, tmp_path, capsys, monkeypatch):
        # gesv reports an exactly singular factor (info > 0) in the X or V step
        from pddopt import numerics

        gesv = numerics._GESV

        def singular(*args, **kwargs):
            *out, _ = gesv(*args, **kwargs)
            return *out, 1

        monkeypatch.setattr(numerics, "_GESV", singular)
        code = run_cli("solve", "--app", "relay", "--ns", 2, "--nr", 2, "--k", 2,
                       "--out", tmp_path / "run")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "gesv info=1" in err


class TestBadInputExitCode:
    def _solve_relay(self, tmp_path, *extra):
        return run_cli("solve", "--app", "relay", "--ns", 1, "--nr", 1, "--k", 1,
                       "--out", tmp_path / "run", *extra)

    def test_missing_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "absent.json"
        assert self._solve_relay(tmp_path, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert f"cannot read JSON config file {cfg}" in err
        assert "No such file or directory" in err

    def test_config_file_not_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("max_outer = 3\n")
        assert self._solve_relay(tmp_path, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert f"cannot read JSON config file {cfg}: Expecting value" in err

    def test_unknown_config_key(self, tmp_path, capsys):
        # the inner descent check has no switch, pdd_run sets eta_1 and the rho
        # floor itself, and the iteration cap is not a stop rule
        for data, message in (
            ({"rho_0": 1}, "unknown PddConfig field(s) rho_0"),
            ({"descent_check": True}, "unknown PddConfig field(s) descent_check"),
            ({"eta0": 1.0}, "unknown PddConfig field(s) eta0"),
            ({"rho_min": 0.0}, "unknown PddConfig field(s) rho_min"),
            ({"inner_stop": "iteration-cap"}, "error: inner_stop must be one of"),
        ):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(data))
            assert self._solve_relay(tmp_path, "--config", cfg) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        {"max_outer": "abc"}, {"rho0": None}, {"c": [0.5]}, {"tau": "0.9"},
        {"max_inner": 2.5}, {"eps_outer": -1},
    ], ids=["max_outer-str", "rho0-null", "c-list", "tau-str", "max_inner-float",
            "eps_outer-negative"])
    def test_malformed_config_value(self, tmp_path, capsys, data):
        (name,) = data
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert self._solve_relay(tmp_path, "--config", cfg) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} must ")

    def test_bench_rejects_bad_config_before_solving(self, tmp_path, capsys):
        code = run_cli("bench", "--app", "relay", "--ns", 1, "--nr", 1, "--k", 1,
                       "--seeds", "0,1", "--rho0", -1, "--out", tmp_path / "bench")
        assert code == 2
        assert capsys.readouterr().err == "error: rho0 must be positive, got -1.0\n"
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("argv, name", [
        (("--app", "relay", "--k", 0), "relay dimension K "),
        (("--app", "relay", "--ns", 0), "relay dimension N_s "),
        (("--app", "multicast", "--groups", 0), "multicast dimension n_groups "),
        (("--app", "multicast", "--nt", 0), "multicast dimension N_t "),
        (("--app", "volmin", "--k", 0), "volmin dimension K "),
        (("--app", "volmin", "--n", 0), "volmin dimension N "),
    ], ids=["relay-k", "relay-ns", "multicast-groups", "multicast-nt", "volmin-k",
            "volmin-n"])
    def test_empty_dimension(self, tmp_path, capsys, argv, name):
        assert run_cli("solve", *argv, "--out", tmp_path / "run") == 2
        assert capsys.readouterr().err == f"error: {name}must be at least 1, got 0\n"

    @pytest.mark.parametrize("argv, message", [
        (("--app", "volmin", "--n", 4, "--k", 2, "--l", 10, "--restarts", 0),
         "--restarts must be at least 1, got 0"),
        (("--app", "relay", "--k", 0), "relay dimension K must be at least 1, got 0"),
    ], ids=["volmin-restarts", "relay-k"])
    def test_bench_seed_independent_error_exits_once(self, tmp_path, capsys, caplog,
                                                    argv, message):
        code = run_cli("bench", *argv, "--seeds", "0,1", "--out", tmp_path / "bench")
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert "seed 0 failed" not in caplog.text

    def test_solve_with_no_restart_writes_nothing(self, tmp_path, capsys):
        code = run_cli("solve", "--app", "volmin", "--n", 10, "--k", 3, "--l", 30,
                       "--restarts", 0, "--out", tmp_path / "r0")
        assert code == 2
        assert capsys.readouterr().err == "error: --restarts must be at least 1, got 0\n"
        assert not (tmp_path / "r0" / "trace.csv").exists()
        assert not (tmp_path / "r0").exists()

    @pytest.mark.parametrize("seeds", [("--seed", 0), ("--seeds", "0,1")],
                             ids=["solve", "bench"])
    def test_generated_volmin_rank_above_8_exits_before_solving(self, tmp_path, capsys,
                                                                 seeds):
        command = "bench" if seeds[0] == "--seeds" else "solve"
        code = run_cli(command, "--app", "volmin", "--n", 10, "--k", 9, "--l", 30,
                       "--restarts", 1, "--max-outer", 2, *seeds, "--out", tmp_path / "run")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: generated data: MSE evaluation supports K <= 8, got --k 9\n")
        assert not list((tmp_path / "run").glob("trace*.csv"))

    def test_seed_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 4}))
        assert self._solve_relay(tmp_path, "--config", cfg) == 2
        assert "sets 'seed'; use --seed instead" in capsys.readouterr().err

    def test_malformed_seed_range(self, tmp_path, capsys):
        code = run_cli("bench", "--app", "relay", "--ns", 1, "--nr", 1, "--k", 1,
                       "--seeds", "a..b", "--out", tmp_path / "bench")
        assert code == 2
        assert "malformed --seeds value 'a..b'" in capsys.readouterr().err

    def test_empty_seed_range(self, tmp_path, capsys):
        code = run_cli("bench", "--app", "relay", "--ns", 1, "--nr", 1, "--k", 1,
                       "--seeds", "5..3", "--out", tmp_path / "bench")
        assert code == 2
        assert capsys.readouterr().err == "error: need at least one seed\n"

    @pytest.mark.parametrize("argv", [
        ("gen", "--app", "relay", "--out", "inst.json", "--seed", -1),
        ("solve", "--app", "relay", "--k", 1, "--out", "run", "--seed", -1),
        ("verify", "pdd-core", "--seed", -1),
        ("bench", "--app", "relay", "--k", 1, "--out", "bench", "--seeds=-1..0"),
    ], ids=["gen", "solve", "verify", "bench"])
    def test_negative_seed(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2
        assert "must be a non-negative integer, got -1" in capsys.readouterr().err


class TestBadInstanceFile:
    """A missing or malformed ``--instance``/``--truth`` file exits 2 and names the file."""

    def _solve(self, tmp_path, app, *extra):
        return run_cli("solve", "--app", app, "--out", tmp_path / "run", *extra)

    def test_missing_instance_file(self, tmp_path, capsys):
        path = tmp_path / "nothere.json"
        assert self._solve(tmp_path, "relay", "--instance", path) == 2
        err = capsys.readouterr().err
        assert f"cannot read JSON instance file {path}" in err
        assert "No such file or directory" in err

    def test_instance_file_not_json(self, tmp_path, capsys):
        path = tmp_path / "mc.json"
        path.write_text("channels = []\n")
        assert self._solve(tmp_path, "multicast", "--instance", path) == 2
        assert f"cannot read JSON instance file {path}: Expecting value" in capsys.readouterr().err

    def test_relay_instance_without_channels(self, tmp_path, capsys):
        path = tmp_path / "rel.json"
        path.write_text(json.dumps({"N_s": 1}))
        assert self._solve(tmp_path, "relay", "--instance", path) == 2
        assert f"instance file {path} has no key 'H'" in capsys.readouterr().err

    def test_multicast_instance_without_channels(self, tmp_path, capsys):
        path = tmp_path / "mc.json"
        path.write_text(json.dumps({"groups": [[0]]}))
        assert self._solve(tmp_path, "multicast", "--instance", path) == 2
        assert f"instance file {path} has no key 'channels'" in capsys.readouterr().err

    @pytest.mark.parametrize("channels", ["abc", 5])
    def test_multicast_instance_with_malformed_channels(self, tmp_path, capsys, channels):
        path = tmp_path / "mc.json"
        path.write_text(json.dumps({"channels": channels, "groups": [[0]],
                                    "sigma2": [1.0], "P_BS": 1.0}))
        assert self._solve(tmp_path, "multicast", "--instance", path) == 2
        assert f"instance file {path} holds a malformed value" in capsys.readouterr().err

    def test_relay_instance_with_three_element_leaf(self, tmp_path, capsys):
        path = tmp_path / "rel.json"
        run_cli("gen", "--app", "relay", "--ns", 2, "--nr", 2, "--k", 2, "--seed", 0,
                "--out", path)
        data = json.loads(path.read_text())
        data["H"] = [[pair + [0.0] for pair in row] for row in data["H"]]
        path.write_text(json.dumps(data))
        assert self._solve(tmp_path, "relay", "--instance", path) == 2
        assert (f"instance file {path} holds a malformed value: expected nested [re, im] pairs"
                in capsys.readouterr().err)

    def test_relay_instance_with_nan_channel(self, tmp_path, capsys):
        path = tmp_path / "rel.json"
        run_cli("gen", "--app", "relay", "--ns", 2, "--nr", 2, "--k", 2, "--seed", 0,
                "--out", path)
        data = json.loads(path.read_text())
        data["H"][0][1][0] = float("nan")
        path.write_text(json.dumps(data))   # written as the JSON token NaN
        assert self._solve(tmp_path, "relay", "--instance", path) == 2
        assert (f"instance file {path} holds a malformed value: H has a non-finite entry"
                in capsys.readouterr().err)

    def test_multicast_instance_with_fractional_group_member(self, tmp_path, capsys):
        path = tmp_path / "mc.json"
        path.write_text(json.dumps({"channels": [[[1.0, 0.0]], [[0.0, 1.0]]],
                                    "groups": [[0.9], [1.2]], "sigma2": [1.0, 1.0], "P_BS": 1.0}))
        assert self._solve(tmp_path, "multicast", "--instance", path) == 2
        assert "integer user indices, got 0.9" in capsys.readouterr().err

    @pytest.mark.parametrize("value, message", [
        (True, "P_BS must be a real number, got True"),
        ("1", "P_BS must be a real number, got '1'"),
        ([1.0], "P_BS must be a real number, got [1.0]"),
        (10**400, "P_BS has a non-finite entry"),
    ], ids=["bool", "string", "list", "huge-integer"])
    def test_multicast_instance_with_non_number_budget(self, tmp_path, capsys, value, message):
        path = tmp_path / "mc.json"
        path.write_text(json.dumps({"channels": [[[1.0, 0.0]], [[0.0, 1.0]]],
                                    "groups": [[0], [1]], "sigma2": [1.0, 1.0], "P_BS": value}))
        assert self._solve(tmp_path, "multicast", "--instance", path) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run" / "results.json").exists()

    @pytest.mark.parametrize("rows, cols, extra", [(2**32 - 1, 2**32 - 1, 0), (2, 2, 8)],
                             ids=["oversized-header", "trailing-bytes"])
    def test_vmin_payload_size_mismatch(self, tmp_path, capsys, rows, cols, extra):
        path = tmp_path / "a.vmin"
        path.write_bytes(b"VMIN" + struct.pack("<II", rows, cols) + bytes(32 + extra))
        message = f"needs {8 * rows * cols} payload bytes, the file holds {32 + extra}"
        with pytest.raises(InvalidInputError, match=f"{rows} x {cols} header {message}$"):
            ioformats.read_vmin(path)
        assert self._solve(tmp_path, "volmin", "--instance", path, "--k", 1) == 2
        assert capsys.readouterr().err.endswith(f"{message}\n")

    def test_volmin_csv_with_non_numeric_cell(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        path.write_text("1,2\na,3\n")
        assert self._solve(tmp_path, "volmin", "--instance", path, "--k", 1) == 2
        assert f"{path}: not a numeric CSV matrix" in capsys.readouterr().err

    def test_truncated_vmin_header(self, tmp_path, capsys):
        path = tmp_path / "a.vmin"
        path.write_bytes(b"VMIN")
        assert self._solve(tmp_path, "volmin", "--instance", path, "--k", 1) == 2
        assert f"{path}: truncated header (4 of 12 bytes)" in capsys.readouterr().err

    def test_missing_volmin_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "nothere.vmin"
        assert self._solve(tmp_path, "volmin", "--instance", path) == 2
        err = capsys.readouterr().err
        assert f"cannot read data matrix file {path}" in err
        assert "No such file or directory" in err

    @pytest.mark.parametrize("n, k, truth_k, message", [
        (6, 2, 3, "truth file {} holds a malformed value: X has shape (6, 3), "
                  "the data and --k need (6, 2)"),
        (10, 9, 9, "--truth {}: MSE evaluation supports K <= 8, got --k 9"),
    ], ids=["shape-mismatch", "rank-above-8"])
    def test_truth_checked_before_solving(self, tmp_path, capsys, n, k, truth_k, message):
        data, truth = tmp_path / "a.vmin", tmp_path / "truth.json"
        run_cli("gen", "--app", "volmin", "--n", n, "--k", truth_k, "--l", 30,
                "--out", data, "--truth-out", truth)
        assert self._solve(tmp_path, "volmin", "--instance", data, "--k", k,
                           "--truth", truth) == 2
        assert capsys.readouterr().err == f"error: {message.format(truth)}\n"
        assert not (tmp_path / "run" / "trace.csv").exists()

    def test_missing_truth_file(self, tmp_path, capsys):
        data, truth = tmp_path / "a.vmin", tmp_path / "nothere.json"
        run_cli("gen", "--app", "volmin", "--n", 4, "--k", 2, "--l", 20,
                "--seed", 0, "--out", data)
        assert self._solve(tmp_path, "volmin", "--instance", data, "--k", 2,
                           "--truth", truth) == 2
        assert f"cannot read JSON truth file {truth}" in capsys.readouterr().err


def _trace_rows_without_time(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "time_ms"
    return [row[:-1] for row in rows]


def _expected_rows(trace):
    header = list(trace.CSV_COLUMNS[:-1])
    return [header] + [[str(v) for v in trace.csv_row(rec)[:-1]] for rec in trace.records]


class TestCliMatchesLibrary:
    """``pddopt solve --instance f --seed s`` writes what the library returns."""

    def test_multicast(self, tmp_path):
        from pddopt import multicast as mc

        path, outdir, seed = tmp_path / "mc.json", tmp_path / "run", 3
        run_cli("gen", "--app", "multicast", "--nt", 4, "--groups", 2,
                "--users-per-group", 1, "--seed", seed, "--out", path)
        run_cli("solve", "--app", "multicast", "--instance", path, "--seed", seed,
                "--out", outdir)
        inst = mc.instance_from_dict(json.loads(path.read_text()))
        w, _, trace = mc.solve(inst, mc.default_config(inst, seed=seed))
        results = json.loads((outdir / "results.json").read_text())
        np.testing.assert_array_equal(ioformats.pairs_to_complex(results["w"]), w)
        assert results["min_rate_bits"] == mc.min_rate(w, inst)
        assert results["iterations"] == len(trace.records)
        assert _trace_rows_without_time(outdir / "trace.csv") == _expected_rows(trace)

    def test_relay(self, tmp_path):
        from pddopt import relay as rl

        path, outdir, seed = tmp_path / "rel.json", tmp_path / "run", 1
        run_cli("gen", "--app", "relay", "--ns", 2, "--nr", 2, "--k", 2,
                "--snr-db", 10, "--seed", seed, "--out", path)
        run_cli("solve", "--app", "relay", "--instance", path, "--seed", seed,
                "--out", outdir)
        inst = rl.instance_from_dict(json.loads(path.read_text()))
        res = rl.solve(inst, rl.default_config(inst, seed=seed))
        results = json.loads((outdir / "results.json").read_text())
        np.testing.assert_array_equal(ioformats.pairs_to_complex(results["V"]), res["V"])
        np.testing.assert_array_equal(ioformats.pairs_to_complex(results["F"]), res["F"])
        assert results["sum_rate_nats"] == res["sum_rate_nats"]
        assert results["iterations"] == len(res["trace"].records)
        assert _trace_rows_without_time(outdir / "trace.csv") == _expected_rows(res["trace"])

    def test_relay_config_flags(self, tmp_path):
        from pddopt import relay as rl

        path, outdir, seed = tmp_path / "rel.json", tmp_path / "run", 2
        run_cli("gen", "--app", "relay", "--ns", 2, "--nr", 2, "--k", 2,
                "--snr-db", 10, "--seed", seed, "--out", path)
        run_cli("solve", "--app", "relay", "--instance", path, "--seed", seed,
                "--rho0", 5.0, "--c", 0.5, "--tau", 0.8, "--eps0", 1e-2,
                "--max-inner", 20, "--max-outer", 12, "--mode", "ipdd", "--out", outdir)
        inst = rl.instance_from_dict(json.loads(path.read_text()))
        config = rl.default_config(inst, seed=seed, rho0=5.0, c=0.5, tau=0.8, eps0=1e-2,
                                   max_inner=20, max_outer=12, mode="ipdd")
        res = rl.solve(inst, config)
        assert {rec.branch for rec in res["trace"].records} == {"dual+penalty"}
        results = json.loads((outdir / "results.json").read_text())
        np.testing.assert_array_equal(ioformats.pairs_to_complex(results["V"]), res["V"])
        assert _trace_rows_without_time(outdir / "trace.csv") == _expected_rows(res["trace"])


class TestImportGraph:
    """A CLI solve of each app leaves the heavy modules unimported: pddopt
    binds its LAPACK routines from scipy.linalg._flapack, not scipy.linalg."""

    HEAVY = ("scipy.linalg", "numpy.f2py", "numpy.testing")

    def test_cli_solves_do_not_import_scipy_linalg(self, tmp_path):
        script = f"""
import json, sys
from pddopt import cli
out = {str(tmp_path)!r}
runs = [
    ["--app", "multicast", "--nt", "4", "--groups", "2", "--users-per-group", "1"],
    ["--app", "relay", "--ns", "2", "--nr", "2", "--k", "2"],
    ["--app", "volmin", "--n", "6", "--l", "30", "--k", "2", "--restarts", "1"],
]
codes = [cli.main(["solve", *argv, "--seed", "1", "--max-outer", "2",
                   "--out", f"{{out}}/{{i}}"]) for i, argv in enumerate(runs)]
print(json.dumps({{"codes": codes,
                  "heavy": [m for m in {self.HEAVY!r} if m in sys.modules]}}))
"""
        src = str(Path(pddopt.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True, timeout=300)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert all(code in (0, 1) for code in report["codes"])
        assert all((tmp_path / str(i) / "results.json").is_file() for i in range(3))
        assert report["heavy"] == []
