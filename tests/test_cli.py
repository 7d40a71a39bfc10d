"""Tests for the command-line interface."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.exceptions import InvalidParameterError
from repro.experiments.sweep import RegressionGrid
from repro.experiments.tournament import TournamentConfig
from repro.service import ServiceConfig
from repro.service.jobs import RUN_DEFAULTS, validate_job_spec


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_ids_cover_design_index(self):
        for expected in ("E1", "E4", "E5", "E8", "E10", "E11", "A1", "A4"):
            assert expected in EXPERIMENTS

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "E99"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cge" in out
        assert "gradient-reverse" in out
        assert "E11" in out

    def test_run_prints_summary(self, capsys):
        code = main([
            "run", "--n", "6", "--f", "1", "--iterations", "50", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dist(x_H, x_out)" in out
        assert "redundancy margin" in out

    def test_run_fault_free(self, capsys):
        assert main(["run", "--f", "0", "--iterations", "20"]) == 0
        assert "(none)" in capsys.readouterr().out

    def test_redundancy_sweep(self, capsys):
        assert main(["redundancy", "--noise", "0", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "margin" in out
        assert "yes" in out and "no" in out

    def test_experiment_with_exports(self, tmp_path, capsys, monkeypatch):
        # Patch in a fast experiment to keep the CLI test cheap.
        from repro.analysis.reporting import ExperimentResult

        def fake():
            return ExperimentResult(
                experiment_id="E4", title="fast", headers=["a"], rows=[[1.0]]
            )

        monkeypatch.setitem(EXPERIMENTS, "E4", fake)
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        code = main([
            "experiment", "E4", "--json", str(json_path), "--csv", str(csv_path),
        ])
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["experiment_id"] == "E4"
        assert csv_path.read_text().startswith("a")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestRunFaultFlags:
    FAST = ["run", "--n", "6", "--f", "1", "--iterations", "40", "--seed", "1"]

    def test_degraded_run_reports_resilience(self, capsys):
        code = main([
            *self.FAST, "--drop-prob", "0.1", "--delay", "2",
            "--stragglers", "1", "--fault-seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "stale reuses" in out
        assert "messages dropped" in out
        assert "network traffic" in out

    def test_crash_recover_flag(self, capsys):
        code = main([*self.FAST, "--crash-recover", "4:10:20"])
        assert code == 0
        assert "reinstatements" in capsys.readouterr().out

    def test_checkpoint_flag_writes_and_resumes(self, tmp_path, capsys):
        ckpt = str(tmp_path / "run.ckpt.json")
        args = [*self.FAST, "--delay", "1", "--checkpoint", ckpt]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert f"checkpoint -> {ckpt}" in first
        assert "resumed from round | 0" in first.replace("  ", " ") or "resumed" in first
        assert main(args) == 0
        assert "resumed from round" in capsys.readouterr().out

    def test_bad_drop_prob_exits_2(self, capsys):
        assert main([*self.FAST, "--drop-prob", "1.5"]) == 2
        assert "drop_prob" in capsys.readouterr().err

    def test_too_many_stragglers_exits_2(self, capsys):
        assert main([*self.FAST, "--stragglers", "9"]) == 2
        assert "--stragglers" in capsys.readouterr().err

    def test_malformed_crash_recover_exits_2(self, capsys):
        assert main([*self.FAST, "--crash-recover", "banana"]) == 2
        assert "--crash-recover" in capsys.readouterr().err

    def test_nonpositive_checkpoint_every_exits_2(self, capsys):
        assert main([*self.FAST, "--checkpoint-every", "0"]) == 2
        assert "--checkpoint-every" in capsys.readouterr().err


class TestSweepCommand:
    FAST = ["--filters", "cge", "--attacks", "zero", "--num-seeds", "2",
            "--iterations", "10", "--sequential"]

    def test_parses_resilience_flags(self):
        args = build_parser().parse_args([
            "sweep", "--timeout", "2.5", "--retries", "1",
            "--events", "ev.jsonl", "--cache-dir", "cache", "--resume",
        ])
        assert args.timeout == 2.5
        assert args.retries == 1
        assert args.events == "ev.jsonl"
        assert args.cache_dir == "cache"
        assert args.resume is True

    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.timeout is None
        assert args.retries == 2
        assert args.events is None
        assert args.resume is False

    def test_rejects_unknown_filter(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--filters", "nope"])

    def test_rejects_unknown_attack(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--attacks", "nope"])

    def test_runs_and_reports_cells(self, capsys):
        assert main(["sweep", *self.FAST]) == 0
        out = capsys.readouterr().out
        assert "Sweep grid summary" in out
        assert "2 cells (0 from cache)" in out

    def test_cache_dir_round_trip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["sweep", *self.FAST, "--cache-dir", cache]) == 0
        assert "(0 from cache)" in capsys.readouterr().out
        assert main(["sweep", *self.FAST, "--cache-dir", cache]) == 0
        assert "(2 from cache)" in capsys.readouterr().out

    def test_failed_cells_exit_code(self, capsys):
        # bulyan needs n >= 4f + 3: infeasible on the default n=6 instance,
        # so every cell fails and the command must signal it.
        code = main([
            "sweep", "--filters", "bulyan", "--attacks", "zero",
            "--num-seeds", "1", "--iterations", "5", "--sequential",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "1 failed" in out
        assert "n/a" in out

    def test_resume_requires_cache_dir(self, capsys):
        assert main(["sweep", *self.FAST, "--resume"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_resume_serves_cached_cells(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["sweep", *self.FAST, "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["sweep", *self.FAST, "--cache-dir", cache, "--resume"]) == 0
        assert "(2 from cache)" in capsys.readouterr().out

    def test_events_log_written_and_summarized(self, tmp_path, capsys):
        from repro.experiments.sweep import SweepEvents

        events = str(tmp_path / "events.jsonl")
        cache = str(tmp_path / "cache")
        code = main([
            "sweep", *self.FAST, "--events", events, "--cache-dir", cache,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"events -> {events}" in out
        assert "cache_miss=2" in out
        assert "manifest=1" in out
        records = SweepEvents.load(events)
        assert all("event" in record for record in records)
        assert any(r["event"] == "cache_miss" for r in records)

    def test_sweep_telemetry_dir(self, tmp_path, capsys):
        telemetry = str(tmp_path / "telemetry")
        assert main(["sweep", *self.FAST, "--telemetry", telemetry]) == 0
        assert f"telemetry -> {telemetry}/" in capsys.readouterr().out
        from repro.observability import count_events, load_jsonl

        stream = tmp_path / "telemetry" / "f1-cge-zero.jsonl"
        counts = count_events(load_jsonl(str(stream)))
        assert counts["round"] == 20  # 2 seeds x 10 iterations


class TestGridInputs:
    """``repro sweep`` exits 2 exactly where the service refuses the grid."""

    @pytest.mark.parametrize("flags, params, refused", [
        ("--fault-counts -1", {"fault_counts": [-1]}, True),
        ("--num-seeds 0", {"num_seeds": 0}, True),
        ("--iterations 0", {"iterations": 0}, True),
        ("--n 1", {"n": 1}, True),
        ("--d 0", {"d": 0}, True),
        ("--n 6 --d 5", {"n": 6, "d": 5}, True),
        ("--n 7 --d 5 --filters cge --attacks zero --num-seeds 1 --iterations 5",
         {"n": 7, "d": 5, "filters": ["cge"], "attacks": ["zero"],
          "num_seeds": 1, "iterations": 5}, False),
    ])
    def test_cli_and_service_agree(self, flags, params, refused, capsys):
        message = None
        try:
            validate_job_spec({"kind": "sweep", "params": params})
        except InvalidParameterError as exc:
            message = str(exc)
        assert (message is not None) == refused
        code = main(["sweep", "--sequential", *flags.split()])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if refused:
            assert code == 2
            assert err == f"error: {message}\n"
        else:
            assert code == 0 and err == ""


class TestJobDefaults:
    """The job commands take their flag defaults from the job definitions."""

    @pytest.mark.parametrize("argv", ["run", "profile", "submit run"])
    def test_run_job_flags(self, argv):
        args = build_parser().parse_args(argv.split())
        assert {key: getattr(args, key) for key in RUN_DEFAULTS} == RUN_DEFAULTS

    @pytest.mark.parametrize("argv", ["sweep", "submit sweep"])
    def test_grid_flags(self, argv):
        args = build_parser().parse_args(argv.split())
        grid = RegressionGrid()
        for name in ("filters", "attacks", "fault_counts"):
            assert tuple(getattr(args, name)) == getattr(grid, name)
        for name in ("num_seeds", "master_seed", "n", "d", "noise_std",
                     "iterations"):
            assert getattr(args, name) == getattr(grid, name)

    def test_tournament_flags(self):
        args = build_parser().parse_args(["tournament", "run"])
        config = TournamentConfig()
        for name in ("name", "rounds", "num_seeds", "master_seed", "n", "d",
                     "f", "noise_std", "iterations", "win_threshold",
                     "loss_threshold"):
            assert getattr(args, name) == getattr(config, name)

    def test_serve_flags(self):
        args = build_parser().parse_args(["serve", "--state-dir", "state"])
        for spec in dataclasses.fields(ServiceConfig):
            if spec.name == "parallel":
                assert args.sequential is not spec.default
            elif spec.name != "state_dir":
                assert getattr(args, spec.name) == spec.default


class TestServeCommand:
    def test_zero_pool_workers_exits_2_without_traceback(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--state-dir",
             str(tmp_path / "state"), "--pool-workers", "0"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "error: pool_workers must be positive" in proc.stderr

    @pytest.mark.parametrize("flag", ["--max-queue", "--per-client"])
    def test_zero_queue_bound_exits_2(self, tmp_path, capsys, flag):
        argv = ["serve", "--state-dir", str(tmp_path / "state"), flag, "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestErrorBoundary:
    """A library error ends any command with ``error: …`` and exit 2.

    Each of these used to print a traceback and exit 1. CI runs two of
    them as subprocesses to check the same on the process's own stderr.
    """

    @pytest.mark.parametrize("argv", [
        "run --n 6 --f 3",
        "run --n 6 --f 1 --d 5",
        "run --noise -1",
        "run --iterations -5",
        "run --architecture decentralized --n 12 --f 1 --hops 2 --drop-prob 1.5",
        "profile --n 6 --f 3",
        "redundancy --n 6 --f 3",
    ])
    def test_bad_input_exits_2_without_traceback(self, argv, capsys):
        assert main(argv.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestProfileCommand:
    FAST = ["profile", "--iterations", "20", "--seed", "1"]

    def test_prints_rollup_table(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "p50 (ms)" in out and "p95 (ms)" in out
        assert "rounds / sec" in out
        assert "elimination precision" in out
        assert "elimination recall" in out
        assert "rounds recorded" in out

    def test_batch_engine_profile(self, capsys):
        assert main([*self.FAST, "--runs", "3"]) == 0
        out = capsys.readouterr().out
        assert "run_dgd_batch x3" in out
        assert "60" in out  # 3 runs x 20 iterations recorded

    def test_rejects_nonpositive_runs(self, capsys):
        assert main([*self.FAST, "--runs", "0"]) == 2
        assert "--runs" in capsys.readouterr().err

    def test_telemetry_and_json_exports(self, tmp_path, capsys):
        from repro.observability import count_events, load_jsonl
        from repro.utils.atomicio import read_json_checked

        stream = str(tmp_path / "profile.jsonl")
        summary_path = str(tmp_path / "summary.json")
        code = main([
            *self.FAST, "--telemetry", stream, "--json", summary_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"telemetry -> {stream}" in out
        assert f"saved summary to {summary_path}" in out
        counts = count_events(load_jsonl(stream))
        assert counts["round"] == 20
        summary = read_json_checked(summary_path)
        assert summary["rounds"] == 20
        assert summary["elimination"]["recall"] == 1.0

    def test_run_command_telemetry_flag(self, tmp_path, capsys):
        from repro.observability import count_events, load_jsonl

        stream = str(tmp_path / "run.jsonl")
        code = main([
            "run", "--iterations", "15", "--telemetry", stream,
        ])
        assert code == 0
        assert f"telemetry -> {stream}" in capsys.readouterr().out
        records = load_jsonl(stream)
        counts = count_events(records)
        assert counts["round"] == 15
        # The run's ground truth flows in: faulty agent 0 is scored.
        rounds = [r for r in records if r["event"] == "round"]
        assert all("distance_to_ref" in r for r in rounds)
