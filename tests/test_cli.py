"""Tests for the repro CLI."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "fig6a", "--reps", "3", "--seed", "4", "--json", "x.json"]
        )
        assert args.experiment == "fig6a"
        assert args.reps == 3
        assert args.seed == 4
        assert args.json == "x.json"

    def test_resume_and_timeout_flags(self):
        args = build_parser().parse_args(["run", "fig6a", "--resume", "ckpt"])
        assert args.resume == "ckpt"
        args = build_parser().parse_args(["sweep", "budget", "100", "--resume", "c"])
        assert args.resume == "c"
        args = build_parser().parse_args(["simulate", "--selector-timeout", "0.5"])
        assert args.selector_timeout == 0.5

    def test_logging_flags_shared_by_every_subcommand(self):
        for argv in (
            ["list"],
            ["run", "fig6a"],
            ["tables"],
            ["report"],
            ["simulate"],
            ["show", "x.json"],
            ["sweep", "n_users", "8"],
            ["trace", "summarize", "t.json"],
            ["obs", "list"],
            ["obs", "regress"],
            ["obs", "dashboard"],
        ):
            args = build_parser().parse_args(argv + ["-vv", "--log-json"])
            assert args.verbose == 2
            assert args.log_json is True
            assert args.quiet is False
        args = build_parser().parse_args(["simulate", "--quiet"])
        assert args.quiet is True and args.verbose == 0


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("fig5a", "fig6a", "fig9b", "ablation-levels"):
            assert experiment_id in out


class TestTables:
    def test_prints_three_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "table2" in out and "table3" in out
        assert "0.648" in out  # the paper's w1


class TestSimulate:
    def test_prints_metrics(self, capsys):
        code = main([
            "simulate", "--users", "10", "--tasks", "5", "--rounds", "4",
            "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "coverage" in out
        assert "total_paid" in out

    def test_mechanism_choice(self, capsys):
        code = main([
            "simulate", "--users", "8", "--tasks", "4", "--rounds", "3",
            "--mechanism", "steered", "--selector", "greedy",
        ])
        assert code == 0

    def test_verbosity_flags_leave_stdout_unchanged(self, capsys):
        argv = ["simulate", "--users", "8", "--tasks", "4", "--rounds", "3"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["-vv", "--log-json"]) == 0
        noisy = capsys.readouterr().out
        # Compare up to the perf line: its wall-clock numbers vary per run.
        assert noisy.split("\nperf:")[0] == plain.split("\nperf:")[0]

    def test_scenario_preset_with_flag_overrides(self, capsys):
        code = main([
            "simulate", "--scenario", "paper-2018", "--users", "12",
            "--tasks", "4", "--rounds", "2", "--seed", "0",
        ])
        assert code == 0
        assert "coverage" in capsys.readouterr().out

    def test_scenario_file(self, capsys, tmp_path):
        from repro.scenarios import ScenarioSpec, save_spec

        path = save_spec(
            ScenarioSpec("mini", config={"n_users": 10, "n_tasks": 4,
                                         "rounds": 2}),
            tmp_path / "mini.toml",
        )
        assert main(["simulate", "--scenario", str(path), "--seed", "1"]) == 0

    def test_scenario_with_engine_and_events(self, capsys, tmp_path):
        from repro.scenarios import ScenarioSpec, save_spec

        # A saved spec may still carry the retired engine key.
        path = save_spec(
            ScenarioSpec("legacy", config={"n_users": 12, "n_tasks": 4,
                                           "rounds": 2, "engine": "batched"}),
            tmp_path / "legacy.toml",
        )
        events = tmp_path / "events.jsonl"
        code = main([
            "simulate", "--scenario", str(path), "--seed", "0",
            "--events", str(events),
        ])
        assert code == 0
        assert "streamed events" in capsys.readouterr().out
        assert events.exists()

    def test_engine_option_is_retired(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--engine", "batched"])
        assert "--engine" in capsys.readouterr().err

    def test_unknown_scenario_is_a_named_error(self, capsys):
        with pytest.raises(ValueError, match="atlantis"):
            main(["simulate", "--scenario", "atlantis"])


class TestScenarios:
    def test_lists_presets(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("paper-2018", "city-2k", "city-50k"):
            assert name in out

    def test_verbose_config_dumps_toml(self, capsys):
        assert main(["scenarios", "--verbose-config"]) == 0
        out = capsys.readouterr().out
        assert 'name = "city-50k"' in out
        assert "[config]" in out


class TestTrace:
    ARGV = [
        "simulate", "--users", "8", "--tasks", "4", "--rounds", "3",
        "--seed", "2",
    ]

    def test_trace_writes_chrome_file_and_manifest(self, capsys, tmp_path):
        trace_path = tmp_path / "out.json"
        assert main(self.ARGV + ["--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "saved trace" in out and "saved manifest" in out

        payload = json.loads(trace_path.read_text())
        names = {event["name"] for event in payload["traceEvents"]}
        assert {"run", "round", "price-publish", "select", "upload"} <= names
        assert payload["otherData"]["selector"] == "dp"
        assert "counters" in payload["otherData"]

        manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
        assert manifest["base_seed"] == 2
        assert manifest["config"]["n_users"] == 8
        assert manifest["command"].startswith("repro simulate")

    def test_traced_run_metrics_match_untraced(self, capsys, tmp_path):
        def metric_table(text):
            # Up to the perf line, whose wall-clock numbers vary per run.
            return text.split("\nperf:")[0]

        assert main(self.ARGV) == 0
        plain = capsys.readouterr().out
        assert main(self.ARGV + ["--trace", str(tmp_path / "t.json")]) == 0
        traced = capsys.readouterr().out
        assert metric_table(traced) == metric_table(plain)

    def test_summarize_prints_phases_and_counters(self, capsys, tmp_path):
        trace_path = tmp_path / "out.json"
        main(self.ARGV + ["--trace", str(trace_path)])
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "select" in out and "round" in out
        assert "p50 ms" in out and "p95 ms" in out
        assert "payout_total" in out
        assert "selector_seconds" in out
        # Histogram counters surface bucket-interpolated percentiles too.
        assert "p50=" in out and "p95=" in out

    def test_summarize_rejects_non_trace_files(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="not a repro trace"):
            main(["trace", "summarize", str(bogus)])

    def test_summarize_renders_dash_for_empty_histogram(self, capsys,
                                                        tmp_path):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import SpanTracer

        registry = MetricsRegistry()
        registry.histogram("never_observed", bounds=(1.0,))
        tracer = SpanTracer()
        with tracer.span("run"):
            pass
        path = tracer.write_chrome(
            tmp_path / "t.json", counters=registry.as_dict()
        )
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "p50=- p95=-" in out
        assert "None" not in out


class TestTraceMerge:
    def _shard(self, directory, process, trace_id="cafe0123deadbeef"):
        from repro.obs.trace import SpanTracer, TraceContext

        ctx = TraceContext(trace_id, str(directory), process=process)
        tracer = SpanTracer(metadata=ctx.metadata())
        with tracer.span("work", cat="test"):
            pass
        return tracer.write_jsonl(ctx.shard_path())

    def test_merges_a_directory_of_shards(self, capsys, tmp_path):
        self._shard(tmp_path, "server")
        self._shard(tmp_path, "worker-a1")
        out = tmp_path / "merged.json"
        assert main(["trace", "merge", str(tmp_path), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "cafe0123deadbeef" in stdout
        assert "2 shard(s)" in stdout
        payload = json.loads(out.read_text())
        assert payload["otherData"]["processes"] == ["server", "worker-a1"]

    def test_explicit_shard_paths_work_too(self, capsys, tmp_path):
        first = self._shard(tmp_path, "server")
        out = tmp_path / "merged.json"
        assert main(["trace", "merge", str(first), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["displayTimeUnit"] == "ms"

    def test_mixed_trace_ids_fail_with_exit_2(self, capsys, tmp_path):
        self._shard(tmp_path, "a", trace_id="1111111111111111")
        self._shard(tmp_path, "b", trace_id="2222222222222222")
        out = tmp_path / "merged.json"
        assert main(["trace", "merge", str(tmp_path), "--out", str(out)]) == 2
        assert "different traces" in capsys.readouterr().err

    def test_empty_directory_fails_with_exit_2(self, capsys, tmp_path):
        (tmp_path / "void").mkdir()
        out = tmp_path / "merged.json"
        assert main(
            ["trace", "merge", str(tmp_path / "void"), "--out", str(out)]
        ) == 2
        assert "no trace shards" in capsys.readouterr().err


class TestRun:
    def test_run_prints_rows_and_saves(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REPS", "1")
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        code = main([
            "run", "fig6a", "--json", str(json_path), "--csv", str(csv_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig6a" in out and "on-demand" in out
        payload = json.loads(json_path.read_text())
        assert payload["result"]["experiment_id"] == "fig6a"
        assert csv_path.read_text().startswith("series,x,mean,std,n")

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            main(["run", "fig0x"])


class TestResume:
    def test_run_resume_creates_journals_and_reuses_them(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_REPS", "1")
        ckpt = tmp_path / "ckpt"
        assert main(["run", "fig6a", "--resume", str(ckpt)]) == 0
        journals = sorted(p.name for p in ckpt.iterdir())
        assert journals and all(name.endswith(".jsonl") for name in journals)
        first = capsys.readouterr().out
        mtimes = {p.name: p.stat().st_mtime_ns for p in ckpt.iterdir()}
        # Second run resumes: identical output, journals untouched.
        assert main(["run", "fig6a", "--resume", str(ckpt)]) == 0
        assert capsys.readouterr().out == first
        assert {p.name: p.stat().st_mtime_ns for p in ckpt.iterdir()} == mtimes

    def test_run_resume_rejected_for_non_journaling_experiment(
        self, capsys, tmp_path
    ):
        assert main(["run", "fig5a", "--resume", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "does not support --resume" in err
        assert "fig6a" in err  # the error lists what *is* resumable

    def test_sweep_resume(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt"
        code = main([
            "sweep", "n_users", "8", "--reps", "1", "--resume", str(ckpt),
        ])
        assert code == 0
        assert (ckpt / "sweep-n_users-8.jsonl").exists()


class TestSelectorTimeout:
    def test_simulate_reports_degradations(self, capsys):
        code = main([
            "simulate", "--users", "8", "--tasks", "4", "--rounds", "3",
            "--seed", "2", "--selector-timeout", "10",
        ])
        assert code == 0
        assert "selector degradations (greedy fallbacks): 0" in capsys.readouterr().out


class TestShow:
    def test_round_trips_saved_result(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REPS", "1")
        path = tmp_path / "saved.json"
        main(["run", "fig6a", "--json", str(path)])
        capsys.readouterr()
        assert main(["show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fig6a" in out and "on-demand" in out

    def test_chart_rendering(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REPS", "1")
        path = tmp_path / "saved.json"
        main(["run", "fig6a", "--json", str(path)])
        capsys.readouterr()
        assert main(["show", str(path), "--chart"]) == 0
        assert "overlap" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["show", str(tmp_path / "nope.json")])


class TestSweep:
    def test_sweeps_integer_field(self, capsys):
        code = main(["sweep", "n_users", "8", "12", "--reps", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep-n_users" in out
        assert "coverage_pct" in out

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown config field"):
            main(["sweep", "n_usrs", "8", "--reps", "1"])


class TestMap:
    def test_simulate_map_flag(self, capsys):
        code = main([
            "simulate", "--users", "8", "--tasks", "4", "--rounds", "3",
            "--seed", "2", "--map",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "=user(8)" in out


class TestObs:
    SIM = ["simulate", "--users", "8", "--tasks", "4", "--rounds", "3"]

    def test_store_flag_defaults_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_STORE", "/tmp/somewhere")
        assert build_parser().parse_args(["obs", "list"]).store == "/tmp/somewhere"
        monkeypatch.delenv("REPRO_OBS_STORE")
        assert build_parser().parse_args(["obs", "list"]).store == ".repro-obs"

    def test_simulate_list_show_diff_flow(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        for seed in ("2", "3"):
            assert main(self.SIM + ["--seed", seed, "--obs-store", store]) == 0
        capsys.readouterr()

        assert main(["obs", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "simulate-000001" in out and "simulate-000002" in out
        assert "seed=3" in out

        assert main(["obs", "show", "simulate-000001", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "label selector = dp" in out
        assert "summary/coverage" in out

        assert main(["obs", "diff", "simulate-000001", "simulate-000002",
                     "--store", store]) == 0
        out = capsys.readouterr().out
        assert "metric" in out and "delta" in out

    def test_dashboard_renders_text_and_html(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        for seed in ("2", "3", "4"):
            assert main(self.SIM + ["--seed", seed, "--obs-store", store]) == 0
        capsys.readouterr()
        html_path = tmp_path / "dash.html"
        assert main(["obs", "dashboard", "--store", store,
                     "--html", str(html_path)]) == 0
        out = capsys.readouterr().out
        assert "observatory:" in out
        assert "[simulate] 3 runs" in out
        assert html_path.read_text().startswith("<!doctype html>")

    def test_regress_on_an_empty_store_is_green(self, capsys, tmp_path):
        assert main(["obs", "regress", "--store", str(tmp_path / "none")]) == 0
        assert "status: skipped" in capsys.readouterr().out

    def test_profile_flag_prints_a_digest(self, capsys):
        assert main(self.SIM + ["--seed", "2", "--profile",
                                "--profile-interval", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out and "peak RSS" in out

    def test_run_obs_store_records_experiment_series(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_REPS", "1")
        store = str(tmp_path / "store")
        assert main(["run", "fig6a", "--obs-store", store]) == 0
        out = capsys.readouterr().out
        assert "recorded in store: experiment:fig6a-000001" in out
        from repro.obs.store import RunStore

        entry = RunStore(store).latest(kind="experiment:fig6a")
        assert entry["labels"]["experiment"] == "fig6a"
        assert any("[x=" in name for name in entry["values"])
