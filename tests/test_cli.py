"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.policies == ["lru", "mpppb-1a", "min"]
        assert args.scale == ""

    def test_compare_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--policies", "clock"])

    def test_roc_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["roc", "--benchmark", "nope"])

    def test_search_arguments(self):
        args = build_parser().parse_args(
            ["search", "--candidates", "5", "--steps", "3", "--seed", "1"])
        assert (args.candidates, args.steps, args.seed) == (5, 3, 1)

    def test_mix_arguments(self):
        args = build_parser().parse_args(["mix", "--mixes", "2"])
        assert args.mixes == 2

    def test_telemetry_flag(self):
        args = build_parser().parse_args(["compare", "--telemetry"])
        assert args.telemetry is True
        assert build_parser().parse_args(["compare"]).telemetry is False

    def test_stats_arguments(self):
        args = build_parser().parse_args(["stats"])
        assert not args.run_id
        assert args.top == 12
        args = build_parser().parse_args(["stats", "abc123", "--top", "0"])
        assert args.run_id == "abc123"
        assert args.top == 0


class TestExecution:
    def test_compare_unknown_benchmark_fails_cleanly(self, capsys):
        code = main(["compare", "--benchmarks", "not_a_benchmark",
                     "--scale", "tiny"])
        assert code == 2
        assert "unknown benchmarks" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "mix", "perf"])
    def test_bare_mpppb_policy_rejected_at_parse_time(self, command,
                                                      capsys):
        code = main([command, "--policies", "lru", "mpppb",
                     "--scale", "tiny"])
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: policy 'mpppb'")
        assert captured.out == ""

    def test_compare_runs_tiny(self, capsys):
        code = main(["compare", "--benchmarks", "gamess",
                     "--policies", "lru", "min", "--scale", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gamess" in out
        assert "geomean" in out

    def test_mix_without_lru_prints_raw(self, capsys):
        code = main(["mix", "--mixes", "2", "--policies", "srrip",
                     "--scale", "tiny"])
        assert code == 0
        assert "raw weighted speedups" in capsys.readouterr().out


class TestStats:
    def _record(self, tmp_path, capsys):
        """One telemetry-enabled compare; returns its cache dir."""
        cache = str(tmp_path / "cache")
        code = main(["compare", "--benchmarks", "gamess", "soplex",
                     "--policies", "lru", "mpppb-1a", "--scale", "tiny",
                     "--telemetry", "--cache-dir", cache])
        assert code == 0
        err = capsys.readouterr().err
        assert "telemetry:" in err
        assert "repro.cli stats" in err
        return cache

    def test_list_mode(self, tmp_path, capsys):
        cache = self._record(tmp_path, capsys)
        assert main(["stats", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "run id" in out
        assert "compare/mpppb-1a" in out

    def test_render_mode(self, tmp_path, capsys):
        cache = self._record(tmp_path, capsys)
        from repro.obs.events import list_event_logs

        run_ids = [run_id for run_id, _ in list_event_logs(cache)]
        assert run_ids
        assert main(["stats", run_ids[-1][:12], "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "span coverage" in out
        assert "cell" in out
        assert "llc/accesses" in out
        assert "mpppb/confidence" in out

    def test_empty_store(self, tmp_path, capsys):
        assert main(["stats", "--cache-dir", str(tmp_path / "none")]) == 0
        assert "no recorded telemetry" in capsys.readouterr().out

    def test_unknown_prefix(self, tmp_path, capsys):
        cache = self._record(tmp_path, capsys)
        assert main(["stats", "zzzz", "--cache-dir", cache]) == 2
        assert "no telemetry matches" in capsys.readouterr().err

    def test_telemetry_does_not_leak_across_commands(self, tmp_path, capsys):
        from repro import obs

        self._record(tmp_path, capsys)
        assert not obs.enabled()
        # A later command without the flag must not record anything.
        cache2 = str(tmp_path / "cache2")
        code = main(["compare", "--benchmarks", "gamess", "soplex",
                     "--policies", "lru", "--scale", "tiny",
                     "--cache-dir", cache2])
        assert code == 0
        assert "telemetry:" not in capsys.readouterr().err


class TestFailureHandling:
    def test_malformed_jobs_env_is_a_clean_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "many")
        code = main(["compare", "--benchmarks", "gamess", "--policies", "lru",
                     "--scale", "tiny", "--cache-dir", "off"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: REPRO_JOBS")
        assert "Traceback" not in err

    def test_malformed_fault_spec_is_a_clean_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:every=two")
        code = main(["compare", "--benchmarks", "gamess", "--policies", "lru",
                     "--scale", "tiny", "--cache-dir", "off"])
        assert code == 2
        assert "REPRO_FAULT_INJECT" in capsys.readouterr().err

    def test_keyboard_interrupt_prints_partial_report(self, monkeypatch,
                                                      capsys):
        from repro.exec import runner as exec_runner

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(exec_runner, "_execute_cell", interrupt)
        code = main(["compare", "--benchmarks", "gamess", "soplex",
                     "--policies", "lru", "--scale", "tiny",
                     "--cache-dir", "off"])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "pending" in err

    def test_failed_cells_exit_nonzero_with_table(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:every=1,times=99")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        code = main(["compare", "--benchmarks", "gamess", "--policies", "lru",
                     "--scale", "tiny", "--cache-dir", "off"])
        assert code == 1
        err = capsys.readouterr().err
        assert "failed cell" in err
        assert "InjectedFault" in err
