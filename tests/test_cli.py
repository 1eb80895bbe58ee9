"""Tests for the command-line interface."""

import argparse
import json
import os
import re
import subprocess
import sys

import pytest

import repro.cli
from repro.cli import build_parser, main


MODEL = ["--layers", "4", "--hidden", "256", "--heads", "8",
         "--vocab", "1024", "--seq", "128"]


class TestSimulate:
    def test_basic(self, capsys):
        rc = main(["simulate", *MODEL, "-p", "2", "--batch", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Tflop/s" in out and "bubble" in out

    def test_interleaved(self, capsys):
        rc = main([
            "simulate", *MODEL, "-p", "2", "--batch", "8",
            "--chunks", "2", "--schedule", "interleaved",
        ])
        assert rc == 0

    def test_flags(self, capsys):
        rc = main([
            "simulate", *MODEL, "--batch", "8", "--no-recompute",
            "--no-fusion", "--no-scatter-gather",
        ])
        assert rc == 0

    def test_invalid_config_reports_error(self, capsys):
        rc = main(["simulate", *MODEL, "-p", "3", "--batch", "8"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestSuggest:
    def test_basic(self, capsys):
        rc = main(["suggest", *MODEL, "--gpus", "8", "--batch", "32"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "suggested" in out and "fits=True" in out

    def test_invalid_config_reports_error(self, capsys):
        rc = main(["suggest", *MODEL, "--gpus", "0", "--batch", "32"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestAutotune:
    def test_basic(self, capsys):
        rc = main(["autotune", *MODEL, "--gpus", "4", "--batch", "8",
                   "--top", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1." in out and "2." in out
        assert re.fullmatch(r"simulated \d+ of \d+ candidates",
                            out.splitlines()[-1])

    def test_invalid_config_reports_error(self, capsys):
        rc = main(["autotune", *MODEL, "--gpus", "0", "--batch", "8"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_nonpositive_top_is_an_error(self, top, capsys):
        """``scored[:top]`` used to print nothing (0) or drop the three
        worst candidates (-3), both with exit 0."""
        rc = main(["autotune", *MODEL, "--gpus", "4", "--batch", "8",
                   "--top", top])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error: top_k must be >= 1" in captured.err
        assert "1." not in captured.out


class TestSchedule:
    @pytest.mark.parametrize("name", ["gpipe", "1f1b", "interleaved",
                                      "interleaved-gpipe"])
    def test_renders(self, name, capsys):
        rc = main(["schedule", name, "-p", "2", "-m", "4", "--chunks", "2"])
        assert rc == 0
        assert "dev0" in capsys.readouterr().out

    def test_invalid_schedule_params(self, capsys):
        rc = main(["schedule", "interleaved", "-p", "4", "-m", "6"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestTrace:
    def test_engine_smoke(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main([
            "trace", "--layers", "4", "--hidden", "32", "--heads", "4",
            "--vocab", "64", "--seq", "16", "-p", "2", "--batch", "4",
            "--out", str(out), "--metrics", str(metrics),
        ])
        assert rc == 0
        assert out.exists() and metrics.exists()
        text = capsys.readouterr().out
        assert "match=True" in text and "phase" in text

    def test_sim_mode(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main([
            "trace", *MODEL, "-p", "2", "-d", "2", "--batch", "8",
            "--mode", "sim", "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        assert "simulated iteration" in capsys.readouterr().out

    def test_invalid_config_reports_error(self, tmp_path, capsys):
        rc = main([
            "trace", *MODEL, "-p", "3", "--batch", "8",
            "--out", str(tmp_path / "t.json"),
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err


GOODPUT_FAST = ["goodput", "--preset", "175b", "--points", "5",
                "--failures", "10,25", "--iterations", "40"]


class TestGoodput:
    def test_sweep_and_replay(self, capsys):
        rc = main(GOODPUT_FAST)
        assert rc == 0
        out = capsys.readouterr().out
        assert "Young/Daly" in out
        assert "within one sweep step: True" in out
        assert "goodput=" in out and "2 failures" in out

    def test_trace_out_spans_match_report(self, tmp_path, capsys):
        out = tmp_path / "goodput_trace.json"
        rc = main([*GOODPUT_FAST, "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "match=True" in capsys.readouterr().out

    def test_invalid_mtbf_reports_error(self, capsys):
        rc = main([*GOODPUT_FAST, "--node-mtbf-hours", "0"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_sweep_reports_error(self, capsys):
        # min >= max makes the interval grid unconstructible.
        rc = main([*GOODPUT_FAST, "--min-interval", "100",
                   "--max-interval", "50"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def _refused(self, capsys, *flags) -> str:
        """``flags`` on top of the fast run exit 2 with nothing printed
        to stdout; the error line."""
        rc = main([*GOODPUT_FAST, *flags])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        return captured.err

    def test_bad_failure_list_refused_before_output(self, capsys):
        err = self._refused(capsys, "--failures", "3,x")
        assert "error: --failures expects comma-separated integers" in err

    def test_empty_failure_entries_are_skipped(self, capsys):
        # `3,,5` parses like --kill-at does: the empty entry is skipped.
        rc = main([*GOODPUT_FAST, "--failures", "3,,5"])
        assert rc == 0
        assert "at iterations [3, 5] of 40" in capsys.readouterr().out

    def test_zero_iterations_refused(self, capsys):
        err = self._refused(capsys, "--iterations", "0")
        assert "error: --iterations must be > 0, got 0" in err

    def test_non_positive_min_interval_refused(self, capsys):
        err = self._refused(capsys, "--min-interval", "0")
        assert "error: --min-interval must be > 0" in err

    def test_non_positive_max_interval_refused(self, capsys):
        err = self._refused(capsys, "--max-interval", "-5")
        assert "error: --max-interval must be > 0" in err


CHAOS_FAST = ["chaos", "--iterations", "6", "--every", "2",
              "--backoff", "0.001"]


class TestChaos:
    def test_kill_and_resume_bit_exact(self, capsys):
        rc = main([*CHAOS_FAST, "--kill-at", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 restarts" in out
        assert "bit-exact vs uninterrupted run: losses=True  " \
               "parameters=True" in out

    def test_corrupt_newest_falls_back_and_exits_zero(self, capsys):
        rc = main([*CHAOS_FAST, "--kill-at", "5", "--corrupt", "4",
                   "--iterations", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 corrupted checkpoints skipped" in out
        assert "losses=True" in out

    def test_fast_smoke_defaults(self, capsys):
        rc = main(["chaos", "--fast", "--backoff", "0.001"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 kills, 1 corruptions, 1 transient save failures" in out
        assert "parameters=True" in out

    def test_permanent_kill_reshards(self, capsys):
        rc = main([*CHAOS_FAST, "--kill-at", "3", "--permanent"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[resharded]" in out
        assert "resharded resume vs single-rank reference" in out
        assert "losses=True" in out and "parameters=True" in out

    def test_trace_out_written(self, tmp_path, capsys):
        out = tmp_path / "chaos_trace.json"
        rc = main([*CHAOS_FAST, "--kill-at", "3", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "chaos.*" in text and "phase" in text

    def test_plan_file(self, tmp_path, capsys):
        from repro.resilience import ChaosPlan, Kill, SaveFailure

        plan = tmp_path / "plan.json"
        plan.write_text(ChaosPlan(
            kills=(Kill(at_iteration=3),),
            save_failures=(SaveFailure(at_iteration=2, times=1),),
        ).to_json())
        rc = main([*CHAOS_FAST, "--plan", str(plan)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 transient save retries" in out
        assert "losses=True" in out

    def test_checkpoint_dir_usable_after_run(self, tmp_path, capsys):
        from repro.parallel.checkpoint import (
            CheckpointStore,
            verify_checkpoint,
        )

        rc = main([*CHAOS_FAST, "--kill-at", "3",
                   "--dir", str(tmp_path)])
        assert rc == 0
        store = CheckpointStore(str(tmp_path))
        latest = store.latest_iteration()
        assert latest == 6
        verify_checkpoint(store.path_for(latest))

    def test_bad_kill_at_reports_error(self, capsys):
        rc = main([*CHAOS_FAST, "--kill-at", "three"])
        assert rc == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_bad_save_fail_reports_error(self, capsys):
        rc = main([*CHAOS_FAST, "--save-fail", "2:zero"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_plan_file_reports_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text("{broken")
        rc = main([*CHAOS_FAST, "--plan", str(plan)])
        assert rc == 2
        assert "unparseable" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"kills": 3}', '{"kills": null}'])
    def test_plan_key_that_is_not_a_list_reports_error(self, tmp_path,
                                                        capsys, text):
        plan = tmp_path / "plan.json"
        plan.write_text(text)
        rc = main([*CHAOS_FAST, "--plan", str(plan)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: --plan: kills must be a list")

    def test_invalid_parallel_reports_error(self, capsys):
        rc = main([*CHAOS_FAST, "-p", "3"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestVerify:
    def test_fast_suite_passes(self, capsys):
        rc = main(["verify", "--fast"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verification PASSED" in out
        for section in ("schedules", "sanitizer", "conformance",
                        "conservation", "chaos", "serve", "serve-chaos"):
            assert section in out

    def test_only_serve_section(self, capsys):
        rc = main(["verify", "--fast", "--only", "serve"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cached-decode-oracle-grid" in out
        assert "[ok] conformance" not in out  # other sections skipped

    def test_only_serve_chaos_section(self, capsys):
        rc = main(["verify", "--fast", "--only", "serve-chaos"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "crash-recovery-grid" in out
        assert "exhaustion-overload" in out
        assert "faulted-replay" in out
        assert "[ok] conformance" not in out  # other sections skipped

    def test_only_chaos_section(self, capsys):
        rc = main(["verify", "--fast", "--only", "chaos"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bit-exact-resume" in out and "corrupt-fallback" in out
        assert "[ok] conformance" not in out  # other sections skipped

    def test_single_case(self, capsys):
        rc = main(["verify", "--case",
                   "p=2,t=1,d=2,v=1,b=1,m=2,schedule=1f1b,seed=5"])
        assert rc == 0
        assert "conformance: 1 checks" in capsys.readouterr().out

    def test_only_section(self, capsys):
        rc = main(["verify", "--fast", "--only", "schedules"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "schedules" in out and "conformance" not in out

    @pytest.mark.parametrize("mode", [
        "reorder", "collective-shape", "grad-perturb", "frozen-lr",
        "short-hop", "unchecked-digest", "kv-offset", "early-draw",
    ])
    def test_injected_mutations_exit_nonzero_with_repro(self, mode, capsys):
        rc = main(["verify", "--inject", mode, "--fast"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "verification FAILED" in out
        assert "python -m repro verify" in out or "rank" in out

    def test_kv_offset_prints_seeded_repro_string(self, capsys):
        rc = main(["verify", "--inject", "kv-offset", "--seed", "5",
                   "--fast"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "paged-kv-batch-roundtrip" in out
        assert "repro: python -m repro verify --inject kv-offset --seed 5" in out

    def test_grad_perturb_prints_seeded_repro_string(self, capsys):
        rc = main(["verify", "--inject", "grad-perturb", "--seed", "5",
                   "--fast"])
        assert rc == 1
        lines = {line.strip() for line in capsys.readouterr().out.splitlines()
                 if line.strip().startswith("repro: ")}
        assert lines == {
            "repro: python -m repro verify --inject grad-perturb --seed 5"}
        # the printed repro reproduces the failure
        argv = lines.pop().split()[4:]  # after "repro: python -m repro"
        assert main(argv) == 1

    @pytest.mark.parametrize("argv", [
        ["--only", "serve", "--inject", "reorder"],
        ["--only", "chaos", "--case", "p=2,d=2,m=2"],
        ["--case", "p=2,d=2,m=2", "--configs", "3"],
    ])
    def test_conflicting_flags_report_error(self, argv, capsys):
        rc = main(["verify", "--fast", *argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert all(flag in err for flag in argv if flag.startswith("--"))

    def test_schedule_json_conflicting_with_inject_reports_error(
            self, tmp_path, capsys):
        fixture = tmp_path / "schedule.json"
        fixture.write_text("{}")
        rc = main(["verify", "--schedule-json", str(fixture),
                   "--inject", "kv-offset"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--schedule-json" in err and "--inject kv-offset" in err

    def test_corrupted_schedule_fixture_exits_nonzero(self, tmp_path,
                                                      capsys):
        from dataclasses import replace

        from repro.schedule import make_schedule
        from repro.verify import schedule_to_json

        schedule = make_schedule("gpipe", 2, 2)
        ops = list(schedule.ops)
        ops[0] = ops[0][:-1]  # drop rank 0's final backward
        fixture = tmp_path / "bad_schedule.json"
        fixture.write_text(
            schedule_to_json(replace(schedule, ops=tuple(ops)))
        )
        rc = main(["verify", "--fast", "--schedule-json", str(fixture)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "fixture" in out and "verification FAILED" in out

    def test_unparseable_schedule_fixture_exits_nonzero(self, tmp_path,
                                                        capsys):
        fixture = tmp_path / "garbage.json"
        fixture.write_text("{not json")
        rc = main(["verify", "--fast", "--schedule-json", str(fixture)])
        assert rc == 1
        assert "unparseable" in capsys.readouterr().out

    def test_missing_fixture_reports_error(self, tmp_path, capsys):
        rc = main(["verify", "--schedule-json",
                   str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_case_reports_error(self, capsys):
        rc = main(["verify", "--case", "p=2,bogus=1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_case_value_reports_error(self, capsys):
        rc = main(["verify", "--case", "p=0"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_inject_mode_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["verify", "--inject", "bitflip"])


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("name", ["bench", "report"])
    def test_deleted_subcommands_are_unknown(self, name):
        with pytest.raises(SystemExit) as exc:
            main([name])
        assert exc.value.code == 2

    def test_docstring_lists_exactly_the_registered_subcommands(self):
        documented = set(re.findall(r"^- ``(\w+)``", repro.cli.__doc__, re.M))
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert documented == set(sub.choices)


def tiny_trace(tmp_path):
    """A small ``repro trace`` argv; ``--out`` keeps the Chrome trace
    under ``tmp_path`` (the default is ``./trace.json``)."""
    return ["trace", "--layers", "4", "--hidden", "32", "--heads", "4",
            "--vocab", "64", "--seq", "16", "-p", "2", "--batch", "4",
            "--out", str(tmp_path / "trace.json")]


class TestMetricsOutUnified:
    """Every tracing subcommand shares ``--metrics-out`` and its schema."""

    def _check(self, path):
        import json as _json
        m = _json.loads(path.read_text())
        assert set(m) == {"counters", "gauges", "histograms"}
        return m

    def test_trace_metrics_out_alias(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        rc = main([*tiny_trace(tmp_path), "--metrics-out", str(metrics)])
        assert rc == 0
        m = self._check(metrics)
        assert "throughput.mfu" in m["gauges"]

    def test_trace_metrics_prefix_still_accepted(self, tmp_path, capsys):
        # ``--metrics`` is no longer a spelling of its own; argparse's
        # prefix matching still takes it for ``--metrics-out``.
        metrics = tmp_path / "m.json"
        rc = main([*tiny_trace(tmp_path), "--metrics", str(metrics)])
        assert rc == 0
        assert f"wrote {metrics}" in capsys.readouterr().out
        assert "throughput.mfu" in self._check(metrics)["gauges"]

    def test_goodput_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        rc = main([*GOODPUT_FAST, "--metrics-out", str(metrics)])
        assert rc == 0
        self._check(metrics)

    def test_chaos_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        rc = main(["chaos", "--fast", "--backoff", "0.001",
                   "--metrics-out", str(metrics)])
        assert rc == 0
        m = self._check(metrics)
        assert "throughput.mfu" in m["gauges"]
        assert "mem.activations.bytes" in m["gauges"]


class TestTraceProfile:
    def test_profile_and_folded(self, tmp_path, capsys):
        folded = tmp_path / "trace.folded"
        rc = main([*tiny_trace(tmp_path), "--profile", "--top", "5",
                   "--folded", str(folded)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "self%" in out  # the hot-path table rendered
        lines = folded.read_text().strip().splitlines()
        assert lines
        for line in lines:
            path_part, value = line.rsplit(" ", 1)
            assert ";" in path_part
            assert int(value) >= 0


class TestChaosRunlog:
    def _run(self, tmp_path, extra=()):
        runs = tmp_path / "runs"
        rc = main(["chaos", "--fast", "--backoff", "0.001",
                   "--no-verify", "--runlog", str(runs), *extra])
        return rc, runs

    def test_runlog_written_and_advertised(self, tmp_path, capsys):
        rc, runs = self._run(tmp_path)
        assert rc == 0
        out = capsys.readouterr().out
        assert "run log:" in out
        assert (runs / "LATEST").exists()
        from repro.obs.runlog import RunRegistry, read_events

        registry = RunRegistry(str(runs))
        events = read_events(registry.events_path(registry.latest()))
        types = {e["type"] for e in events}
        assert {"run-start", "iteration", "heartbeat", "fault",
                "recovery", "checkpoint", "run-end"} <= types
        assert events[-1]["status"] == "completed"

    def test_monitor_flag_prints_scoreboard(self, tmp_path, capsys):
        rc, _ = self._run(tmp_path, ["--monitor"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "detector scoreboard: 3 injected faults" in out
        assert "heartbeat-gap" in out and "checkpoint" in out
        assert "[loss-spike]" not in out  # no spike injected

    def test_monitor_requires_runlog(self, capsys):
        rc = main(["chaos", "--fast", "--backoff", "0.001",
                   "--no-verify", "--monitor"])
        assert rc == 2
        assert "--runlog" in capsys.readouterr().err

    def test_loss_spike_and_stall_flags(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        rc = main(["chaos", "--iterations", "8", "--every", "2",
                   "--backoff", "0.001", "--no-verify",
                   "--loss-spike", "5", "--stall", "3,6:1",
                   "--runlog", str(runs), "--monitor"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 loss spikes, 2 stalls" in out
        assert "[loss-spike]" in out
        assert "[throughput-collapse]" in out
        assert "[straggler]" in out

    def test_telemetry_faults_keep_bit_exactness(self, tmp_path, capsys):
        # Spikes/stalls perturb only *reported* metrics: the verified
        # run must still match the uninterrupted reference bit-for-bit.
        runs = tmp_path / "runs"
        rc = main(["chaos", "--iterations", "6", "--every", "2",
                   "--backoff", "0.001", "--loss-spike", "3",
                   "--stall", "4", "--runlog", str(runs)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bit-exact vs uninterrupted run: losses=True  " \
               "parameters=True" in out


class TestMonitorCLI:
    def _chaos_runlog(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        rc = main(["chaos", "--fast", "--backoff", "0.001",
                   "--no-verify", "--runlog", str(runs)])
        assert rc == 0
        capsys.readouterr()
        return str(runs)

    def _trace_runlog(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        rc = main([*tiny_trace(tmp_path), "--runlog", str(runs)])
        assert rc == 0
        capsys.readouterr()
        return str(runs)

    def test_check_exits_nonzero_on_unacked_critical(self, tmp_path,
                                                     capsys):
        runs = self._chaos_runlog(tmp_path, capsys)
        rc = main(["monitor", "--runs", runs, "--check"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "critical" in captured.out
        assert "unacknowledged critical alerts" in captured.err
        assert "--ack DETECTOR" in captured.err

    def test_check_passes_once_acknowledged(self, tmp_path, capsys):
        runs = self._chaos_runlog(tmp_path, capsys)
        rc = main(["monitor", "--runs", runs, "--check",
                   "--ack", "heartbeat-gap", "--ack", "checkpoint"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 critical unacknowledged" in out
        assert "[ack]" in out  # acked criticals are labelled

    def test_check_clean_run_exits_zero(self, tmp_path, capsys):
        runs = self._trace_runlog(tmp_path, capsys)
        rc = main(["monitor", "--runs", runs, "--check"])
        assert rc == 0
        assert "0 alerts" in capsys.readouterr().out

    def test_dashboard_renders_latest(self, tmp_path, capsys):
        runs = self._chaos_runlog(tmp_path, capsys)
        rc = main(["monitor", "--runs", runs])
        assert rc == 0
        out = capsys.readouterr().out
        assert "source=chaos" in out
        assert "loss" in out and "rank health:" in out
        assert "alerts:" in out

    def test_score_and_metrics_out(self, tmp_path, capsys):
        import json as _json

        runs = self._chaos_runlog(tmp_path, capsys)
        metrics = tmp_path / "m.json"
        rc = main(["monitor", "--runs", runs, "--score",
                   "--metrics-out", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "detector scoreboard" in out
        gauges = _json.loads(metrics.read_text())["gauges"]
        assert gauges["monitor.heartbeat-gap.recall"] == 1.0
        assert gauges["monitor.checkpoint.recall"] == 1.0
        assert gauges["monitor.faults"] == 3

    def test_list_and_gc(self, tmp_path, capsys):
        runs = self._trace_runlog(tmp_path, capsys)
        main([*tiny_trace(tmp_path), "--runlog", runs])
        capsys.readouterr()
        rc = main(["monitor", "--runs", runs, "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("completed") == 2
        assert "LATEST ->" in out
        rc = main(["monitor", "--runs", runs, "--gc", "1"])
        assert rc == 0
        assert "dropped 1 runs" in capsys.readouterr().out
        rc = main(["monitor", "--runs", runs, "--list"])
        assert rc == 0
        assert capsys.readouterr().out.count("completed") == 1

    def test_follow_terminates_on_finished_run(self, tmp_path, capsys):
        runs = self._trace_runlog(tmp_path, capsys)
        rc = main(["monitor", "--runs", runs, "--follow",
                   "--poll", "0.01"])
        assert rc == 0  # clean run: no unacked criticals

    def test_no_runs_reports_error(self, tmp_path, capsys):
        rc = main(["monitor", "--runs", str(tmp_path / "empty")])
        assert rc == 2
        assert "no runs under" in capsys.readouterr().err

    def test_unknown_run_reports_error(self, tmp_path, capsys):
        runs = self._trace_runlog(tmp_path, capsys)
        rc = main(["monitor", "--runs", runs, "ghost"])
        assert rc == 2
        assert "no run 'ghost'" in capsys.readouterr().err


class TestTraceRunlog:
    def test_engine_trace_writes_clean_runlog(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        rc = main([*tiny_trace(tmp_path), "--runlog", str(runs)])
        assert rc == 0
        assert "run log:" in capsys.readouterr().out
        from repro.obs.monitor import run_monitor
        from repro.obs.runlog import RunRegistry, read_events

        registry = RunRegistry(str(runs))
        events = read_events(registry.events_path(registry.latest()))
        monitor = run_monitor(events)
        assert monitor.alerts == []
        assert monitor.iterations == 1
        assert monitor.status == "completed"

    def test_raising_trace_ends_its_runlog_failed(self, tmp_path,
                                                  monkeypatch, capsys):
        from repro.parallel import PTDTrainer

        def crash(self, ids, targets):
            raise RuntimeError("trainer crashed")

        monkeypatch.setattr(PTDTrainer, "train_step", crash)
        runs = tmp_path / "runs"
        with pytest.raises(RuntimeError, match="trainer crashed"):
            main([*tiny_trace(tmp_path), "--runlog", str(runs)])
        assert last_event(runs) == ("run-end", "failed")

    def test_sim_trace_writes_runlog(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        rc = main([*tiny_trace(tmp_path), "--mode", "sim",
                   "--runlog", str(runs)])
        assert rc == 0
        from repro.obs.runlog import RunRegistry, manifest_of, read_events

        registry = RunRegistry(str(runs))
        events = read_events(registry.events_path(registry.latest()))
        assert manifest_of(events)["source"] == "sim"
        assert any(e["type"] == "iteration" for e in events)


def last_event(runs):
    """Type and status of the last event of the newest run under
    ``runs``."""
    from repro.obs.runlog import RunRegistry, read_events

    registry = RunRegistry(str(runs))
    event = read_events(registry.events_path(registry.latest()))[-1]
    return event["type"], event.get("status")


class TestServeCLI:
    SERVE = ["serve", "--requests", "5", "--rate", "0.8", "--seed", "1"]

    def test_smoke_exits_zero_with_metrics(self, tmp_path, capsys):
        import json as _json

        metrics = tmp_path / "serve.json"
        rc = main([*self.SERVE, "--smoke", "--metrics-out", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "ttft" in out
        assert "0 violations" in out
        from repro.serve import validate_serve_metrics

        report = _json.loads(metrics.read_text())
        assert validate_serve_metrics(report) == []
        assert report["aggregate"]["num_requests"] == 5

    def test_trace_replay_reproduces_metrics(self, tmp_path, capsys):
        import json as _json

        trace = tmp_path / "trace.json"
        m1, m2 = tmp_path / "a.json", tmp_path / "b.json"
        rc = main([*self.SERVE, "--save-trace", str(trace),
                   "--metrics-out", str(m1)])
        assert rc == 0
        rc = main(["serve", "--trace", str(trace),
                   "--metrics-out", str(m2)])
        assert rc == 0
        capsys.readouterr()

        def stable(path):
            report = _json.loads(path.read_text())
            report["aggregate"].pop("wall_seconds")
            report["aggregate"].pop("tokens_per_s")
            return report

        assert stable(m1) == stable(m2)

    def test_runlog_records_request_lifecycle(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        rc = main([*self.SERVE, "--runlog", str(runs)])
        assert rc == 0
        assert "run log:" in capsys.readouterr().out
        from repro.obs.runlog import RunRegistry, manifest_of, read_events

        registry = RunRegistry(str(runs))
        events = read_events(registry.events_path(registry.latest()))
        assert manifest_of(events)["source"] == "serve"
        phases = {e["phase"] for e in events if e["type"] == "request"}
        assert {"arrive", "admit", "first-token", "finish"} <= phases
        assert last_event(runs) == ("run-end", "completed")

    def test_raising_run_ends_its_runlog_failed(self, tmp_path, monkeypatch,
                                                capsys):
        # Without run-end, `monitor --list` would show the run as
        # running forever and `monitor --follow` would never return.
        from repro.serve import ServeEngine

        def crash(self, trace):
            raise RuntimeError("engine crashed")

        monkeypatch.setattr(ServeEngine, "run", crash)
        runs = tmp_path / "runs"
        with pytest.raises(RuntimeError, match="engine crashed"):
            main([*self.SERVE, "--runlog", str(runs)])
        assert last_event(runs) == ("run-end", "failed")
        capsys.readouterr()
        assert main(["monitor", "--runs", str(runs), "--list"]) == 0
        assert " failed " in capsys.readouterr().out
        assert main(["monitor", "--runs", str(runs), "--follow",
                     "--poll", "0.01"]) == 0

    def test_chaos_smoke_recovers_and_matches_oracle(self, capsys):
        rc = main([*self.SERVE, "--smoke", "--chaos", "--blocks", "6",
                   "--deadline", "64", "--ttl", "32", "--max-queue", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chaos: 1 crashes, 1 corruptions, 1 exhaustion storms" in out
        assert "per-block checksums on" in out
        assert "0 violations" in out
        assert "outcomes: completed=5" in out

    def test_chaos_plan_file_round_trips(self, tmp_path, capsys):
        from repro.resilience import DecodeCrash, ServeChaosPlan

        plan = tmp_path / "plan.json"
        plan.write_text(
            ServeChaosPlan(crashes=(DecodeCrash(at_step=1),)).to_json()
        )
        rc = main([*self.SERVE, "--smoke", "--chaos-plan", str(plan)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chaos: 1 crashes, 0 corruptions, 0 exhaustion storms" in out
        assert "retries=1" in out

    def test_unparseable_chaos_plan_exits_two(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text("{broken")
        rc = main([*self.SERVE, "--chaos-plan", str(plan)])
        assert rc == 2
        assert "unparseable" in capsys.readouterr().err

    def test_overload_degrades_with_typed_outcomes(self, capsys):
        rc = main(["serve", "--requests", "12", "--rate", "3.0",
                   "--seed", "3", "--max-queue", "2", "--deadline", "8",
                   "--ttl", "3", "--shed", "edf", "--smoke"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rejected=" in out or "timeout=" in out
        assert "0 violations" in out

    def test_oversized_requests_report_error(self, capsys):
        rc = main([*self.SERVE, "--blocks", "1", "--block-size", "1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_trace_file_reports_error(self, tmp_path, capsys):
        rc = main(["serve", "--trace", str(tmp_path / "ghost.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# start-up: what the CLI imports before it runs a command
# ---------------------------------------------------------------------------

SUBCOMMANDS = sorted(next(
    a for a in build_parser()._actions
    if isinstance(a, argparse._SubParsersAction)).choices)

#: ``python -m repro`` in an interpreter where importing numpy fails.
WITHOUT_NUMPY = ("import runpy, sys; sys.modules['numpy'] = None; "
                 "sys.argv = ['repro', *sys.argv[1:]]; "
                 "runpy.run_module('repro', run_name='__main__')")


def python(*argv):
    """A fresh interpreter on this checkout's ``src``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.cli.__file__)))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)


class TestStartup:
    """``--help``, argument errors and run-log reading must not pay for
    numpy, the trainer or the simulator."""

    @pytest.mark.parametrize("argv", [[], *([c] for c in SUBCOMMANDS)],
                             ids=["repro", *SUBCOMMANDS])
    def test_help_without_numpy(self, argv):
        proc = python("-c", WITHOUT_NUMPY, *argv, "--help")
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.startswith("usage: repro")

    def test_argument_error_without_numpy(self):
        proc = python("-c", WITHOUT_NUMPY, "simulate", "--layers", "four")
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert "invalid int value: 'four'" in proc.stderr

    def test_monitor_reads_a_chaos_log_without_numpy(self, tmp_path,
                                                     capsys):
        runs = str(tmp_path / "runs")
        assert main(["chaos", "--fast", "--backoff", "0.001", "--no-verify",
                     "--runlog", runs]) == 0
        listed = python("-c", WITHOUT_NUMPY, "monitor", "--runs", runs,
                        "--list")
        assert listed.returncode == 0, listed.stderr[-2000:]
        assert " completed " in listed.stdout
        checked = python("-c", WITHOUT_NUMPY, "monitor", "--runs", runs,
                         "--check")
        assert checked.returncode == 1, checked.stderr[-2000:]
        assert "unacknowledged critical alerts" in checked.stderr

    def test_importing_the_cli_loads_few_repro_modules(self):
        proc = python("-c", "import json, sys; import repro.cli; "
                            "print(json.dumps(sorted(sys.modules)))")
        assert proc.returncode == 0, proc.stderr[-2000:]
        loaded = json.loads(proc.stdout)
        ours = [m for m in loaded if m == "repro" or m.startswith("repro.")]
        assert len(ours) <= 10, ours
        assert "numpy" not in loaded
