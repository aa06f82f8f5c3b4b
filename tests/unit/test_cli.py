"""Unit tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENT_INDEX, build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_top_is_not_a_command(self):
        # The live dashboard is `repro campaign --live`.
        with pytest.raises(SystemExit) as info:
            main(["top"])
        assert info.value.code == 2


class TestTables:
    def test_renders_both_tables_and_verdict(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "matches the paper's Table 2 exactly" in out


class TestTechniques:
    def test_lists_all_seventeen(self, capsys):
        assert main(["techniques"]) == 0
        out = capsys.readouterr().out
        assert "N-version programming" in out
        assert "Reboot and micro-reboot" in out
        assert out.count("intention:") == 17


class TestExperiments:
    def test_lists_all_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for eid, _, bench in EXPERIMENT_INDEX:
            assert bench in out
        assert len(EXPERIMENT_INDEX) == 31

    def test_index_ids_are_unique(self):
        ids = [eid for eid, _, _ in EXPERIMENT_INDEX]
        assert len(set(ids)) == len(ids)


class TestRecommend:
    def test_heisenbug_low_budget(self, capsys):
        assert main(["recommend", "heisenbug", "--budget", "low"]) == 0
        out = capsys.readouterr().out
        assert "1." in out
        # Opportunistic environment techniques lead under a low budget.
        first_line = [l for l in out.splitlines() if l.startswith("1.")][0]
        assert "opportunistic" in first_line

    def test_malicious(self, capsys):
        assert main(["recommend", "malicious"]) == 0
        out = capsys.readouterr().out
        assert "Process replicas" in out

    def test_invalid_fault_rejected(self):
        with pytest.raises(SystemExit):
            main(["recommend", "gremlins"])

    def test_top_limits_output(self, capsys):
        main(["recommend", "development", "--top", "2"])
        out = capsys.readouterr().out
        assert "3." not in out


class TestLintCommand:
    def test_help_smoke(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["lint", "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--format", "--fail-on", "--baseline",
                     "--write-baseline", "--select",
                     "--diversity-threshold"):
            assert flag in out

    def test_requires_paths(self):
        with pytest.raises(SystemExit):
            main(["lint"])


class TestDemo:
    def test_demo_reports_reliability(self, capsys):
        assert main(["demo", "--versions", "3",
                     "--failure-rate", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "3-version programming" in out
        assert "voted system reliability" in out

    def test_demo_is_seeded(self, capsys):
        main(["demo", "--seed", "42"])
        first = capsys.readouterr().out
        main(["demo", "--seed", "42"])
        second = capsys.readouterr().out
        assert first == second


class TestCampaignCommand:
    def test_matrix_rendered(self, capsys):
        assert main(["campaign", "--requests", "30"]) == 0
        out = capsys.readouterr().out
        assert "N-version (3)" in out
        assert "unprotected" in out
        assert "Bohrbug" in out

    def test_deterministic_given_seed(self, capsys):
        main(["campaign", "--requests", "30", "--seed", "5"])
        first = capsys.readouterr().out
        main(["campaign", "--requests", "30", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_workers_match_serial(self, capsys):
        main(["campaign", "--requests", "30", "--seed", "5"])
        serial = capsys.readouterr().out
        main(["campaign", "--requests", "30", "--seed", "5",
              "--workers", "3"])
        assert capsys.readouterr().out == serial

    def test_campaign_json_format(self, capsys):
        import json

        assert main(["campaign", "--requests", "20", "--seed", "5",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-campaign-report/v1"
        assert doc["sli"]["schema"] == "repro-sli-report/v2"
        assert {"protector", "fault", "survival_rate"} <= \
            doc["cells"][0].keys()


class TestShardedCampaignCLI:
    def _json_run(self, capsys, extra):
        code = main(["campaign", "--requests", "20", "--seed", "5",
                     "--format", "json"] + extra)
        return code, capsys.readouterr()

    def test_interrupt_then_resume_matches_cold(self, tmp_path, capsys):
        store = str(tmp_path / "ck.jsonl")
        code, interrupted = self._json_run(
            capsys, ["--shards", "4", "--store", store,
                     "--max-shards", "2"])
        assert code == 0
        assert "shards:" in interrupted.err
        # A truncated run has no complete grid, so no report.
        assert interrupted.out.strip() == ""
        code, resumed = self._json_run(
            capsys, ["--shards", "4", "--store", store, "--resume"])
        assert code == 0
        assert "served=2" in resumed.err
        code, cold = self._json_run(capsys, ["--shards", "4"])
        assert code == 0
        assert resumed.out == cold.out

    def test_resume_requires_a_store(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--requests", "20", "--shards", "2",
                  "--resume"])

    def test_gate_attaches_verdict_and_accepts(self, capsys):
        import json

        code, run = self._json_run(capsys, ["--gate"])
        assert code == 0
        verdict = json.loads(run.out)["verdict"]
        assert verdict["schema"] == "repro-campaign-verdict/v1"
        assert verdict["is_accepted"] is True
        assert "tests" in verdict["gates_passed"]

    def test_gate_renders_verdict_in_text(self, capsys):
        assert main(["campaign", "--requests", "20", "--seed", "5",
                     "--gate"]) == 0
        out = capsys.readouterr().out
        assert "campaign verdict" in out
        assert "ACCEPTED" in out

    def test_gate_rejects_on_baseline_drift(self, tmp_path, capsys):
        import json

        _, run = self._json_run(capsys, [])
        baseline = json.loads(run.out)
        baseline["sli"]["techniques"][0]["outcomes_seen"] += 7
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline), encoding="utf-8")
        code, rejected = self._json_run(
            capsys, ["--gate", "--gate-baseline", str(path)])
        assert code == 3
        verdict = json.loads(rejected.out)["verdict"]
        assert "telemetry-drift" in verdict["gates_failed"]


class TestLiveDashboardCommands:
    LIVE = ["--interval", "0.05", "--frames", "2", "--format", "json"]

    def _frames(self, out):
        import json

        from repro.observe.stream import validate_frame

        frames = [json.loads(line) for line in out.strip().splitlines()]
        for frame in frames:
            validate_frame(frame)
        return frames

    def test_top_emits_valid_frames_floor(self, capsys):
        assert main(["campaign", "--live", "--requests", "8", "--seed", "3",
                     "--workers", "2", *self.LIVE]) == 0
        frames = self._frames(capsys.readouterr().out)
        # --frames is a floor, not a cap.
        assert len(frames) >= 2
        assert [f["seq"] for f in frames] == list(range(len(frames)))
        assert all(not f["final"] for f in frames[:-1])
        final = frames[-1]
        assert final["final"] is True
        assert final["cells"]["done"] == final["cells"]["total"]
        assert final["report"]["schema"] == "repro-campaign-report/v1"

    def test_live_final_report_matches_plain_campaign_json(self, capsys):
        import json

        base = ["--requests", "10", "--seed", "3", "--workers", "2"]
        assert main(["campaign", *base, "--format", "json"]) == 0
        plain = capsys.readouterr().out
        assert main(["campaign", *base, "--live", *self.LIVE]) == 0
        final = self._frames(capsys.readouterr().out)[-1]
        # The streamed run's canonical report is byte-identical to the
        # non-streaming path's output.
        assert json.dumps(final["report"], sort_keys=True, indent=2,
                          default=str) + "\n" == plain

    def test_flight_out_writes_validating_jsonl(self, tmp_path, capsys):
        from repro.observe.export.jsonl import validate_event_log

        path = tmp_path / "flight.jsonl"
        assert main(["campaign", "--live", "--requests", "8", "--seed", "3",
                     "--workers", "2", *self.LIVE,
                     "--flight-out", str(path)]) == 0
        header = validate_event_log(path.read_text())
        assert header["source"] == "flight-recorder"

    def test_top_leaves_no_session_installed(self, capsys):
        from repro import observe

        main(["campaign", "--live", "--requests", "4", "--seed", "3",
              *self.LIVE])
        assert observe.current().enabled is False

    def test_truncated_live_gated_run_has_no_report(self, tmp_path,
                                                    capsys):
        import json

        store = str(tmp_path / "ck.jsonl")
        base = ["campaign", "--requests", "10", "--seed", "3",
                "--shards", "4"]
        # Stopped after one of four shards: no report, so nothing for
        # the gate to accept.
        assert main([*base, "--store", store, "--max-shards", "1",
                     "--gate", "--live", *self.LIVE]) == 0
        run = capsys.readouterr()
        assert "truncated" in run.err
        final = self._frames(run.out)[-1]
        assert final["final"] is True and final["report"] is None
        # Resumed live, the final report is the cold run's bytes.
        assert main([*base, "--store", store, "--resume", "--live",
                     *self.LIVE]) == 0
        resumed = self._frames(capsys.readouterr().out)[-1]["report"]
        assert main([*base, "--format", "json"]) == 0
        cold = capsys.readouterr().out
        assert json.dumps(resumed, sort_keys=True, indent=2,
                          default=str) + "\n" == cold

    def test_flight_out_without_live(self, tmp_path, capsys):
        from repro.observe.export.jsonl import validate_event_log

        path = tmp_path / "flight.jsonl"
        assert main(["campaign", "--requests", "8", "--seed", "3",
                     "--format", "json", "--flight-out", str(path)]) == 0
        header = validate_event_log(path.read_text())
        assert header["source"] == "flight-recorder"

    def test_text_run_installs_no_session(self, monkeypatch, capsys):
        from repro import observe

        def refuse():
            raise AssertionError("telemetry-off path opened a session")

        monkeypatch.setattr(observe, "session", refuse)
        assert main(["campaign", "--requests", "4", "--seed", "3"]) == 0
        assert "correct-result rate" in capsys.readouterr().out


class TestTraceCommand:
    def test_trace_prints_timeline(self, capsys):
        assert main(["trace", "nvp", "--requests", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "scenario nvp" in out
        assert "pattern.execute" in out
        assert "unit.run" in out
        assert "adjudicate" in out

    def test_trace_limit_elides(self, capsys):
        main(["trace", "nvp", "--requests", "10", "--limit", "5"])
        assert "more spans" in capsys.readouterr().out

    def test_trace_exports_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.jsonl"
        main(["trace", "recovery-blocks", "--requests", "4",
              "--jsonl", str(path)])
        rows = [json.loads(line)
                for line in path.read_text().splitlines()]
        assert rows and {"name", "span_id", "attrs"} <= rows[0].keys()

    def test_trace_is_seeded(self, capsys):
        main(["trace", "microreboot", "--requests", "20", "--seed", "9"])
        first = capsys.readouterr().out
        main(["trace", "microreboot", "--requests", "20", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "nope"])

    def test_trace_leaves_no_session_installed(self):
        from repro import observe

        main(["trace", "nvp", "--requests", "2"])
        assert observe.current().enabled is False


class TestMetricsCommand:
    def test_metrics_prometheus_output(self, capsys):
        assert main(["metrics", "nvp", "--requests", "6"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_pattern_executions_total counter" in out
        assert 'repro_pattern_executions_total{pattern="nvp"} 18' in out

    def test_metrics_cover_recovery_counters(self, capsys):
        main(["metrics", "microreboot", "--requests", "40", "--seed", "2"])
        out = capsys.readouterr().out
        assert "repro_reboots_total" in out
        assert "repro_reboot_downtime_bucket" in out

    def test_metrics_json_format(self, capsys):
        import json

        assert main(["metrics", "nvp", "--requests", "6",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data['repro_pattern_executions_total{pattern="nvp"}'] == 18

    def test_metrics_openmetrics_format(self, capsys):
        assert main(["metrics", "microreboot", "--requests", "40",
                     "--seed", "2", "--format", "openmetrics"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("# EOF")
        assert "# TYPE repro_reboots counter" in out
        assert 'quantile="0.95"' in out


class TestTraceOutExport:
    def test_trace_out_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.observe.export import validate_chrome_trace

        path = tmp_path / "trace.json"
        assert main(["trace", "nvp", "--requests", "4",
                     "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        validate_chrome_trace(doc)
        assert doc["traceEvents"]
        assert "Chrome trace written" in capsys.readouterr().out

    def test_trace_out_unwritable_path_fails(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir" / "trace.json"
        assert main(["trace", "nvp", "--requests", "2",
                     "--out", str(missing)]) == 1
        assert "error" in capsys.readouterr().err


class TestReportCommand:
    def test_report_renders_sli_table(self, capsys):
        assert main(["report", "microreboot", "--requests", "40",
                     "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "per-technique SLIs" in out
        assert "avail" in out and "rec p50" in out
        assert "micro" in out

    def test_report_availability_and_percentiles_from_campaign(self,
                                                               capsys):
        assert main(["report", "all", "--requests", "30",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        # availability from unit outcomes...
        assert "nvp" in out
        # ...and recovery latency percentiles from recovery events.
        assert "micro" in out

    def test_report_json_format(self, capsys):
        import json

        assert main(["report", "nvp", "--requests", "10",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sli"]["schema"] == "repro-sli-report/v2"
        rows = {row["technique"]: row for row in doc["sli"]["techniques"]}
        assert rows["nvp"]["availability"] is not None
        assert rows["nvp"]["throughput"] is not None
        # JSON documents carry no wall clock: the bytes are a pure
        # function of (scenario, requests, seed) at any worker count.
        assert doc["sli"]["trials_per_sec"] is None
        assert doc["sli"]["wall_span"] is None
        assert doc["scenarios"][0]["scenario"] == "nvp"

    def test_report_window_flag(self, capsys):
        assert main(["report", "nvp", "--requests", "10",
                     "--window", "4"]) == 0
        assert "window=4" in capsys.readouterr().out

    def test_report_exports_artifacts(self, tmp_path, capsys):
        import json

        from repro.observe.export import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.om.txt"
        assert main(["report", "checkpoint", "--requests", "10",
                     "--trace-out", str(trace_path),
                     "--metrics-out", str(metrics_path)]) == 0
        validate_chrome_trace(json.loads(trace_path.read_text()))
        assert metrics_path.read_text().rstrip().endswith("# EOF")

    def test_report_workers_match_serial(self, capsys):
        assert main(["report", "all", "--requests", "20", "--seed", "5",
                     "--format", "json"]) == 0
        serial = capsys.readouterr().out
        assert main(["report", "all", "--requests", "20", "--seed", "5",
                     "--format", "json", "--workers", "2",
                     "--backend", "process"]) == 0
        assert capsys.readouterr().out == serial

    def test_report_leaves_no_session_installed(self):
        from repro import observe

        main(["report", "nvp", "--requests", "2"])
        assert observe.current().enabled is False
