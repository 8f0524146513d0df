"""End-to-end tests for the pmtree CLI."""

import pytest

from repro.cli import main


@pytest.fixture
def mapping_file(tmp_path):
    path = tmp_path / "m.npz"
    assert main(["build", "--levels", "10", "--color", "5,2", "--out", str(path)]) == 0
    return path


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "t.npz"
    code = main(
        ["trace", "heap", "--levels", "10", "--ops", "60", "--out", str(path)]
    )
    assert code == 0
    return path


class TestBuild:
    def test_build_labeltree(self, tmp_path, capsys):
        out = tmp_path / "lt.npz"
        assert main(["build", "--levels", "9", "--labeltree", "15", "--out", str(out)]) == 0
        assert "LabelTreeMapping" in capsys.readouterr().out
        assert out.exists()

    def test_build_bad_color_spec(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["build", "--levels", "9", "--color", "five", "--out", str(tmp_path / "x")])


class TestInfo:
    def test_info_prints_summary(self, mapping_file, capsys):
        assert main(["info", str(mapping_file)]) == 0
        out = capsys.readouterr().out
        assert "ColorMapping" in out
        assert "M=6" in out
        assert "load" in out


class TestVerify:
    def test_verify_cf_families_exit_zero(self, mapping_file, capsys):
        code = main(["verify", str(mapping_file), "--subtree", "3", "--path", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("conflict-free") == 2

    def test_verify_flags_conflicts(self, mapping_file, capsys):
        code = main(["verify", str(mapping_file), "--level", "3"])
        assert code == 2
        assert "max 1 conflicts" in capsys.readouterr().out

    def test_verify_requires_a_family(self, mapping_file):
        with pytest.raises(SystemExit):
            main(["verify", str(mapping_file)])

    def test_verify_skips_oversized_families(self, mapping_file, capsys):
        assert main(["verify", str(mapping_file), "--path", "30", "--subtree", "3"]) == 0
        assert "skipped" in capsys.readouterr().out


class TestTraceAndSimulate:
    def test_trace_workloads(self, tmp_path, capsys):
        for workload in ("heap", "range-query", "scan"):
            out = tmp_path / f"{workload}.npz"
            assert main(
                ["trace", workload, "--levels", "9", "--ops", "30", "--out", str(out)]
            ) == 0
            assert out.exists()

    @pytest.mark.parametrize("mode", ["barrier", "pipelined", "open-loop"])
    def test_simulate_modes(self, mapping_file, trace_file, capsys, mode):
        code = main(["simulate", str(mapping_file), str(trace_file), "--mode", mode])
        assert code == 0
        out = capsys.readouterr().out
        assert "TraceStats" in out
        assert "items/cycle" in out

    def test_cf_mapping_simulates_without_conflicts(
        self, mapping_file, trace_file, capsys
    ):
        main(["simulate", str(mapping_file), str(trace_file)])
        assert "conflicts total=0" in capsys.readouterr().out


class TestObs:
    @pytest.fixture
    def artifact(self, mapping_file, trace_file, tmp_path, capsys):
        path = tmp_path / "obs.jsonl"
        assert main(
            ["obs", "record", str(mapping_file), str(trace_file), "--out", str(path)]
        ) == 0
        capsys.readouterr()
        return path

    def test_simulate_obs_flag_writes_artifact(
        self, mapping_file, trace_file, tmp_path, capsys
    ):
        out = tmp_path / "sim.jsonl"
        code = main(
            ["simulate", str(mapping_file), str(trace_file), "--obs", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "wrote telemetry" in capsys.readouterr().out

    def test_simulate_without_obs_output_unchanged(
        self, mapping_file, trace_file, tmp_path, capsys
    ):
        """The --obs flag must not perturb the simulation it observes."""
        main(["simulate", str(mapping_file), str(trace_file)])
        plain = capsys.readouterr().out
        main(["simulate", str(mapping_file), str(trace_file),
              "--obs", str(tmp_path / "o.jsonl")])
        observed = capsys.readouterr().out
        assert observed.startswith(plain)

    def test_record_all_modes(self, mapping_file, trace_file, tmp_path, capsys):
        for mode in ("barrier", "pipelined", "open-loop"):
            out = tmp_path / f"{mode}.jsonl"
            code = main(
                ["obs", "record", str(mapping_file), str(trace_file),
                 "--out", str(out), "--mode", mode]
            )
            assert code == 0
            assert out.exists()

    def test_report_renders_sections(self, artifact, capsys):
        assert main(["obs", "report", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "module utilization" in out
        assert "queue depth: p50=" in out

    def test_diff_self_passes(self, artifact, capsys):
        code = main(["obs", "diff", str(artifact), str(artifact),
                     "--max-conflict-growth", "0"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_diff_flags_injected_regression(
        self, artifact, trace_file, tmp_path, capsys
    ):
        worse = tmp_path / "worse-mapping.npz"
        main(["build", "--levels", "10", "--modulo", "6", "--out", str(worse)])
        bad = tmp_path / "bad.jsonl"
        main(["obs", "record", str(worse), str(trace_file), "--out", str(bad)])
        capsys.readouterr()
        code = main(["obs", "diff", str(artifact), str(bad),
                     "--max-conflict-growth", "0"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_export_chrome_trace(self, artifact, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert main(["obs", "export", str(artifact), "--out", str(out)]) == 0
        assert out.exists()
        assert "chrome://tracing" in capsys.readouterr().out


class TestProfileAndChart:
    def test_profile_prints_level_histogram(self, trace_file, capsys):
        assert main(["profile", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "TraceProfile" in out
        assert "level  0" in out
        assert "hottest node: 0" in out  # heap traces always touch the root

    def test_chart_single_mapping(self, mapping_file, capsys):
        assert main(["chart", str(mapping_file), "--kind", "path",
                     "--sizes", "4,6,8"]) == 0
        out = capsys.readouterr().out
        assert "worst-case conflicts" in out
        assert "|" in out

    def test_chart_versus(self, mapping_file, tmp_path, capsys):
        other = tmp_path / "lt.npz"
        main(["build", "--levels", "10", "--labeltree", "15", "--out", str(other)])
        capsys.readouterr()
        assert main(["chart", str(mapping_file), "--versus", str(other)]) == 0
        out = capsys.readouterr().out
        assert "o =" in out and "x =" in out


class TestFaultInjection:
    def test_simulate_static_faults(self, mapping_file, trace_file, capsys):
        code = main(
            ["simulate", str(mapping_file), str(trace_file),
             "--faults", "slow=1:3,failed=2", "--repair", "color"]
        )
        assert code == 0
        assert "TraceStats" in capsys.readouterr().out

    def test_simulate_timed_schedule_reports_drops(
        self, mapping_file, trace_file, capsys
    ):
        code = main(
            ["simulate", str(mapping_file), str(trace_file), "--mode", "pipelined",
             "--faults", "drop=0.2@0:500,seed=3"]
        )
        assert code == 0
        assert "dropped (and re-served)" in capsys.readouterr().out

    def test_simulate_faults_from_file(
        self, mapping_file, trace_file, tmp_path, capsys
    ):
        from repro.io import save_faults
        from repro.memory import FaultModel

        spec = tmp_path / "faults.json"
        save_faults(FaultModel(failed={2}), spec)
        code = main(
            ["simulate", str(mapping_file), str(trace_file),
             "--faults", f"@{spec}"]
        )
        assert code == 0
        assert "TraceStats" in capsys.readouterr().out

    def test_serve_with_fault_schedule(self, tmp_path, capsys):
        artifact = tmp_path / "serve.jsonl"
        code = main(
            ["serve", "--levels", "11", "--modules", "15", "--cycles", "400",
             "--arrival-rate", "0.3", "--clients", "1",
             "--workload", "composite:21x3=2,subtree:15=1",
             "--faults", "fail=3@40:240,drop=0.05@0:400,seed=7",
             "--repair", "color", "--retry-timeout", "16",
             "--obs", str(artifact)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resilience:" in out and "availability" in out
        assert artifact.exists()
        import json

        events = [json.loads(line) for line in artifact.read_text().splitlines()]
        kinds = {e.get("ev") for e in events}
        assert "fault_inject" in kinds

    def test_serve_lifts_static_faults(self, capsys):
        code = main(
            ["serve", "--levels", "11", "--modules", "15", "--cycles", "200",
             "--arrival-rate", "0.2", "--clients", "1",
             "--faults", "failed=2", "--repair", "oblivious"]
        )
        assert code == 0
        assert "availability 0." in capsys.readouterr().out

    def test_serve_that_can_never_drain_exits_with_one_line(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--cycles", "300", "--traffic", "bursty",
                  "--faults", "slow=3:2,failed=5"])
        message = exit_info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith("serving can never drain")


class TestPerfCommands:
    @pytest.fixture(scope="class")
    def trajectory(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("perf")
        record = [
            "perf", "record", "--scenario", "simulate",
            "--repeats", "1", "--out-dir", str(out),
        ]
        assert main(record) == 0
        assert main(record) == 0  # second session appends
        return out / "BENCH_simulate.json"

    def test_record_appends_to_trajectory(self, trajectory, capsys):
        from repro.obs.trajectory import PerfTrajectory

        assert trajectory.exists()
        assert len(PerfTrajectory.load(trajectory)) == 2

    def test_record_rejects_unknown_scenario(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["perf", "record", "--scenario", "bogus",
                  "--out-dir", str(tmp_path)])

    def test_report_renders_entries_and_phases(self, trajectory, capsys):
        assert main(["perf", "report", str(trajectory)]) == 0
        text = capsys.readouterr().out
        assert "perf trajectory 'simulate': 2 entries" in text
        assert "drain" in text
        assert "cycles/s" in text

    def test_diff_last_two_entries_passes(self, trajectory, capsys):
        code = main([
            "perf", "diff", str(trajectory),
            "--max-wall-growth", "5.0", "--max-throughput-drop", "0.9",
        ])
        assert code == 0
        assert "regression check: PASS" in capsys.readouterr().out

    def test_diff_flags_injected_regression(self, trajectory, tmp_path, capsys):
        import json

        from repro.obs.trajectory import PerfTrajectory

        slow = PerfTrajectory.load(trajectory).latest()
        slow.throughput["wall_time_s"] *= 10
        slow.throughput["cycles_per_sec"] /= 10
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(slow.to_json()))
        code = main([
            "perf", "diff", str(trajectory), str(candidate),
            "--max-wall-growth", "0.5", "--max-throughput-drop", "0.5",
        ])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_expose_trajectory_prometheus_text(self, trajectory, capsys):
        assert main(["perf", "expose", str(trajectory)]) == 0
        text = capsys.readouterr().out
        assert "# TYPE pmtree_perf_simulate_cycles_per_sec gauge" in text
        assert "# TYPE pmtree_perf_simulate_phase_drain_calls counter" in text

    def test_expose_telemetry_artifact(
        self, mapping_file, trace_file, tmp_path, capsys
    ):
        artifact = tmp_path / "obs.jsonl"
        assert main([
            "obs", "record", str(mapping_file), str(trace_file),
            "--out", str(artifact),
        ]) == 0
        capsys.readouterr()
        assert main(["perf", "expose", str(artifact)]) == 0
        text = capsys.readouterr().out
        assert "# TYPE pmtree_total_conflicts gauge" in text


class TestFleetCLI:
    FLEET = [
        "fleet", "--shards", "3", "--levels", "8", "--modules", "7",
        "--router", "least-loaded", "--cycles", "400",
        "--arrival-rate", "1.2", "--workload", "subtree:7=1,path:5=1",
        "--seed", "0",
    ]

    def test_plain_fleet_run(self, capsys):
        assert main(self.FLEET) == 0
        out = capsys.readouterr().out
        assert "exactly-once:" in out
        assert "self-heal" not in out

    def test_supervised_restart_prints_selfheal(self, tmp_path, capsys):
        assert main(self.FLEET + [
            "--kill-shard-at", "2@150", "--restart-after", "80",
            "--shard-state-dir", str(tmp_path / "state"),
            "--checkpoint-every", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "self-heal: rejoined shards [2]" in out
        assert "exactly-once:" in out
        assert (tmp_path / "state" / "config.json").exists()
        assert (tmp_path / "state" / "shard-2" / "journal.jsonl").exists()

    def test_crash_exits_9_and_recover_fleet_resumes(self, tmp_path, capsys):
        state = tmp_path / "state"
        argv = self.FLEET + [
            "--kill-shard-at", "2@150", "--restart-after", "80",
            "--shard-state-dir", str(state), "--checkpoint-every", "50",
        ]
        assert main(argv + ["--crash-at", "300"]) == 9
        assert "pmtree recover --fleet" in capsys.readouterr().out
        assert main(["recover", "--fleet", str(state)]) == 0
        out = capsys.readouterr().out
        assert "recovered fleet" in out
        assert "health ['alive', 'alive', 'alive']" in out
        assert "exactly-once:" in out

    def test_recovered_report_matches_uninterrupted_run(
        self, tmp_path, capsys
    ):
        argv = self.FLEET + [
            "--kill-shard-at", "2@150", "--restart-after", "80",
            "--checkpoint-every", "50",
        ]
        assert main(argv + ["--shard-state-dir", str(tmp_path / "a")]) == 0
        control = capsys.readouterr().out
        assert main(argv + [
            "--shard-state-dir", str(tmp_path / "b"), "--crash-at", "300",
        ]) == 9
        capsys.readouterr()
        assert main(["recover", "--fleet", str(tmp_path / "b")]) == 0
        recovered = capsys.readouterr().out
        tail = control[control.index("fleet["):]
        assert tail.strip() in recovered

    def test_recover_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["recover"])
        with pytest.raises(SystemExit, match="exactly one"):
            main([
                "recover", "--state-dir", str(tmp_path),
                "--fleet", str(tmp_path),
            ])
        with pytest.raises(SystemExit, match="config.json"):
            main(["recover", "--fleet", str(tmp_path)])

    def test_crash_at_requires_state_dir(self):
        with pytest.raises(SystemExit, match="--shard-state-dir"):
            main(self.FLEET + ["--crash-at", "10"])
        with pytest.raises(SystemExit, match="--shard-state-dir"):
            main(self.FLEET + ["--crash-at", "10", "--restart-after", "50"])
