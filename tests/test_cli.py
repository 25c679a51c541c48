"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main


#: The only shard of a one-worker checkpointed run.
SHARD0 = "shards/shard-0000"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


SMALL = ["--devices", "2", "--months", "2", "--measurements", "100"]


class TestCommands:
    def test_table1(self, capsys):
        code, out = run_cli(capsys, "table1", *SMALL)
        assert code == 0
        assert "WCHD" in out and "AVG." in out

    def test_compare(self, capsys):
        code, out = run_cli(capsys, "compare", *SMALL)
        assert code == 0
        assert "Paper" in out and "Measured" in out

    def test_fig6(self, capsys):
        code, out = run_cli(capsys, "fig6", "--metric", "WCHD", *SMALL)
        assert code == 0
        assert "month  0" in out and "month  2" in out

    def test_fig6_save(self, capsys, tmp_path):
        path = str(tmp_path / "campaign.json")
        code, out = run_cli(capsys, "fig6", "--save", path, *SMALL)
        assert code == 0
        from repro.io.resultstore import load_campaign

        assert load_campaign(path).months == 2

    def test_fig6_workers_flag_matches_serial_artifact(self, capsys, tmp_path):
        serial = str(tmp_path / "serial.json")
        parallel = str(tmp_path / "parallel.json")
        code, _ = run_cli(capsys, "fig6", "--save", serial, *SMALL)
        assert code == 0
        code, _ = run_cli(
            capsys, "fig6", "--workers", "2", "--save", parallel, *SMALL
        )
        assert code == 0
        with open(serial, "rb") as a, open(parallel, "rb") as b:
            assert a.read() == b.read()

    def test_workers_must_be_positive(self, capsys):
        code = main(["fig6", "--workers", "0", *SMALL])
        captured = capsys.readouterr()
        assert code == 2
        assert "max_workers" in captured.err

    def test_calibrate(self, capsys):
        code, out = run_cli(capsys, "calibrate")
        assert code == 0
        assert "skew sigma" in out
        assert "62.700%" in out

    def test_accelerated(self, capsys):
        code, out = run_cli(
            capsys, "accelerated", "--devices", "2", "--months", "6"
        )
        assert code == 0
        assert "monthly rate" in out

    def test_fig6_save_writes_manifest(self, capsys, tmp_path):
        path = str(tmp_path / "campaign.json")
        code, out = run_cli(capsys, "fig6", "--save", path, *SMALL)
        assert code == 0
        from repro.io.jsonstore import load_manifest
        from repro.telemetry import manifest_path_for

        manifest = load_manifest(manifest_path_for(path))
        assert manifest.config["device_count"] == 2
        assert "campaign" in manifest.phases


PROFILE_SMALL = [
    "profile", "--devices", "2", "--months", "2",
    "--measurements", "100", "--cycles", "2",
]


class TestTelemetryCli:
    def test_profile_prints_spans_and_metrics(self, capsys):
        code, out = run_cli(capsys, *PROFILE_SMALL)
        assert code == 0
        # span tree with the per-phase timings
        assert "== span tree ==" in out
        assert "assessment.run" in out
        assert "campaign.month" in out
        assert "keygen.enroll" in out
        # metrics table with the catalogue's headline counters
        assert "== metrics ==" in out
        assert "campaign.powerups" in out
        assert "scheduler.events" in out
        assert "keygen.decode_failures" in out
        assert "trng.health_checks" in out

    def test_trace_json_written_and_parseable(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "trace.json")
        code, out = run_cli(
            capsys, "--trace-json", path, "table1", *SMALL
        )
        assert code == 0
        assert f"trace written to {path}" in out
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        names = [span["name"] for span in doc["spans"]]
        assert "assessment.run" in names
        for span in doc["spans"]:
            assert span["wall_s"] >= 0.0

    def test_trace_chrome_written_and_parseable(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "trace.chrome.json")
        code, out = run_cli(
            capsys, "--trace-chrome", path, "table1", *SMALL
        )
        assert code == 0
        assert f"chrome trace written to {path}" in out
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["otherData"]["format"] == "repro-trace-chrome"
        # run_id doubles as the trace id on real runs.
        assert doc["otherData"]["trace_id"]
        names = {event["name"] for event in doc["traceEvents"]}
        assert "assessment.run" in names
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert "span_id" in event["args"]

    def test_profile_prints_phase_table(self, capsys):
        code, out = run_cli(capsys, *PROFILE_SMALL)
        assert code == 0
        assert "== phases (campaign hot path) ==" in out
        for phase in ("noise_draw", "powerup", "aging", "metrics"):
            assert phase in out
        assert "% cpu" in out

    def test_profile_honors_workers_flag(self, capsys):
        code, out = run_cli(capsys, *PROFILE_SMALL, "--workers", "2")
        assert code == 0
        # The tree shows the workers' spans grafted under each month,
        # and the same phase attribution merged back from the workers.
        assert "campaign.month" in out
        assert "worker.board" in out
        assert "board.age" in out
        assert "noise_draw" in out

    def test_verbose_flag_accepted(self, capsys):
        code, _ = run_cli(capsys, "-v", "calibrate")
        assert code == 0

    def test_very_verbose_flag_accepted(self, capsys):
        code, _ = run_cli(capsys, "-vv", "calibrate")
        assert code == 0


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_metric_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--metric", "bogus"])

    @pytest.mark.parametrize("command", ["run", "profile"])
    def test_kernel_flag_no_longer_exists(self, command):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--kernel", "vector"])
        assert excinfo.value.code == 2


class TestMonitorCli:
    def _saved_campaign(self, capsys, tmp_path):
        path = str(tmp_path / "campaign.json")
        code, _ = run_cli(capsys, "fig6", "--save", path, *SMALL)
        assert code == 0
        return path

    def test_monitor_replays_saved_campaign(self, capsys, tmp_path):
        import json

        path = self._saved_campaign(capsys, tmp_path)
        code, out = run_cli(capsys, "monitor", path)
        assert code == 0
        assert "screened 3 snapshots" in out
        assert "alert log written to" in out
        log_path = path[: -len(".json")] + ".alerts.jsonl"
        with open(log_path, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    json.loads(line)  # every line must be valid JSON

    def test_monitor_custom_alert_log(self, capsys, tmp_path):
        path = self._saved_campaign(capsys, tmp_path)
        log = str(tmp_path / "custom.jsonl")
        code, out = run_cli(capsys, "monitor", path, "--alerts", log)
        assert code == 0
        assert log in out
        import os

        assert os.path.exists(log)

    def test_monitor_missing_campaign_fails(self, capsys, tmp_path):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            main(["monitor", str(tmp_path / "nope.json")])

    def test_profile_prometheus_dump(self, capsys, tmp_path):
        path = str(tmp_path / "metrics.prom")
        code, out = run_cli(capsys, *PROFILE_SMALL, "--prometheus", path)
        assert code == 0
        assert f"prometheus exposition written to {path}" in out
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        assert "# TYPE repro_campaign_powerups_total counter" in text
        assert "repro_trng_health_checks_total" in text

    def test_profile_metrics_jsonl_dump(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "metrics.jsonl")
        code, out = run_cli(capsys, *PROFILE_SMALL, "--metrics-jsonl", path)
        assert code == 0
        with open(path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert len(lines) == 1
        assert lines[0]["label"] == "profile"
        assert "campaign.powerups" in lines[0]["metrics"]


class TestRunCommand:
    def _run_args(self, tmp_path, *extra):
        return [
            "run", *SMALL,
            "--save", str(tmp_path / "campaign.json"),
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            *extra,
        ]

    def test_run_writes_all_artifacts(self, capsys, tmp_path):
        code, out = run_cli(capsys, *self._run_args(tmp_path))
        assert code == 0
        assert "campaign saved" in out
        assert (tmp_path / "campaign.json").exists()
        assert (tmp_path / "campaign.manifest.json").exists()
        assert (tmp_path / "campaign.alerts.jsonl").exists()
        assert (tmp_path / "ckpt" / SHARD0 / "month-0002.json").exists()

    def test_abort_exits_with_code_3(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, *self._run_args(tmp_path, "--abort-after-month", "0")
        )
        assert code == 3
        assert "interrupted after month 0" in out
        assert not (tmp_path / "campaign.json").exists()
        assert (tmp_path / "ckpt" / SHARD0 / "month-0000.json").exists()
        assert not (tmp_path / "ckpt" / SHARD0 / "month-0001.json").exists()

    def test_resume_with_nothing_to_resume_exits_6(self, capsys, tmp_path):
        # A missing directory and an empty one: no traceback, exit 6.
        (tmp_path / "empty").mkdir()
        for directory in ("missing", "empty"):
            code = main(
                [
                    "run", *SMALL,
                    "--save", str(tmp_path / "campaign.json"),
                    "--checkpoint-dir", str(tmp_path / directory),
                    "--resume",
                ]
            )
            err = capsys.readouterr().err
            assert code == 6
            assert err.startswith("error: ")
            assert "Traceback" not in err
        assert not (tmp_path / "campaign.json").exists()

    def test_interrupt_resume_byte_identical(self, capsys, tmp_path):
        straight = tmp_path / "straight"
        broken = tmp_path / "broken"
        straight.mkdir()
        broken.mkdir()

        code, _ = run_cli(capsys, *self._run_args(straight))
        assert code == 0
        code, _ = run_cli(
            capsys, *self._run_args(broken, "--abort-after-month", "1")
        )
        assert code == 3
        code, _ = run_cli(capsys, *self._run_args(broken, "--resume"))
        assert code == 0

        for name in ("campaign.json", "campaign.alerts.jsonl"):
            assert (straight / name).read_bytes() == (broken / name).read_bytes()

    def test_keyframe_every_flag_controls_cadence(self, capsys, tmp_path):
        code, _ = run_cli(capsys, *self._run_args(tmp_path, "--keyframe-every", "2"))
        assert code == 0
        kinds = {}
        for month in range(3):
            with open(tmp_path / "ckpt" / SHARD0 / f"month-000{month}.json") as fh:
                kinds[month] = json.load(fh)["kind"]
        assert kinds == {0: "keyframe", 1: "delta", 2: "keyframe"}

    def test_alert_log_identical_across_worker_counts(self, capsys, tmp_path):
        logs = []
        for workers in ("1", "2"):
            directory = tmp_path / f"w{workers}"
            directory.mkdir()
            code, _ = run_cli(
                capsys, "run", "--devices", "8", "--months", "3",
                "--measurements", "150", "--workers", workers,
                "--save", str(directory / "campaign.json"),
            )
            assert code == 0
            logs.append((directory / "campaign.alerts.jsonl").read_bytes())
        assert logs[0], "the run raised no alert to compare"
        assert logs[1] == logs[0]

    def test_resume_requires_checkpoint_dir(self, capsys, tmp_path):
        code = main(
            ["run", *SMALL, "--save", str(tmp_path / "c.json"), "--resume"]
        )
        assert code == 2

    def test_run_stamps_run_id_through_all_logs(self, capsys, tmp_path):
        import json

        code, _ = run_cli(capsys, *self._run_args(tmp_path))
        assert code == 0
        from repro.io.jsonstore import load_manifest

        manifest = load_manifest(str(tmp_path / "campaign.manifest.json"))
        with open(tmp_path / "campaign.heartbeat.jsonl") as handle:
            beats = [json.loads(line) for line in handle if line.strip()]
        assert beats
        for beat in beats:
            # One correlation key across manifest, heartbeats, alerts.
            assert beat["run_id"] == manifest.run_id
            assert "months_per_s" in beat
        with open(tmp_path / "campaign.alerts.jsonl") as handle:
            alerts = [json.loads(line) for line in handle if line.strip()]
        for alert in alerts:
            assert alert["run_id"] == manifest.run_id

    def test_run_id_deterministic_for_equal_configs(self, capsys, tmp_path):
        import json

        first = tmp_path / "first"
        second = tmp_path / "second"
        first.mkdir()
        second.mkdir()
        for directory in (first, second):
            code, _ = run_cli(
                capsys, "run", *SMALL, "--save", str(directory / "campaign.json")
            )
            assert code == 0

        def run_id_of(directory):
            with open(directory / "campaign.heartbeat.jsonl") as handle:
                return json.loads(handle.readline())["run_id"]

        assert run_id_of(first) == run_id_of(second)


#: Saved stdout of one untraced ``perfbench/run.py --workload paper
#: --seed 0 --seconds 3 --trace 0`` run.
PERFBENCH_OUTPUT = os.path.join(os.path.dirname(__file__), "perfbench_paper_output.txt")


class TestBenchCommand:
    @staticmethod
    def _output(tmp_path, name="run.txt", edit=None, workload="paper"):
        """The saved perfbench output as if run on this host, its result edited."""
        from repro.store.bench import host_fingerprint

        with open(PERFBENCH_OUTPUT, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        lines[0] = lines[0].replace("8e9ccc5bfccf", host_fingerprint())
        lines[0] = lines[0].replace("workload paper,", f"workload {workload},")
        if edit is not None:
            result = json.loads(lines[-1])
            edit(result)
            lines[-1] = json.dumps(result)
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def _record(self, capsys, tmp_path, *outputs):
        ledger = str(tmp_path / "ledger.jsonl")
        code, out = run_cli(
            capsys, "bench", "record", "--ledger", ledger,
            *(outputs or (PERFBENCH_OUTPUT,)),
        )
        assert code == 0
        return ledger, out

    def _refused(self, capsys, tmp_path, *outputs):
        ledger = tmp_path / "ledger.jsonl"
        code = main(["bench", "record", "--ledger", str(ledger), *outputs])
        captured = capsys.readouterr()
        assert code == 2
        assert not ledger.exists()
        return captured.err

    def test_record_appends_to_ledger(self, capsys, tmp_path):
        from repro.store.bench import git_revision

        ledger, out = self._record(capsys, tmp_path)
        assert "recorded perfbench/paper" in out
        with open(ledger, "r", encoding="utf-8") as handle:
            (line,) = handle.read().splitlines()
        document = json.loads(line)
        assert document["name"] == "perfbench/paper"
        assert document["host"] == "8e9ccc5bfccf"
        assert document["git_rev"] == git_revision()
        assert document["meta"] == {"seed": 0, "attempted": 10, "failed": 0}
        assert document["metrics"] == {
            "board_months_per_s": 199.9941526474824,
            "cpu_s": 1.9483795947673122,
            "setup_s": 1.2105831643945748,
            "peak_rss_mb": 113.078125,
            "store_mb": 0.116809,
        }

    def test_list_shows_history(self, capsys, tmp_path):
        ledger, _ = self._record(capsys, tmp_path)
        code, out = run_cli(capsys, "bench", "list", "--ledger", ledger)
        assert code == 0
        assert "registered benchmarks" not in out
        assert "1 runs" in out and "perfbench/paper" in out

    def test_list_aligns_columns_past_long_names(self, capsys, tmp_path):
        from repro.store.bench import git_revision

        outputs = [
            self._output(tmp_path, f"{workload}.txt", workload=workload)
            for workload in ("paper", "paper-durable", "fleet")
        ]
        ledger, _ = self._record(capsys, tmp_path, *outputs)
        code, out = run_cli(capsys, "bench", "list", "--ledger", ledger)
        assert code == 0
        rows = out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == [
            "perfbench/paper", "perfbench/paper-durable", "perfbench/fleet"
        ]
        assert len({row.index(git_revision()[:12]) for row in rows}) == 1

    def test_compare_needs_two_runs(self, capsys, tmp_path):
        ledger, _ = self._record(capsys, tmp_path, self._output(tmp_path))
        code = main(["bench", "compare", "--ledger", ledger])
        captured = capsys.readouterr()
        assert code == 2
        assert "need at least 2" in captured.err

    def test_compare_passes_on_steady_numbers(self, capsys, tmp_path):
        run = self._output(tmp_path)
        ledger, _ = self._record(capsys, tmp_path, run, run)
        code, out = run_cli(
            capsys, "bench", "compare", "--ledger", ledger, "--threshold", "0.0"
        )
        assert code == 0
        assert "bench perfbench/paper" in out and "no regressions" in out

    def test_compare_exits_5_on_injected_regression(self, capsys, tmp_path):
        def slow_down(result):
            throughput = result["metrics"]["board_months_per_s"]
            throughput["value"] /= 10

        ledger, _ = self._record(
            capsys,
            tmp_path,
            self._output(tmp_path),
            self._output(tmp_path, "slowed.txt", slow_down),
        )
        code = main(["bench", "compare", "--ledger", ledger])
        captured = capsys.readouterr()
        assert code == 5
        (regressed,) = [line for line in captured.out.splitlines() if "REGRESSED" in line]
        assert "board_months_per_s" in regressed
        assert "PERF REGRESSION" in captured.err

    def test_compare_empty_ledger_fails(self, capsys, tmp_path):
        code = main(
            ["bench", "compare", "--ledger", str(tmp_path / "none.jsonl")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "empty" in captured.err

    def test_record_refuses_traced_run(self, capsys, tmp_path):
        traced = self._output(
            tmp_path,
            edit=lambda result: result["metrics"].update(
                {"sram.draw_efficiency": {"value": 0.5, "unit": "ratio"}}
            ),
        )
        err = self._refused(capsys, tmp_path, traced)
        assert "sram.draw_efficiency" in err and "traced" in err

    def test_record_refuses_incorrect_run(self, capsys, tmp_path):
        failed = self._output(tmp_path, edit=lambda result: result.update(correct=False))
        assert "not correct" in self._refused(capsys, tmp_path, failed)

    def test_record_refuses_truncated_output(self, capsys, tmp_path):
        with open(PERFBENCH_OUTPUT, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        truncated = tmp_path / "truncated.txt"
        truncated.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        for path in (truncated, empty):
            assert "not a whole perfbench" in self._refused(capsys, tmp_path, str(path))
        assert "cannot read" in self._refused(capsys, tmp_path, str(tmp_path / "none"))

    def test_one_refused_file_records_nothing(self, capsys, tmp_path):
        failed = self._output(tmp_path, edit=lambda result: result.update(correct=False))
        self._refused(capsys, tmp_path, PERFBENCH_OUTPUT, failed, PERFBENCH_OUTPUT)


class TestStoreCommand:
    def test_inspect_lists_files_and_versions(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys,
            "run", *SMALL,
            "--save", str(tmp_path / "campaign.json"),
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        )
        assert code == 0
        code, out = run_cli(capsys, "store", "inspect", str(tmp_path))
        assert code == 0
        assert "campaign.json" in out and "campaign" in out
        assert "month-0000.json" in out and "checkpoint" in out
        assert "integrity: ok" in out

    def test_inspect_flags_and_cleans_strays(self, capsys, tmp_path):
        (tmp_path / "dead.json.tmp").write_bytes(b"stray")
        code, out = run_cli(capsys, "store", "inspect", str(tmp_path))
        assert code == 1
        assert "stray temp file" in out
        assert "PROBLEMS FOUND" in out
        code, out = run_cli(capsys, "store", "inspect", str(tmp_path), "--clean")
        assert code == 0
        assert "removed stray temp file dead.json.tmp" in out
        assert "integrity: ok" in out

    def test_inspect_missing_dir_fails(self, capsys, tmp_path):
        code = main(["store", "inspect", str(tmp_path / "missing")])
        captured = capsys.readouterr()
        assert code == 1
        assert "does not exist" in captured.err


class TestStoreDeepAndCompactCli:
    def _checkpointed_run(self, capsys, tmp_path, *extra):
        code, _ = run_cli(
            capsys,
            "run", *SMALL,
            "--save", str(tmp_path / "campaign.json"),
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            *extra,
        )
        assert code == 0

    def test_inspect_deep_reports_healthy_chain(self, capsys, tmp_path):
        self._checkpointed_run(capsys, tmp_path, "--keyframe-every", "2")
        code, out = run_cli(
            capsys, "store", "inspect", str(tmp_path / "ckpt"), "--deep"
        )
        assert code == 0
        assert f"checkpoint chain [{SHARD0}]:" in out
        assert "resume point: keyframe month 2" in out
        assert "integrity: ok" in out

    def test_inspect_deep_flags_broken_chain(self, capsys, tmp_path):
        self._checkpointed_run(capsys, tmp_path, "--keyframe-every", "2")
        (tmp_path / "ckpt" / SHARD0 / "month-0000.json").unlink()  # delta 1's base
        code, out = run_cli(
            capsys, "store", "inspect", str(tmp_path / "ckpt"), "--deep"
        )
        assert code == 1
        assert "broken chain" in out
        assert "PROBLEMS FOUND" in out

    def test_inspect_deep_without_checkpoints(self, capsys, tmp_path):
        code, out = run_cli(capsys, "store", "inspect", str(tmp_path), "--deep")
        assert code == 0
        assert "(no checkpoints to validate)" in out

    def test_compact_prunes_and_chain_stays_valid(self, capsys, tmp_path):
        self._checkpointed_run(capsys, tmp_path, "--keyframe-every", "1")
        code, out = run_cli(capsys, "store", "compact", str(tmp_path / "ckpt"))
        assert code == 0
        assert f"removed {SHARD0}/month-0000.json" in out
        assert "2 checkpoint(s) removed" in out
        code, out = run_cli(
            capsys, "store", "inspect", str(tmp_path / "ckpt"), "--deep"
        )
        assert code == 0
        assert "resume point: keyframe month 2" in out

    def test_compact_refuses_empty_directory(self, capsys, tmp_path):
        code = main(["store", "compact", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "no checkpoints found" in captured.err


class TestPopulationCli:
    """The ``--profile`` / ``--population`` fleet-selection flags."""

    def test_unknown_profile_fails_with_the_menu(self, capsys):
        code = main(["fig6", "--profile", "bogus", *SMALL])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown device profile 'bogus'" in captured.err
        assert "known profiles:" in captured.err
        assert "ATmega32u4" in captured.err

    def test_profile_and_population_are_mutually_exclusive(self, capsys, tmp_path):
        import json

        spec = str(tmp_path / "pop.json")
        with open(spec, "w", encoding="utf-8") as handle:
            json.dump({"name": "m", "members": [{"profile": "dff-puf"}]}, handle)
        code = main(
            ["fig6", "--profile", "dff-puf", "--population", spec, *SMALL]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--profile and --population are mutually exclusive" in captured.err

    def test_profile_flag_selects_the_named_device(self, capsys, tmp_path):
        from repro.io.resultstore import load_campaign

        path = str(tmp_path / "campaign.json")
        code, _ = run_cli(
            capsys, "fig6", "--save", path, "--profile", "dff-puf", *SMALL
        )
        assert code == 0
        assert load_campaign(path).profile_name == "dff-puf"

    def test_population_flag_runs_a_mixed_fleet(self, capsys, tmp_path):
        import json

        from repro.io.resultstore import load_campaign

        spec = str(tmp_path / "pop.json")
        with open(spec, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "name": "cli-mix",
                    "members": [
                        {"profile": "ATmega32u4", "weight": 2},
                        {"profile": "dff-puf"},
                    ],
                },
                handle,
            )
        path = str(tmp_path / "campaign.json")
        code, _ = run_cli(
            capsys, "fig6", "--save", path, "--population", spec, *SMALL
        )
        assert code == 0
        assert load_campaign(path).profile_name == "population:cli-mix"

    def test_missing_population_file_fails_cleanly(self, capsys, tmp_path):
        code = main(
            ["fig6", "--population", str(tmp_path / "nope.json"), *SMALL]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot read population spec" in captured.err
