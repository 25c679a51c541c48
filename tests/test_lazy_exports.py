"""The lazily exported package namespaces keep their public surface.

``repro``, ``repro.analysis``, ``repro.core``, ``repro.io``,
``repro.metrics``, ``repro.monitor``, ``repro.sram`` and
``repro.store`` resolve their public names on first access (PEP 562,
through :mod:`repro._lazy`) instead of importing every submodule up
front.  These tests pin what that must not change: the names, the
objects they resolve to, ``dir()``, and the error for a name that is
not there.
"""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

import repro

#: The public names of each lazy package.
PUBLIC = {
    "repro": [
        "ATMEGA32U4", "AssessmentResult", "CampaignExecutionError", "DeviceProfile",
        "LongTermAssessment", "PAPER", "ParallelExecutor", "SRAMArray", "SRAMChip",
        "SRAMKeyGenerator", "SRAMTRNG", "SeedHierarchy", "SerialExecutor",
        "StudyConfig", "TESTCHIP_65NM", "__version__",
    ],
    "repro.analysis": [
        "AcceleratedAgingStudy", "AcceleratedResult", "CampaignInference",
        "CampaignResult", "CellCategory", "CellMigrationStudy", "CellReliabilityModel",
        "ConfidenceInterval", "EnvironmentStudy", "InitialQualityEvaluation",
        "LifetimePoint", "LifetimeProjection", "LongTermCampaign", "MetricSeries",
        "MigrationResult", "MonthlyEvaluation", "PairedChangeTest", "PowerLawTrend",
        "QualityTimeSeries", "SourceComparisonStudy", "SourceSnapshot", "SweepPoint",
        "block_failure_probability", "bootstrap_mean_ci", "classify_cells",
        "evaluate_month", "fit_power_law_trend", "key_failure_probability",
        "monthly_rates", "paired_change_test", "startup_pattern_image",
    ],
    "repro.core": [
        "AssessmentResult", "CalibrationTargets", "LongTermAssessment", "PAPER",
        "PaperFacts", "StudyConfig", "build_quality_report", "calibrate_aging",
        "calibrate_skew_distribution", "predicted_initial_metrics",
    ],
    "repro.io": [
        "MeasurementDatabase", "MeasurementRecord", "bits_from_bytes",
        "bits_from_hex", "bits_to_bytes", "bits_to_hex", "ensure_bits",
        "hamming_weight", "load_campaign", "pack_bits", "random_bits",
        "save_campaign", "unpack_bits",
    ],
    "repro.monitor": [
        "Alert", "AlertRule", "CUSUMDetector", "CampaignStatus", "DEFAULT_NAMESPACE",
        "Decision", "Detector", "EWMADetector", "MetricsJSONLSink", "MonitorHub",
        "PROMETHEUS_CONTENT_TYPE", "RATE_PREFIX", "ROLLUP_EXPORT_STATS",
        "ROLLUP_PREFIX", "SEVERITIES", "SnapshotEmitter", "StaticThresholdDetector",
        "TrendBandDetector", "alert_log_path_for", "append_alert", "current_rss_kb",
        "default_ruleset", "heartbeat_path_for", "hierarchical_ruleset",
        "load_alert_log", "load_status", "paper_wchd_trend", "parse_rollup_metric",
        "population_ruleset", "prometheus_name", "read_jsonl_tolerant",
        "render_alert_timeline", "render_prometheus", "render_status",
        "replay_campaign", "write_alert_log", "write_metrics_jsonl",
        "write_prometheus",
    ],
    "repro.sram": [
        "ATMEGA32U4", "AgingSimulator", "BUSKEEPER_PUF", "DFF_PUF", "DataPolicy",
        "DeviceProfile", "NOISE_SIGMA_V", "PopulationMember", "PopulationSpec",
        "PowerUpSample", "REGISTRY", "SRAMArray", "SRAMChip", "SixTransistorCell",
        "TESTCHIP_65NM", "VoltageRamp", "binomial_ones_counts", "load_population",
        "measure_power_ups", "profile_by_name", "read_startup_with_ramp",
        "register_profile", "sample_measurement_block", "single_profile_population",
    ],
    "repro.metrics": [
        "HistogramSummary", "MetricSummary", "QualityReport", "aliasing_extremes",
        "autocorrelation", "between_class_hd", "bit_aliasing",
        "fractional_hamming_distance",
        "fractional_hamming_weight", "fractional_hamming_weight_from_counts",
        "fractional_histogram", "geometric_monthly_change", "hamming_distance",
        "min_entropy_bits", "neighbourhood_correlation", "noise_min_entropy",
        "noise_min_entropy_from_counts", "one_probabilities_from_counts",
        "puf_min_entropy", "stable_cell_mask", "stable_cell_ratio",
        "stable_cell_ratio_from_counts", "uniformity", "within_class_hd",
        "within_class_hd_from_counts",
    ],
    "repro.store": [
        "ArtifactStore", "BENCH_LEDGER_NAME", "BENCH_VERSION", "BenchLedger",
        "CampaignCheckpointer", "CheckpointState",
        "CounterDeltaRecorder", "DEFAULT_KEYFRAME_EVERY", "DeltaRecord", "JsonCodec",
        "JsonLinesCodec", "PARENT_LOG_NAME", "SCHEMAS", "SHARDS_DIR",
        "SHARD_MANIFEST_NAME", "SHARD_STREAM_NAME", "ShardCheckpointState",
        "ShardManifest", "ShardStoreSpec", "ShardedCheckpointState", "TMP_SUFFIX",
        "append_line", "append_lines", "append_parent_month_record",
        "atomic_write_bytes", "atomic_write_text", "board_state_doc",
        "build_parent_month_record", "build_shard_delta_doc",
        "build_shard_keyframe_doc", "checkpoint_chain_report", "checkpoint_kind",
        "checkpoint_name", "checkpoint_scope", "compact_checkpoints",
        "current_version", "decode_float64_array", "document_version",
        "encode_float64_array", "find_stray_tmp_files", "fold_counter_deltas",
        "git_revision", "higher_is_better", "host_fingerprint",
        "is_sharded_checkpoint", "is_stream_header", "keyframe_due",
        "list_checkpoints", "load_campaign_stream_doc", "load_latest_checkpoint",
        "load_latest_shard_keyframe", "load_shard_manifest", "load_sharded_checkpoint",
        "merge_sharded_campaign", "migrate", "pack_bits_hex", "parse_checkpoint_doc",
        "parse_delta_doc", "parse_shard_checkpoint_doc", "parse_shard_delta_doc",
        "persist_shard_window", "prepare_shard_resume", "read_parent_log",
        "read_shard_stream", "register_migration", "render_comparison",
        "reset_sharded_layout", "restore_chip", "restore_rng_state", "rng_state_doc",
        "schema_field", "shard_root", "truncate_file", "unpack_bits_hex",
        "write_shard_manifest",
    ],
}

#: Where the exported values that carry no ``__module__`` are defined.
VALUE_HOMES = {
    "__version__": "repro",
    "PAPER": "repro.core.paper",
    "ATMEGA32U4": "repro.sram.profiles",
    "BUSKEEPER_PUF": "repro.sram.profiles",
    "DFF_PUF": "repro.sram.profiles",
    "TESTCHIP_65NM": "repro.sram.profiles",
    "NOISE_SIGMA_V": "repro.sram.profiles",
    "REGISTRY": "repro.sram.profiles",
    "SEVERITIES": "repro.monitor.alerts",
    "DEFAULT_NAMESPACE": "repro.monitor.exporters",
    "PROMETHEUS_CONTENT_TYPE": "repro.monitor.exporters",
    "ROLLUP_EXPORT_STATS": "repro.monitor.exporters",
    "RATE_PREFIX": "repro.monitor.hub",
    "ROLLUP_PREFIX": "repro.monitor.hub",
    "BENCH_LEDGER_NAME": "repro.store.bench",
    "BENCH_VERSION": "repro.store.bench",
    "DEFAULT_KEYFRAME_EVERY": "repro.store.checkpoint",
    "PARENT_LOG_NAME": "repro.store.shardstore",
    "SCHEMAS": "repro.store.schema",
    "SHARDS_DIR": "repro.store.shardstore",
    "SHARD_MANIFEST_NAME": "repro.store.shardstore",
    "SHARD_STREAM_NAME": "repro.store.shardstore",
    "TMP_SUFFIX": "repro.store.atomic",
}

PACKAGES = sorted(PUBLIC)


def defining_module(name, value):
    if inspect.isclass(value) or inspect.isfunction(value):
        return value.__module__
    return VALUE_HOMES[name]


@pytest.mark.parametrize("package", PACKAGES)
def test_public_names_unchanged(package):
    assert sorted(importlib.import_module(package).__all__) == sorted(PUBLIC[package])


@pytest.mark.parametrize("package", PACKAGES)
def test_every_name_is_its_defining_modules_object(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        home = importlib.import_module(defining_module(name, value))
        assert value is getattr(home, name), f"{package}.{name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_public_name(package):
    module = importlib.import_module(package)
    missing = set(module.__all__) - set(dir(module))
    assert not missing, f"dir({package}) lacks {sorted(missing)}"


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_package(package):
    module = importlib.import_module(package)
    message = f"'{package}' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=message):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


def test_package_hands_out_the_current_binding(monkeypatch):
    """Nothing is cached: rebinding in the defining module shows through."""
    import repro.analysis.monthly as monthly

    replacement = object()
    monkeypatch.setattr(monthly, "evaluate_month", replacement)
    assert importlib.import_module("repro.analysis").evaluate_month is replacement


def test_from_import_in_a_fresh_interpreter():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "from repro.analysis import LongTermCampaign, evaluate_month\n"
        "from repro.analysis.campaign import LongTermCampaign as direct\n"
        "from repro.analysis.monthly import evaluate_month as direct_month\n"
        "assert LongTermCampaign is direct and evaluate_month is direct_month\n"
    )
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), check=True
    )
