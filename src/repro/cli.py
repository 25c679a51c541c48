"""Command-line interface: regenerate the paper from a terminal.

::

    python -m repro table1 [--seed 1] [--devices 16] [--months 24] [--workers 4]
    python -m repro fig6 --metric WCHD [--save campaign.json]
    python -m repro compare [--seed 1]
    python -m repro calibrate
    python -m repro accelerated
    python -m repro profile [--devices 4] [--months 3] [--prometheus PATH]
    python -m repro monitor campaign.json [--alerts PATH]
    python -m repro run --save campaign.json [--checkpoint-dir DIR] [--resume]
                        [--keyframe-every K] [--rollup-shards N]
                        [--heartbeat-every K]
    python -m repro status campaign.json [--once | --interval S]
    python -m repro store inspect DIR [--clean] [--deep]
    python -m repro store compact DIR [--keep-keyframes N]
    python -m repro store merge DIR --out OUT.json
    python -m repro bench record OUTPUT... [--ledger PATH]
    python -m repro bench compare [--bench NAME] [--threshold T]
    python -m repro bench list

Global options (before the command):

``-v`` / ``-vv``
    Progressively verbose logging (INFO / DEBUG) on stderr; the
    library is silent without it.
``--trace-json PATH``
    Enable tracing for the command and write the span tree to PATH
    as JSON.
``--trace-chrome PATH``
    Enable tracing and write the Chrome ``trace_event`` export to
    PATH — loadable in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``.  Combines with ``--trace-json``.

Every command is a thin shell over the library; scripts that need the
data programmatically should use :class:`repro.LongTermAssessment`
directly.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.store.checkpoint import DEFAULT_KEYFRAME_EVERY
from repro.telemetry import (
    get_metrics,
    get_profiler,
    get_tracer,
    init_logging,
    profiling_enabled,
    reset_telemetry,
    set_profiling,
    set_tracing,
    tracing_enabled,
)

if TYPE_CHECKING:  # pragma: no cover - typing aid only
    from repro.core.assessment import LongTermAssessment
    from repro.core.config import StudyConfig


def _add_study_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1, help="simulation seed")
    parser.add_argument("--devices", type=int, default=16, help="fleet size")
    parser.add_argument("--months", type=int, default=24, help="aging months")
    parser.add_argument(
        "--measurements", type=int, default=1000, help="monthly block size"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel worker processes sharding the fleet by board "
        "(1 = serial; results are bit-identical at any count)",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="NAME",
        help="named device profile of the (homogeneous) fleet, from the "
        "profile registry (see 'docs/population.md')",
    )
    parser.add_argument(
        "--population",
        default=None,
        metavar="SPEC.json",
        help="heterogeneous fleet population spec (JSON document; "
        "mutually exclusive with --profile, see docs/population.md)",
    )


def _study_fleet_kwargs(args: argparse.Namespace) -> dict:
    """``profile``/``population`` StudyConfig kwargs from CLI flags.

    Omitted flags contribute nothing, so flag-free invocations build
    exactly the pre-population config (same deterministic run id).
    """
    from repro.sram.population import load_population
    from repro.sram.profiles import profile_by_name

    kwargs: dict = {}
    profile_name = getattr(args, "profile", None)
    population_path = getattr(args, "population", None)
    if profile_name and population_path:
        raise ConfigurationError(
            "--profile and --population are mutually exclusive "
            "(a population spec already names its member profiles)"
        )
    if profile_name:
        kwargs["profile"] = profile_by_name(profile_name)
    if population_path:
        kwargs["population"] = load_population(population_path)
    return kwargs


def _study_config(args: argparse.Namespace) -> StudyConfig:
    from repro.core.config import StudyConfig

    return StudyConfig(
        device_count=args.devices,
        months=args.months,
        measurements=args.measurements,
        seed=args.seed,
        max_workers=getattr(args, "workers", 1),
        keyframe_every=getattr(args, "keyframe_every", DEFAULT_KEYFRAME_EVERY),
        rollup_shards=getattr(args, "rollup_shards", None),
        fail_board=getattr(args, "fail_board", None),
        **_study_fleet_kwargs(args),
    )


def _assessment(args: argparse.Namespace) -> LongTermAssessment:
    """The campaign driver over the study the CLI flags configure."""
    from repro.core.assessment import LongTermAssessment

    return LongTermAssessment(_study_config(args))


def _cmd_table1(args: argparse.Namespace) -> int:
    result = _assessment(args).run()
    print(result.table.render())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    result = _assessment(args).run()
    print(result.render_comparison())
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    result = _assessment(args).run()
    metric = result.series.metric(args.metric)
    if args.save:
        from repro.io.resultstore import save_campaign
        from repro.telemetry import manifest_path_for

        save_campaign(result.campaign, args.save, manifest=result.manifest)
        print(f"campaign saved to {args.save}")
        print(f"manifest saved to {manifest_path_for(args.save)}")
    print(f"{metric.name} development over {args.months} months (fleet mean):")
    for month, value in zip(metric.months, metric.mean):
        print(f"  month {int(month):>2}: {100 * value:7.3f}%")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.core.calibration import (
        calibrate_skew_distribution,
        predicted_initial_metrics,
    )

    mean, sigma = calibrate_skew_distribution(fhw=args.fhw, wchd=args.wchd)
    metrics = predicted_initial_metrics(mean, sigma)
    print(f"skew mean  = {mean:.6f} (noise sigmas)")
    print(f"skew sigma = {sigma:.6f} (noise sigmas)")
    print("predicted initial metrics:")
    for name, value in metrics.items():
        print(f"  {name:<14} {100 * value:7.3f}%")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run a small instrumented workload and print the telemetry report.

    Exercises every instrumented subsystem — campaign, testbed
    scheduler, key generation, TRNG — so the span tree, the per-phase
    CPU table and the metric catalogue (``campaign.powerups``,
    ``scheduler.events``, ``keygen.decode_failures``, ...) all show
    real numbers.  ``--workers N`` runs the campaign through the
    sharded execution engine, so the tree shows the grafted worker
    spans and the phase table the attribution merged back from the
    worker processes.
    """
    from repro.hardware.testbed import Testbed
    from repro.keygen.keygen import SRAMKeyGenerator
    from repro.sram.chip import SRAMChip
    from repro.trng.trng import SRAMTRNG

    set_tracing(True)
    set_profiling(True)
    reset_telemetry()
    tracer = get_tracer()

    result = _assessment(args).run()

    with tracer.span("profile.testbed", cycles=args.cycles):
        bed = Testbed(device_count=2, random_state=args.seed)
        bed.run_cycles(args.cycles)

    with tracer.span("profile.keygen"):
        generator = SRAMKeyGenerator(SRAMChip(0, random_state=args.seed))
        _key, record = generator.enroll(random_state=args.seed)
        generator.reconstruct(record)

    trng = SRAMTRNG(SRAMChip(1, random_state=args.seed))
    trng.generate(256)

    print("== span tree ==")
    print(tracer.render_tree())
    print()
    print("== phases (campaign hot path) ==")
    print(get_profiler().render_table())
    print()
    print("== metrics ==")
    print(get_metrics().render_table())
    print()
    if args.prometheus:
        from repro.monitor.exporters import write_prometheus

        write_prometheus(get_metrics(), args.prometheus)
        print(f"prometheus exposition written to {args.prometheus}")
    if args.metrics_jsonl:
        from repro.monitor.exporters import write_metrics_jsonl

        write_metrics_jsonl(get_metrics(), args.metrics_jsonl, label="profile")
        print(f"metrics snapshot appended to {args.metrics_jsonl}")
    manifest = result.manifest
    if manifest is not None:
        print(
            f"run {manifest.run_id}: repro {manifest.package_version}, "
            f"seed {manifest.seed}, campaign phase "
            f"{manifest.phases.get('campaign', 0.0):.2f} s"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """Run the monitored campaign with artifacts and checkpoint/resume.

    Saves the campaign result, its run manifest and the JSONL alert log
    next to ``--save``.  With ``--checkpoint-dir`` the campaign
    checkpoints after every month; ``--resume`` continues from the last
    complete checkpoint, producing artifacts byte-identical to an
    uninterrupted run (see ``docs/storage.md``).  ``--abort-after-month``
    interrupts deterministically after that month's checkpoint and
    exits with code 3 — the CI resume-smoke job uses this to rehearse a
    crash.

    The checkpoint directory holds one layout (``docs/storage.md``):
    each window worker writes its own keyframed checkpoint chain and
    results stream under ``shards/<shard>/``, the parent a campaign
    manifest and month log; ``repro store merge`` reassembles the
    artifact from the shard streams alone.  ``--resume`` of a legacy
    campaign-scoped directory finishes the campaign without writing to
    the directory.

    Every run heartbeats to ``<save>.heartbeat.jsonl`` (tail it, or
    point ``repro status`` at the artifact) and keeps a flight recorder
    of recent events; a crashed campaign (including one injected with
    ``--fail-board``) dumps the recorder to ``<save>.flight.json`` and
    exits with code 4.

    A checkpoint directory the campaign cannot use — ``--resume`` of a
    directory with nothing to resume (missing, empty, or no month every
    shard can restore), or an unreadable or foreign checkpoint — prints
    ``error: <message>`` on stderr and exits with code 6.
    """
    from repro.core.assessment import LongTermAssessment
    from repro.errors import (
        CampaignExecutionError,
        CampaignInterrupted,
        StorageError,
    )
    from repro.io.resultstore import save_campaign
    from repro.monitor.alerts import alert_log_path_for
    from repro.monitor.defaults import (
        default_ruleset,
        hierarchical_ruleset,
        population_ruleset,
    )
    from repro.monitor.heartbeat import SnapshotEmitter, heartbeat_path_for
    from repro.monitor.hub import MonitorHub
    from repro.store.artifact import ArtifactStore
    from repro.telemetry import manifest_path_for, run_id_for_config
    from repro.telemetry.flight import flight_record_path_for
    from repro.telemetry.runtime import get_flight_recorder, get_rollups

    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    alert_log = args.alerts if args.alerts else alert_log_path_for(args.save)
    heartbeat = heartbeat_path_for(args.save)
    if not args.resume:
        # A fresh run's live alert log mirrors this run only; a resumed
        # run instead truncates-and-replays inside the campaign driver.
        store, name = ArtifactStore.locate(alert_log)
        store.truncate(name)
    # The heartbeat always restarts: it narrates this process's run.
    store, name = ArtifactStore.locate(heartbeat)
    store.truncate(name)
    config = _study_config(args)
    # One correlation key stamped into alerts, heartbeats and traces.
    # Deterministic (a hash of the config), so equal configs — straight
    # or resumed, serial or sharded — produce byte-identical logs.
    run_id = run_id_for_config(config)
    rules = default_ruleset() + hierarchical_ruleset()
    if config.population is not None:
        # Heterogeneous fleets additionally watch each profile cohort's
        # pinned rollup scope, so a drifting cohort is attributable.
        rules += population_ruleset(config.population)
    hub = MonitorHub(
        rules,
        alert_log=alert_log,
        run_id=run_id,
    )
    emitter = SnapshotEmitter(
        heartbeat,
        hub=hub,
        every=args.heartbeat_every,
        rollups=get_rollups(),
        flight=get_flight_recorder(),
        run_id=run_id,
        profiler=get_profiler(),
    )
    try:
        result = LongTermAssessment(config).run(
            progress=emitter,
            monitor=hub,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            abort_after_month=args.abort_after_month,
        )
    except CampaignInterrupted as exc:
        print(f"campaign interrupted after month {exc.month}; "
              f"checkpoints in {exc.checkpoint_dir}")
        print(f"resume with: repro run --save {args.save} "
              f"--checkpoint-dir {exc.checkpoint_dir} --resume")
        return 3
    except CampaignExecutionError as exc:
        flight = get_flight_recorder()
        flight.record("crash", error=str(exc))
        flight_path = flight_record_path_for(args.save)
        flight.dump(flight_path, reason=str(exc))
        print(f"campaign crashed: {exc}", file=sys.stderr)
        print(f"flight record written to {flight_path}", file=sys.stderr)
        return 4
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    save_campaign(
        result.campaign,
        args.save,
        manifest=result.manifest,
        alerts=hub.alerts,
    )
    print(f"campaign saved to {args.save}")
    print(f"manifest saved to {manifest_path_for(args.save)}")
    print(f"alert log written to {alert_log} ({hub.alert_count} alerts)")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    """Render the live status dashboard for a monitored campaign.

    Reads the heartbeat, alert-log and flight-record files next to the
    campaign artifact (see ``docs/status.md``) and prints one dashboard
    frame; without ``--once`` it re-renders every ``--interval``
    seconds until interrupted.  Read-only — safe against a campaign
    that is still running.
    """
    import time as _time

    from repro.monitor.status import load_status, render_status

    while True:
        status = load_status(args.target)
        print(render_status(status))
        if args.once:
            return 0
        print()
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _shard_chain_dirs(path: str) -> List[str]:
    """``shards/shard-*`` subdirectories of a sharded checkpoint dir.

    Discovered from the filesystem rather than the manifest, so a
    corrupt manifest still lets ``store inspect --deep`` and ``store
    compact`` reach every shard's chain.
    """
    shards_parent = os.path.join(path, "shards")
    if not os.path.isdir(shards_parent):
        return []
    return sorted(
        os.path.join("shards", name)
        for name in os.listdir(shards_parent)
        if os.path.isdir(os.path.join(shards_parent, name))
        and name.startswith("shard-")
    )


def _cmd_store_inspect(args: argparse.Namespace) -> int:
    """Print an artifact directory's contents, versions and integrity.

    ``--deep`` additionally validates checkpoint internals: every month
    file is parsed at full strictness and the keyframe/delta chain is
    checked link by link (see
    :func:`repro.store.checkpoint.checkpoint_chain_report`).  On a
    sharded checkpoint directory (``docs/storage.md``) every shard's
    chain is validated the same way, and the resume point is the
    fleet-wide month the resume scan picks
    (:func:`repro.store.shardstore.sharded_resume_month`): each shard
    must restore it.  ``--clean`` always sweeps stray temp files
    recursively, shard subdirectories included.
    """
    from repro.errors import StorageError
    from repro.store.artifact import ArtifactStore
    from repro.store.checkpoint import checkpoint_chain_report, list_checkpoints
    from repro.store.shardstore import is_sharded_checkpoint, sharded_resume_month

    try:
        store = ArtifactStore(args.path, create=False)
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.clean:
        for name in store.clean_stray_tmp_files():
            print(f"removed stray temp file {name}")
    report = store.integrity_report()
    print(f"artifact store {report['root']}")
    if not report["files"]:
        print("  (no artifacts)")
    for entry in report["files"]:
        version = "-" if entry["version"] is None else f"v{entry['version']}"
        detail = f"  {entry['detail']}" if entry["detail"] else ""
        print(
            f"  {entry['name']:<32} {entry['kind']:<12} {version:>4} "
            f"{entry['bytes']:>9} B  {entry['status']}{detail}"
        )
    for name in report["stray_tmp_files"]:
        print(f"  stray temp file: {name} (interrupted write; "
              "re-run with --clean to remove)")
    for shard in report.get("shards", []):
        status = "ok" if shard["ok"] else "PROBLEMS"
        print(
            f"  shard {shard['dir']:<26} {shard['files']:>3} file(s), "
            f"{shard['stray_tmp_files']} stray temp  {status}"
        )
    ok = report["ok"]
    if args.deep:
        chain_dirs = []
        if list_checkpoints(args.path):
            chain_dirs.append(("", args.path))
        chain_dirs += [
            (relative, os.path.join(args.path, relative))
            for relative in _shard_chain_dirs(args.path)
        ]
        if not chain_dirs:
            print("checkpoint chain: (no checkpoints to validate)")
        fleet_month = None
        if is_sharded_checkpoint(args.path):
            try:
                fleet_month = sharded_resume_month(args.path)
            except StorageError as exc:
                print(f"checkpoint layout: {exc}")
                fleet_month = -1
        for relative, chain_dir in chain_dirs:
            chain = checkpoint_chain_report(
                chain_dir, restore_month=fleet_month if relative else None
            )
            label = f" [{relative}]" if relative else ""
            print(f"checkpoint chain{label}:")
            for entry in chain["entries"]:
                kind = entry["kind"] or "?"
                detail = f"  {entry['detail']}" if entry.get("detail") else ""
                print(f"  {entry['name']:<32} {kind:<9} {entry['status']}{detail}")
            keyframe = chain["resume_month"]
            point = "NONE" if keyframe is None else f"keyframe month {keyframe}"
            print(f"  resume point: {point}")
            ok = ok and chain["ok"]
        if fleet_month is not None:
            month = f"month {fleet_month}" if fleet_month >= 0 else "NONE"
            print(f"resume point: {month} (fleet-wide)")
            ok = ok and fleet_month >= 0
    print(f"integrity: {'ok' if ok else 'PROBLEMS FOUND'}")
    return 0 if ok else 1


def _cmd_store_compact(args: argparse.Namespace) -> int:
    """Prune checkpoint months no longer needed for resume.

    A sharded checkpoint directory has one keyframe/delta chain per
    shard under ``shards/shard-*``; each keeps the keyframe its shard
    restores the fleet-wide resume month from
    (:func:`repro.store.shardstore.compact_sharded_checkpoint`).  A
    legacy directory's top-level chain is compacted by itself.
    """
    from repro.errors import StorageError
    from repro.store.checkpoint import compact_checkpoints
    from repro.store.shardstore import compact_sharded_checkpoint, is_sharded_checkpoint

    try:
        if is_sharded_checkpoint(args.path):
            removed = compact_sharded_checkpoint(
                args.path, keep_keyframes=args.keep_keyframes
            )
        else:
            removed = compact_checkpoints(
                args.path, keep_keyframes=args.keep_keyframes
            )
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in removed:
        print(f"removed {name}")
    print(f"compacted {args.path}: {len(removed)} checkpoint(s) removed")
    return 0


def _cmd_store_merge(args: argparse.Namespace) -> int:
    """Reassemble one campaign artifact from a sharded checkpoint dir.

    Reads every shard's results stream (``docs/storage.md``), rebuilds
    the monthly snapshots in fleet order and writes the merged artifact
    with the same encoders a single-writer run uses — the output is
    byte-identical to the artifact the campaign itself saved.
    """
    from repro.errors import StorageError
    from repro.io.resultstore import save_campaign
    from repro.store.shardstore import merge_sharded_campaign

    try:
        result = merge_sharded_campaign(args.path)
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save_campaign(result, args.out)
    print(
        f"merged {len(result.board_ids)} boards x {result.months} months "
        f"from {args.path}"
    )
    print(f"campaign saved to {args.out}")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    """Replay a saved campaign through the alert engine.

    Loads a campaign artifact written by ``fig6 --save`` (or
    :func:`repro.io.resultstore.save_campaign`), feeds every monthly
    snapshot through a :class:`~repro.monitor.hub.MonitorHub` running
    the default paper-envelope ruleset, writes the JSONL alert log next
    to the artifact and prints the alert timeline.
    """
    from repro.io.resultstore import load_campaign
    from repro.monitor.alerts import SEVERITIES, alert_log_path_for
    from repro.monitor.defaults import default_ruleset
    from repro.monitor.hub import MonitorHub
    from repro.monitor.replay import render_alert_timeline, replay_campaign

    from repro.store.artifact import ArtifactStore

    campaign = load_campaign(args.campaign)
    alert_log = args.alerts if args.alerts else alert_log_path_for(args.campaign)
    # Replays overwrite rather than append: the log mirrors this
    # screening, not the concatenation of every past one.
    store, name = ArtifactStore.locate(alert_log)
    store.truncate(name)
    hub = MonitorHub(default_ruleset(), alert_log=alert_log)
    alerts = replay_campaign(campaign, hub)
    print(
        f"screened {campaign.months + 1} snapshots "
        f"({len(campaign.board_ids)} boards) with {len(hub.rules)} rules"
    )
    print(render_alert_timeline(alerts, months=campaign.months))
    counts = hub.severity_counts()
    print(
        "alerts: "
        + ", ".join(f"{counts[severity]} {severity}" for severity in SEVERITIES)
    )
    print(f"alert log written to {alert_log}")
    if args.fail_on is not None:
        floor = SEVERITIES.index(args.fail_on)
        if any(SEVERITIES.index(a.severity) >= floor for a in alerts):
            return 1
    return 0


def _read_perfbench_output(path: str) -> Dict[str, Any]:
    """Parse the saved stdout of one untraced ``perfbench/run.py`` run.

    The first line reads ``workload <name>, seed <n>, host {...}`` and
    the last line is the result JSON.  Returns the ledger record's
    fields; raises :class:`ConfigurationError` for anything that is not
    a correct, untraced run.
    """
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines() or [""]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None
    header = re.fullmatch(r"workload (\S+), seed (-?\d+), host (.*)", lines[0])
    try:
        host = json.loads(header.group(3))["host_fingerprint"]
        result = json.loads(lines[-1])
        metrics = {
            name: float(metric["value"]) for name, metric in result["metrics"].items()
        }
        correct, attempted, failed = (
            result["correct"], result["attempted"], result["failed"]
        )
    except (ValueError, KeyError, TypeError, AttributeError):
        raise ConfigurationError(
            f"{path}: not a whole perfbench/run.py output (its first line "
            "names the workload and host, its last line is the result)"
        ) from None
    if correct is not True:
        raise ConfigurationError(f"{path}: perfbench result is not correct")
    layered = sorted(name for name in metrics if "." in name)
    if layered:
        raise ConfigurationError(
            f"{path}: per-layer metrics ({', '.join(layered)}) come from a "
            "traced run; record an untraced (--trace 0) run"
        )
    return {
        "name": f"perfbench/{header.group(1)}",
        "metrics": metrics,
        "host": host,
        "meta": {"seed": int(header.group(2)), "attempted": attempted, "failed": failed},
    }


def _cmd_bench(args: argparse.Namespace) -> int:
    """The perf-regression ledger: record, compare and list benchmark runs.

    ``record`` appends saved ``perfbench/run.py`` outputs to the JSONL
    ledger as ``perfbench/<workload>``, keyed by the host fingerprint
    perfbench printed and the git revision; every file is parsed
    before any is recorded.  ``compare`` checks each benchmark's newest
    run against the one before it on this host and exits with code 5
    when any metric regressed past ``--threshold`` — the CI bench-smoke
    job fails on that code.  ``list`` shows the ledger history.
    """
    from repro.errors import StorageError
    from repro.store.bench import BenchLedger, render_comparison

    ledger = BenchLedger(args.ledger)
    if args.action == "record":
        runs = [_read_perfbench_output(path) for path in args.outputs]
        for run in runs:
            document = ledger.record(**run)
            rendered = ", ".join(
                f"{key}={value:.6g}" for key, value in sorted(run["metrics"].items())
            )
            print(f"recorded {run['name']} @ {document['git_rev'][:12]}: {rendered}")
        print(f"ledger: {ledger.path}")
        return 0
    if args.action == "compare":
        names = args.bench or ledger.names()
        if not names:
            print(f"error: ledger {ledger.path} is empty", file=sys.stderr)
            return 2
        regressed = False
        for name in names:
            try:
                comparison = ledger.compare(name, threshold=args.threshold)
            except StorageError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(render_comparison(comparison))
            regressed = regressed or bool(comparison["regressions"])
        if regressed:
            print("PERF REGRESSION detected", file=sys.stderr)
            return 5
        return 0
    # list
    records = ledger.records(name=args.bench[0] if args.bench else None)
    if not records:
        print(f"ledger {ledger.path}: (empty)")
        return 0
    print(f"ledger {ledger.path} ({len(records)} runs, oldest first):")
    width = max(len(document["name"]) for document in records)
    for document in records:
        rendered = ", ".join(
            f"{key}={value:.6g}"
            for key, value in sorted(document.get("metrics", {}).items())
        )
        print(
            f"  {document['name']:<{width}} {document['git_rev'][:12]:<12} "
            f"{document['created_at']}  {rendered}"
        )
    return 0


def _cmd_accelerated(args: argparse.Namespace) -> int:
    from repro.analysis.accelerated import AcceleratedAgingStudy

    study = AcceleratedAgingStudy(device_count=args.devices, random_state=args.seed)
    result = study.run(equivalent_months=args.months)
    print(
        f"accelerated aging at {result.stress_temperature_k - 273.15:.0f} degC / "
        f"{result.stress_voltage_v:.2f} V (AF {result.acceleration_factor:.0f}x, "
        f"{result.stress_hours_total:.1f} stress hours)"
    )
    for month, wchd in zip(result.equivalent_months, result.wchd_mean):
        print(f"  eq. month {month:5.1f}: WCHD {100 * wchd:6.2f}%")
    print(f"monthly rate: {100 * result.monthly_rate:+.2f}% (paper: +1.28%)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Wang et al., DATE 2020 (SRAM PUF long-term aging).",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log to stderr (-v: INFO, -vv: DEBUG)",
    )
    parser.add_argument(
        "--trace-json",
        metavar="PATH",
        help="enable tracing and write the span tree to PATH as JSON",
    )
    parser.add_argument(
        "--trace-chrome",
        metavar="PATH",
        help="enable tracing and write a Chrome trace_event export to PATH "
        "(load it in Perfetto or chrome://tracing)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    table1 = commands.add_parser("table1", help="regenerate Table I")
    _add_study_arguments(table1)
    table1.set_defaults(handler=_cmd_table1)

    compare = commands.add_parser("compare", help="paper-vs-measured comparison")
    _add_study_arguments(compare)
    compare.set_defaults(handler=_cmd_compare)

    fig6 = commands.add_parser("fig6", help="regenerate a Fig. 6 series")
    _add_study_arguments(fig6)
    fig6.add_argument(
        "--metric",
        default="WCHD",
        choices=["WCHD", "HW", "Ratio of Stable Cells", "Noise entropy",
                 "BCHD", "PUF entropy"],
    )
    fig6.add_argument("--save", help="also save the campaign result as JSON")
    fig6.set_defaults(handler=_cmd_fig6)

    calibrate = commands.add_parser(
        "calibrate", help="solve skew parameters for target FHW/WCHD"
    )
    calibrate.add_argument("--fhw", type=float, default=0.627)
    calibrate.add_argument("--wchd", type=float, default=0.0249)
    calibrate.set_defaults(handler=_cmd_calibrate)

    accelerated = commands.add_parser(
        "accelerated", help="run the accelerated-aging comparison"
    )
    accelerated.add_argument("--seed", type=int, default=2)
    accelerated.add_argument("--devices", type=int, default=8)
    accelerated.add_argument("--months", type=int, default=24)
    accelerated.set_defaults(handler=_cmd_accelerated)

    profile = commands.add_parser(
        "profile", help="run a small instrumented workload, print spans + metrics"
    )
    profile.add_argument("--seed", type=int, default=1, help="simulation seed")
    profile.add_argument("--devices", type=int, default=4, help="fleet size")
    profile.add_argument("--months", type=int, default=3, help="aging months")
    profile.add_argument(
        "--measurements", type=int, default=200, help="monthly block size"
    )
    profile.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel worker processes for the campaign part (1 = serial; "
        "spans and phase attribution merge identically at any count)",
    )
    profile.add_argument(
        "--cycles", type=int, default=3, help="testbed power cycles to simulate"
    )
    profile.add_argument(
        "--prometheus",
        metavar="PATH",
        help="also dump the metrics registry as Prometheus text exposition",
    )
    profile.add_argument(
        "--metrics-jsonl",
        metavar="PATH",
        help="also append a metrics snapshot line to a JSONL file",
    )
    profile.set_defaults(handler=_cmd_profile)

    run = commands.add_parser(
        "run",
        help="run the monitored campaign with artifacts and checkpoint/resume",
    )
    _add_study_arguments(run)
    run.add_argument(
        "--save",
        default="campaign.json",
        help="campaign artifact destination (manifest and alert log are "
        "written alongside)",
    )
    run.add_argument(
        "--alerts",
        metavar="PATH",
        help="alert log destination (default: <save>.alerts.jsonl)",
    )
    run.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="write a resumable checkpoint after every month: one shard "
        "per worker under DIR/shards/ plus a parent manifest and month "
        "log (see docs/storage.md)",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="continue from the last complete checkpoint in --checkpoint-dir "
        "(a legacy campaign-scoped directory is finished without writing "
        "to it)",
    )
    run.add_argument(
        "--abort-after-month",
        type=int,
        default=None,
        metavar="M",
        help="interrupt deterministically after month M's checkpoint and "
        "exit 3 (requires --checkpoint-dir)",
    )
    run.add_argument(
        "--keyframe-every",
        type=int,
        default=DEFAULT_KEYFRAME_EVERY,
        metavar="K",
        help="full-state checkpoint keyframe cadence; months in between "
        "store payload-free delta markers (default: %(default)s)",
    )
    run.add_argument(
        "--rollup-shards",
        type=int,
        default=None,
        metavar="N",
        help="logical shard count of the hierarchical rollup layer "
        "(default: min(8, devices); independent of --workers)",
    )
    run.add_argument(
        "--fail-board",
        type=int,
        default=None,
        metavar="B",
        help="fault injection: crash the worker before simulating board B "
        "and dump the flight recorder",
    )
    run.add_argument(
        "--heartbeat-every",
        type=int,
        default=1,
        metavar="K",
        help="emit a heartbeat line every K snapshots (default: 1)",
    )
    run.set_defaults(handler=_cmd_run)

    status = commands.add_parser(
        "status", help="live text dashboard of a (running) monitored campaign"
    )
    status.add_argument(
        "target", help="campaign artifact path the run was saved to (--save)"
    )
    status.add_argument(
        "--once",
        action="store_true",
        help="render one dashboard frame and exit (default: refresh forever)",
    )
    status.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between refreshes (default: 2.0)",
    )
    status.set_defaults(handler=_cmd_status)

    store = commands.add_parser(
        "store",
        help="artifact-store maintenance (inspect, compact, merge directories)",
    )
    store_actions = store.add_subparsers(dest="action", required=True)
    inspect = store_actions.add_parser(
        "inspect",
        help="list an artifact directory's files, versions and integrity",
    )
    inspect.add_argument("path", help="artifact directory to inspect")
    inspect.add_argument(
        "--clean",
        action="store_true",
        help="delete stray *.tmp files left by interrupted writes",
    )
    inspect.add_argument(
        "--deep",
        action="store_true",
        help="additionally parse every checkpoint and validate the "
        "keyframe/delta chain",
    )
    inspect.set_defaults(handler=_cmd_store_inspect)
    compact = store_actions.add_parser(
        "compact",
        help="prune checkpoint months older than the newest keyframe(s)",
    )
    compact.add_argument("path", help="checkpoint directory to compact")
    compact.add_argument(
        "--keep-keyframes",
        type=int,
        default=1,
        metavar="N",
        help="how many of the newest keyframes (and everything after "
        "the oldest kept one) to retain (default: 1)",
    )
    compact.set_defaults(handler=_cmd_store_compact)
    merge = store_actions.add_parser(
        "merge",
        help="reassemble one campaign artifact from a sharded checkpoint "
        "directory's shard streams",
    )
    merge.add_argument("path", help="sharded checkpoint directory to merge")
    merge.add_argument(
        "-o",
        "--out",
        required=True,
        metavar="PATH",
        help="merged campaign artifact destination",
    )
    merge.set_defaults(handler=_cmd_store_merge)

    from repro.store.bench import BENCH_LEDGER_NAME, DEFAULT_THRESHOLD

    bench = commands.add_parser(
        "bench",
        help="perf-regression ledger: record / compare / list perfbench runs",
    )
    bench_actions = bench.add_subparsers(dest="action", required=True)
    bench_record = bench_actions.add_parser(
        "record", help="append saved perfbench/run.py outputs to the ledger"
    )
    bench_record.add_argument(
        "outputs",
        nargs="+",
        metavar="OUTPUT",
        help="saved stdout of one untraced perfbench/run.py run",
    )
    bench_compare = bench_actions.add_parser(
        "compare",
        help="compare each benchmark's newest ledger run against the previous "
        "one on this host; exit 5 on regression",
    )
    bench_compare.add_argument(
        "--bench",
        action="append",
        metavar="NAME",
        help="benchmark to compare (repeatable; default: all in the ledger)",
    )
    bench_compare.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        metavar="T",
        help="relative change tolerated before a metric counts as regressed "
        f"(default: {DEFAULT_THRESHOLD})",
    )
    bench_list = bench_actions.add_parser("list", help="show the ledger history")
    bench_list.add_argument(
        "--bench",
        action="append",
        metavar="NAME",
        help="only show ledger runs of this benchmark",
    )
    for bench_sub in (bench_record, bench_compare, bench_list):
        bench_sub.add_argument(
            "--ledger",
            default=BENCH_LEDGER_NAME,
            metavar="PATH",
            help=f"ledger file (default: ./{BENCH_LEDGER_NAME})",
        )
    bench.set_defaults(handler=_cmd_bench)

    monitor = commands.add_parser(
        "monitor", help="replay a saved campaign through the alert engine"
    )
    monitor.add_argument("campaign", help="campaign JSON written by fig6 --save")
    monitor.add_argument(
        "--alerts",
        metavar="PATH",
        help="alert log destination (default: <campaign>.alerts.jsonl)",
    )
    monitor.add_argument(
        "--fail-on",
        choices=["info", "warning", "critical"],
        help="exit nonzero when an alert at or above this severity fired",
    )
    monitor.set_defaults(handler=_cmd_monitor)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    init_logging(args.verbose)
    tracing_before = tracing_enabled()
    profiling_before = profiling_enabled()
    if args.trace_json or args.trace_chrome:
        set_tracing(True)
    try:
        code = args.handler(args)
        if args.trace_json:
            get_tracer().export_json(args.trace_json)
            print(f"trace written to {args.trace_json}")
        if args.trace_chrome:
            get_tracer().export_chrome(args.trace_chrome)
            print(f"chrome trace written to {args.trace_chrome}")
    except ConfigurationError as exc:
        # Bad flag combinations and registry misses (e.g. --profile
        # with an unknown name) are usage errors, not crashes.
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    finally:
        # Commands may enable tracing/profiling themselves (profile
        # does); leave the process-global state as we found it.
        set_tracing(tracing_before)
        set_profiling(profiling_before)
    return code


if __name__ == "__main__":
    sys.exit(main())
