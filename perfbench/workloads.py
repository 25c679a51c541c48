"""The benchmark's workloads: one campaign each, run through the public API.

* ``paper`` — the paper's study (16 boards x 20,480 cells x 24 months x
  1,000 measurements), serial and in memory through
  ``LongTermAssessment.run`` with Table I, then saved.  Nearly all of
  its time is in ``repro.sram``; exec, store and monitor barely run.
* ``paper-durable`` — the same geometry checkpointed on the default
  writer, interrupted after a delta month, finished with
  ``LongTermCampaign.resume`` and saved.  Same kernel work as
  ``paper``, so the difference between the two is the store.
* ``fleet`` — 512 small boards on the sharded store with two spawned
  workers and the default plus hierarchical alert rules, interrupted,
  resumed, merged and saved.  Per-board overhead, O(boards^2) BCHD,
  IPC, shard writes, a large artifact and rollups dominate here.  At
  512 boards a campaign takes about 7 s, so a run holds several; at
  1,024 it takes about 15 s and a run's median rests on one or two.

Each workload sets only the options listed above; ``kernel`` stays at
its default.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Month after which the durable campaigns are interrupted.  Neither is
#: a keyframe month (the default cadence keyframes every 6th month), so
#: resume reloads a keyframe and replays the delta months after it.
PAPER_ABORT_MONTH = 15
FLEET_ABORT_MONTH = 7

#: Table I start values must lie within this share of the paper's.
TABLE1_TOLERANCE = 0.15

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path)
        for name in names
    )


def pinned_digest(group: str, seed: int) -> Optional[str]:
    with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle).get(group, {}).get(str(seed))


def table1_start_errors(table) -> List[str]:
    """Table I start cells farther than the tolerance from the paper."""
    from repro.core.paper import PAPER

    bad = []
    for name, published in PAPER.table_rows().items():
        measured = table[name]
        for column in ("start_avg", "start_worst"):
            expected = getattr(published, column)
            if expected is None or expected == 0.0:
                continue
            error = abs(getattr(measured, column) - expected) / abs(expected)
            if error > TABLE1_TOLERANCE:
                bad.append(f"{name}.{column} off by {100 * error:.1f}%")
    return bad


class Iteration:
    """One campaign through every leg, with its timings and checks."""

    def __init__(self, after_leg: Callable = lambda: None) -> None:
        self.legs: Dict[str, float] = {}
        #: CPU seconds of each leg, this process plus reaped workers.
        self.leg_cpu: Dict[str, float] = {}
        #: What ``after_leg`` returned after each leg, outside its timing.
        self.after: Dict[str, object] = {}
        self.after_leg = after_leg
        self.checks: List[Tuple[str, bool, str]] = []
        self.error: Optional[str] = None
        self.child_cpu_s = 0.0
        self.digest: Optional[str] = None
        self.store_bytes = 0
        self.artifact_bytes = 0
        self.alerts: Optional[int] = None

    @property
    def wall_s(self) -> float:
        return sum(self.legs.values())

    @property
    def cpu_s(self) -> float:
        return sum(self.leg_cpu.values())

    def leg(self, name: str, fn: Callable):
        start, cpu = time.perf_counter(), os.times()
        result = fn()
        self.legs[name] = time.perf_counter() - start
        end = os.times()
        child = (end.children_user + end.children_system) - (
            cpu.children_user + cpu.children_system
        )
        self.child_cpu_s += child
        self.leg_cpu[name] = (end.user + end.system) - (cpu.user + cpu.system) + child
        self.after[name] = self.after_leg()
        return result

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


class Workload:
    """Set-up state of one workload (built before the first measured call).

    Subclass constructors import every module their legs call, so the
    imports count as set-up time and not as part of the first campaign.
    """

    name = ""
    digest_group = ""
    planned_legs: Tuple[str, ...] = ()
    board_months = 0

    def __init__(self, seed: int, workdir: str, max_workers: int):
        self.seed = seed
        self.workdir = workdir
        self.max_workers = max_workers
        self.artifact = os.path.join(workdir, "campaign.json")
        self.checkpoint_dir = os.path.join(workdir, "checkpoints")

    def run_legs(self, it: Iteration, new_executor: Callable) -> None:
        raise NotImplementedError

    def iterate(
        self, new_executor: Callable = lambda: None, after_leg: Callable = lambda: None
    ) -> Iteration:
        """Run the legs from a clean work directory and check the artifact.

        ``new_executor`` gives each pooled leg its executor; ``None``
        lets the campaign build its own spawned pool.  ``after_leg``
        runs after each leg, outside the leg's wall and CPU time.
        """
        from repro.telemetry import reset_telemetry

        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        reset_telemetry()
        it = Iteration(after_leg)
        try:
            self.run_legs(it, new_executor)
        except Exception as exc:  # a failed leg is a failed operation
            it.error = f"{type(exc).__name__}: {exc}"
            return it
        it.artifact_bytes = os.path.getsize(self.artifact)
        it.store_bytes = it.artifact_bytes + (
            tree_bytes(self.checkpoint_dir) if os.path.isdir(self.checkpoint_dir) else 0
        )
        it.digest = sha256_of(self.artifact)
        expected = pinned_digest(self.digest_group, self.seed)
        if expected is not None:
            it.check("artifact digest = pinned reference", it.digest == expected, it.digest)
        return it

    def interrupted_run(self, campaign, **kwargs) -> None:
        from repro.errors import CampaignInterrupted

        try:
            campaign.run(checkpoint_dir=self.checkpoint_dir, **kwargs)
        except CampaignInterrupted:
            return
        raise RuntimeError("abort_after_month did not interrupt the campaign")


class Paper(Workload):
    name = "paper"
    digest_group = "paper-geometry"
    planned_legs = ("assessment", "save")

    def __init__(self, seed, workdir, max_workers):
        super().__init__(seed, workdir, max_workers)
        from repro import LongTermAssessment, StudyConfig  # noqa: F401
        from repro.io.resultstore import save_campaign  # noqa: F401

        self.config = StudyConfig(seed=seed)
        self.board_months = self.config.device_count * self.config.months

    def run_legs(self, it, new_executor):
        from repro import LongTermAssessment
        from repro.io.resultstore import save_campaign

        result = it.leg("assessment", LongTermAssessment(self.config).run)
        it.leg("save", lambda: save_campaign(result.campaign, self.artifact))
        bad = table1_start_errors(result.table)
        it.check("Table I start within 15% of paper", not bad, "; ".join(bad))


class PaperDurable(Workload):
    name = "paper-durable"
    digest_group = "paper-geometry"
    planned_legs = ("run", "resume", "save")

    def __init__(self, seed, workdir, max_workers):
        super().__init__(seed, workdir, max_workers)
        from repro import StudyConfig
        from repro.analysis.campaign import LongTermCampaign  # noqa: F401
        from repro.core.report import build_quality_report  # noqa: F401
        from repro.io.resultstore import save_campaign  # noqa: F401

        defaults = StudyConfig(seed=seed)
        self.board_months = defaults.device_count * defaults.months

    def run_legs(self, it, new_executor):
        from repro.analysis.campaign import LongTermCampaign
        from repro.core.report import build_quality_report
        from repro.io.resultstore import save_campaign

        campaign = LongTermCampaign(random_state=self.seed)
        it.leg(
            "run",
            lambda: self.interrupted_run(campaign, abort_after_month=PAPER_ABORT_MONTH),
        )
        result = it.leg("resume", lambda: LongTermCampaign.resume(self.checkpoint_dir))
        it.leg("save", lambda: save_campaign(result, self.artifact))
        bad = table1_start_errors(build_quality_report(result))
        it.check("Table I start within 15% of paper", not bad, "; ".join(bad))

    def reference_digest(self) -> str:
        """Digest of the same study run serially in memory (no store)."""
        from repro.analysis.campaign import LongTermCampaign
        from repro.io.resultstore import save_campaign

        path = os.path.join(self.workdir, "reference.json")
        save_campaign(LongTermCampaign(random_state=self.seed).run(), path)
        return sha256_of(path)


class Fleet(Workload):
    name = "fleet"
    digest_group = "fleet"
    planned_legs = ("run", "resume", "merge", "save")
    device_count = 512
    months = 8
    measurements = 100

    def __init__(self, seed, workdir, max_workers):
        super().__init__(seed, workdir, max_workers)
        from repro.analysis.campaign import LongTermCampaign  # noqa: F401
        from repro.io.resultstore import save_campaign  # noqa: F401
        from repro.monitor.defaults import default_ruleset, hierarchical_ruleset
        from repro.monitor.hub import MonitorHub  # noqa: F401
        from repro.sram.profiles import ATMEGA32U4
        from repro.store.shardstore import merge_sharded_campaign  # noqa: F401

        self.profile = dataclasses.replace(
            ATMEGA32U4, name="ATmega32u4-fleetbench", sram_bytes=128, read_bytes=64
        )
        self.rules = default_ruleset() + hierarchical_ruleset()
        self.board_months = self.device_count * self.months

    def run_legs(self, it, new_executor):
        from repro.analysis.campaign import LongTermCampaign
        from repro.io.resultstore import save_campaign
        from repro.monitor.hub import MonitorHub
        from repro.store.shardstore import merge_sharded_campaign

        campaign = LongTermCampaign(
            device_count=self.device_count,
            months=self.months,
            measurements=self.measurements,
            profile=self.profile,
            max_workers=self.max_workers,
            shard_store=True,
            random_state=self.seed,
        )
        it.leg(
            "run",
            lambda: self.interrupted_run(
                campaign,
                abort_after_month=FLEET_ABORT_MONTH,
                monitor=MonitorHub(self.rules),
                executor=new_executor(),
            ),
        )
        hub = MonitorHub(self.rules)
        result = it.leg(
            "resume",
            lambda: LongTermCampaign.resume(
                self.checkpoint_dir,
                monitor=hub,
                executor=new_executor(),
                max_workers=self.max_workers,
            ),
        )
        merged = it.leg("merge", lambda: merge_sharded_campaign(self.checkpoint_dir))
        it.leg("save", lambda: save_campaign(merged, self.artifact))
        it.alerts = hub.alert_count
        snapshots = merged.snapshots
        pairs = self.device_count * (self.device_count - 1) // 2
        it.check(
            "merged artifact covers every board and month",
            len(snapshots) == self.months + 1
            and merged.board_ids == list(range(self.device_count))
            and all(len(s.bchd_pairs) == pairs for s in snapshots),
        )
        it.check(
            "resumed result equals the merged one",
            len(result.snapshots) == len(snapshots)
            and all(
                (a.wchd == b.wchd).all() and (a.bchd_pairs == b.bchd_pairs).all()
                for a, b in zip(result.snapshots, snapshots)
            ),
        )


WORKLOADS = {cls.name: cls for cls in (Paper, PaperDurable, Fleet)}
