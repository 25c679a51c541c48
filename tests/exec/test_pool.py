"""WindowPool: one pool lifetime per campaign, sticky lanes, resident slots.

The regression this suite pins down: before :class:`WindowPool`, the
checkpointed month-window driver built a fresh ``ProcessPoolExecutor``
for every month's dispatch.  ``spawn_count`` counts lane start-ups (all
lanes at once count one), so a multi-month campaign through an
injected pool must leave it at 1.  The lanes are sticky — shard ``i``
always runs on lane ``i % n`` — so each shard's boards stay resident
in one worker; the slot tests check that a resident slot is only ever
used for the exact month that follows it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Tuple

import pytest

import repro
from repro.analysis.campaign import LongTermCampaign
from repro.errors import CampaignExecutionError, CampaignInterrupted, ConfigurationError
from repro.exec import windows
from repro.exec.executor import ParallelExecutor, SerialExecutor
from repro.exec.pool import START_METHOD, WindowPool
from repro.exec.windows import WindowSpec, clear_window_cache, run_board_window
from repro.io.resultstore import save_campaign
from repro.sram.profiles import ATMEGA32U4
from repro.telemetry import reset_telemetry

from tests.exec.conftest import InlineWindowPool, assert_campaigns_identical

PARAMS = dict(device_count=3, months=3, measurements=60, temperature_walk_k=1.0)
SEED = 13


def make_campaign(max_workers: int = 1) -> LongTermCampaign:
    return LongTermCampaign(max_workers=max_workers, random_state=SEED, **PARAMS)


@dataclass(frozen=True)
class EchoSpec:
    """Minimal executor work order (module-level: picklable for spawn)."""

    shard_index: int
    payload: int
    board_ids: Tuple[int, ...] = field(default=())


def echo(spec: EchoSpec) -> int:
    return spec.payload * 2


def boom(spec: EchoSpec) -> int:
    raise ValueError("window exploded")


class TestValidation:
    def test_max_workers_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="max_workers"):
            WindowPool(0)



class TestAdopt:
    def test_caller_owned_pool_passes_through(self):
        pool = WindowPool(2)
        assert WindowPool.adopt(pool) is pool

    def test_single_worker_executor_passes_through(self):
        serial = SerialExecutor()
        assert WindowPool.adopt(serial) is serial

    def test_multi_worker_executor_is_wrapped(self):
        adopted = WindowPool.adopt(ParallelExecutor(max_workers=2))
        assert isinstance(adopted, WindowPool)
        assert adopted.max_workers == 2


class TestDispatch:
    def test_single_worker_runs_inline_without_spawning(self):
        pool = WindowPool(1)
        specs = [EchoSpec(i, i) for i in range(3)]
        assert pool.run_tasks(echo, specs) == [0, 2, 4]
        assert pool.spawn_count == 0

    def test_single_spec_runs_inline_even_on_wide_pool(self):
        pool = WindowPool(4)
        assert pool.run_tasks(echo, [EchoSpec(0, 21)]) == [42]
        assert pool.spawn_count == 0
        pool.close()

    def test_empty_dispatch_is_a_no_op(self):
        pool = WindowPool(4)
        assert pool.run_tasks(echo, []) == []
        assert pool.spawn_count == 0

    def test_pool_survives_repeated_dispatches(self):
        with WindowPool(2) as pool:
            for round_index in range(3):
                specs = [EchoSpec(i, round_index + i) for i in range(2)]
                expected = [(round_index + i) * 2 for i in range(2)]
                assert pool.run_tasks(echo, specs) == expected
            assert pool.spawn_count == 1

    def test_respawn_after_close(self):
        pool = WindowPool(2)
        specs = [EchoSpec(i, i) for i in range(2)]
        pool.run_tasks(echo, specs)
        assert pool.spawn_count == 1
        pool.close()
        pool.close()  # idempotent
        pool.run_tasks(echo, specs)
        assert pool.spawn_count == 2
        pool.close()

    def test_close_leaves_no_lane_process_alive(self):
        before = set(multiprocessing.active_children())
        pool = WindowPool(2)
        pool.run_tasks(echo, [EchoSpec(i, i) for i in range(2)])
        lanes = set(multiprocessing.active_children()) - before
        assert len(lanes) == 2
        pool.close()
        assert not [lane for lane in lanes if lane.is_alive()]
        assert not set(multiprocessing.active_children()) & lanes

    def test_failure_discards_the_pool(self):
        pool = WindowPool(2)
        specs = [EchoSpec(i, i) for i in range(2)]
        pool.run_tasks(echo, specs)
        with pytest.raises(CampaignExecutionError):
            pool.run_tasks(boom, specs)
        # The poisoned pool was dropped; the next dispatch respawns.
        assert pool.run_tasks(echo, specs) == [0, 2]
        assert pool.spawn_count == 2
        pool.close()


SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

needs_forkserver = pytest.mark.skipif(
    START_METHOD != "forkserver" or not os.path.isdir("/proc/self/task"),
    reason="needs forkserver lanes and Linux /proc",
)


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie waiting to be reaped does not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


def _wait_gone(pids, timeout: float = 10.0) -> list:
    """The pids still running after up to ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    running = [pid for pid in pids if _alive(pid)]
    while running and time.monotonic() < deadline:
        time.sleep(0.05)
        running = [pid for pid in running if _alive(pid)]
    return running


#: A process that starts a pool, deletes its TMPDIR with the pool still
#: open and exits; it prints every descendant pid first.
QUIET_EXIT = """
import os, shutil, sys
sys.path[:0] = [{src!r}, {root!r}]
from repro.exec.pool import WindowPool
from tests.exec.closure_probe import ProbeSpec, probe

def descendants(pid):
    found = []
    for task in os.listdir(f"/proc/{{pid}}/task"):
        with open(f"/proc/{{pid}}/task/{{task}}/children") as handle:
            for child in map(int, handle.read().split()):
                found += [child] + descendants(child)
    return found

pool = WindowPool(2)
pool.run_tasks(probe, [ProbeSpec(0), ProbeSpec(1)])
print(descendants(os.getpid()))
shutil.rmtree(os.environ["TMPDIR"])
"""


@needs_forkserver
class TestForkServer:
    def test_exit_after_tmpdir_deleted_is_quiet_and_leaves_no_process(self, tmp_path):
        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()
        env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
        env["TMPDIR"] = str(tmpdir)
        completed = subprocess.run(
            [sys.executable, "-c", QUIET_EXIT.format(src=SRC, root=ROOT)],
            env=env,
            cwd=str(tmp_path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == ""
        descendants = json.loads(completed.stdout)
        assert len(descendants) >= 3  # the server and its two lanes, at least
        assert _wait_gone(descendants) == []
        assert not tmpdir.exists()

    def test_a_killed_server_is_restarted_for_the_next_pool(self, tmp_path):
        from multiprocessing import forkserver

        save_campaign(make_campaign().run(), str(tmp_path / "serial.json"))
        with WindowPool(2) as pool:
            pool.run_tasks(echo, [EchoSpec(i, i) for i in range(2)])
        server = forkserver._forkserver._forkserver_pid
        os.kill(server, signal.SIGKILL)
        # Left unreaped: the stdlib's restart check reaps it.
        assert _wait_gone([server]) == []
        reset_telemetry()
        with WindowPool(2) as pool:
            result = make_campaign(max_workers=2).run(executor=pool)
            assert pool.spawn_count == 1
        assert forkserver._forkserver._forkserver_pid not in (None, server)
        save_campaign(result, str(tmp_path / "pooled.json"))
        assert (tmp_path / "pooled.json").read_bytes() == (tmp_path / "serial.json").read_bytes()


class TestPoolReuseRegression:
    def test_one_spawn_across_a_whole_campaign(self, tmp_path):
        baseline = make_campaign().run()
        with WindowPool(2) as pool:
            result = make_campaign(max_workers=2).run(
                checkpoint_dir=str(tmp_path / "ckpt"), executor=pool
            )
            assert pool.spawn_count == 1
            assert_campaigns_identical(baseline, result)
            # A caller-owned pool stays open across campaigns too.
            again = make_campaign(max_workers=2).run(
                checkpoint_dir=str(tmp_path / "ckpt2"), executor=pool
            )
            assert pool.spawn_count == 1
            assert_campaigns_identical(baseline, again)


class RecordingPool(WindowPool):
    """A real WindowPool that notes every window that restored boards."""

    def __init__(self, max_workers: int):
        super().__init__(max_workers)
        self.restores = []

    def run_tasks(self, fn, specs):
        results = super().run_tasks(fn, specs)
        self.restores.extend(
            (result.shard_index, result.month, result.restored_months)
            for result in results
            if result.restored_months
        )
        return results


def sharded_campaign(seed: int = SEED, **overrides) -> LongTermCampaign:
    params = dict(PARAMS, device_count=4, months=4, max_workers=2)
    params.update(overrides)
    return LongTermCampaign(random_state=seed, **params)


class TestStickyPlacement:
    def test_uninterrupted_campaign_restores_nothing(self, tmp_path):
        baseline = sharded_campaign(max_workers=1).run()
        reset_telemetry()
        with RecordingPool(2) as pool:
            result = sharded_campaign().run(
                checkpoint_dir=str(tmp_path / "ckpt"), executor=pool
            )
            assert pool.spawn_count == 1
        assert pool.restores == []
        assert_campaigns_identical(baseline, result)

    def test_resumed_campaign_restores_once_per_shard(self, tmp_path):
        baseline = sharded_campaign(max_workers=1).run()
        ckpt = str(tmp_path / "ckpt")
        reset_telemetry()
        # One caller-owned pool for both legs: the workers still hold
        # the interrupted run's slots, which the resume must not use.
        with RecordingPool(2) as pool:
            with pytest.raises(CampaignInterrupted):
                sharded_campaign().run(
                    checkpoint_dir=ckpt, executor=pool, abort_after_month=1
                )
            assert pool.restores == []
            reset_telemetry()
            resumed = LongTermCampaign.resume(ckpt, executor=pool)
            assert pool.spawn_count == 1
        # Resume month 2: each shard restores its month-0 keyframe and
        # replays delta month 1, once, and never again.
        assert pool.restores == [(0, 2, (0, 1)), (1, 2, (0, 1))]
        assert_campaigns_identical(baseline, resumed)


def _tree_bytes(root) -> dict:
    """Every file under ``root`` as ``{relative path: bytes}``."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestSlotGuard:
    # One shard is the monolithic case of the checkpoint layout.
    @pytest.mark.parametrize("shards", [1, 2], ids=["monolithic", "sharded"])
    def test_interleaved_campaigns_match_clean_runs(self, tmp_path, shards):
        """A, interrupted; B in full; A resumed — no cache clearing between."""

        def run(seed, name, abort=None, executor=None):
            reset_telemetry()
            campaign = sharded_campaign(seed=seed, max_workers=shards)
            result = campaign.run(
                checkpoint_dir=str(tmp_path / name / "ckpt"),
                executor=executor or InlineWindowPool(shards),
                abort_after_month=abort,
            )
            save_campaign(result, str(tmp_path / name / "campaign.json"))

        run(SEED, "clean-a")
        run(SEED + 1, "clean-b")
        with pytest.raises(CampaignInterrupted):
            run(SEED, "a", abort=1)
        run(SEED + 1, "b")
        reset_telemetry()
        resumed = LongTermCampaign.resume(
            str(tmp_path / "a" / "ckpt"), executor=InlineWindowPool(2)
        )
        save_campaign(resumed, str(tmp_path / "a" / "campaign.json"))
        for clean, mixed in (("clean-a", "a"), ("clean-b", "b")):
            assert _tree_bytes(tmp_path / mixed) == _tree_bytes(tmp_path / clean)

    def test_driver_releases_in_process_slots(self, tmp_path):
        # Windows of a one-worker run keep their slots in this process;
        # the driver must drop them on every exit, interrupts included.
        clear_window_cache()
        ckpt = str(tmp_path / "ckpt")
        with pytest.raises(CampaignInterrupted):
            sharded_campaign().run(
                checkpoint_dir=ckpt, executor=InlineWindowPool(2), abort_after_month=1
            )
        assert windows._SLOTS == {}
        LongTermCampaign.resume(ckpt, executor=InlineWindowPool(2))
        assert windows._SLOTS == {}

    def test_window_out_of_sequence_raises(self):
        def window(month, token="run-a"):
            return WindowSpec(
                shard_index=3,
                month=month,
                root_seed=SEED,
                measurements=20,
                board_ids=(0, 1),
                run_token=token,
                profiles=(ATMEGA32U4,),
                profile_index=(0, 0),
            )

        clear_window_cache()
        try:
            run_board_window(window(0))
            with pytest.raises(CampaignExecutionError) as skipped:
                run_board_window(window(2))
            assert skipped.value.shard_index == 3
            run_board_window(window(0))
            with pytest.raises(CampaignExecutionError) as foreign:
                run_board_window(window(1, token="run-b"))
            assert foreign.value.shard_index == 3
        finally:
            clear_window_cache()
