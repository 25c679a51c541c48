"""Crash robustness: failures surface structured, nothing is assembled.

A fleet-scale executor that silently dropped a failed board would
corrupt the science (WCHD envelopes over 15 boards instead of 16 look
plausible).  The contract tested here: any worker failure — injected
via the :attr:`~repro.exec.windows.WindowSpec.fail_board` chaos hook,
or raised by the store a window writes to — surfaces as a
:class:`~repro.errors.CampaignExecutionError` that names the board and
shard, survives the process boundary, and aborts the campaign *before*
anything is assembled, observed or reported.  A result that does not
cover its window exactly is refused the same way.
"""

from __future__ import annotations

import dataclasses
import errno
import os

import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.analysis.monthly import FleetMonthMetrics
from repro.errors import CampaignExecutionError
from repro.exec.executor import ParallelExecutor, SerialExecutor
from repro.exec.pool import WindowPool
from repro.exec.windows import WindowSpec, clear_window_cache, run_board_window
from repro.monitor.defaults import default_ruleset
from repro.monitor.hub import MonitorHub
from repro.sram.profiles import ATMEGA32U4
from repro.telemetry import get_metrics, reset_telemetry

MONTHS = 2


def _spec(board_ids, shard_index=0, **overrides) -> WindowSpec:
    spec = dict(
        shard_index=shard_index,
        month=0,
        root_seed=3,
        measurements=50,
        board_ids=tuple(board_ids),
        run_token="crash",
        profiles=(ATMEGA32U4,),
        profile_index=(0,) * len(board_ids),
    )
    spec.update(overrides)
    return WindowSpec(**spec)


@pytest.fixture(autouse=True)
def no_resident_slots():
    clear_window_cache()
    yield
    clear_window_cache()


class TestWorkerFailure:
    def test_injected_fault_names_board_and_shard(self):
        with pytest.raises(CampaignExecutionError) as excinfo:
            run_board_window(_spec([0, 1, 2], shard_index=4, fail_board=1))
        assert excinfo.value.board_id == 1
        assert excinfo.value.shard_index == 4
        assert "board 1" in str(excinfo.value)

    def test_error_attributes_survive_the_process_boundary(self):
        specs = [
            _spec([0, 1], shard_index=0),
            _spec([2, 3], shard_index=1, fail_board=3),
        ]
        with pytest.raises(CampaignExecutionError) as excinfo:
            ParallelExecutor(2).run_tasks(run_board_window, specs)
        assert excinfo.value.board_id == 3
        assert excinfo.value.shard_index == 1

    def test_serial_executor_wraps_failures_identically(self):
        with pytest.raises(CampaignExecutionError) as excinfo:
            SerialExecutor().run_tasks(run_board_window, [_spec([5], fail_board=5)])
        assert excinfo.value.board_id == 5


def _disk_full(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestInlineDispatchIsGuarded:
    """A window that raises a raw error in this process is still named."""

    @pytest.mark.parametrize(
        "executor", [SerialExecutor(), WindowPool(1)], ids=["serial", "pool"]
    )
    def test_full_disk_names_the_shard_and_dumps_the_flight_record(
        self, tmp_path, monkeypatch, executor
    ):
        import repro.exec.windows as windows

        monkeypatch.setattr(windows, "persist_shard_window", _disk_full)
        ckpt = tmp_path / "ckpt"
        campaign = LongTermCampaign(
            device_count=2,
            months=MONTHS,
            measurements=50,
            random_state=3,
        )
        with pytest.raises(CampaignExecutionError) as excinfo:
            campaign.run(checkpoint_dir=str(ckpt), executor=executor)
        assert excinfo.value.shard_index == 0
        assert "No space left on device" in str(excinfo.value)
        assert (ckpt / "flight.json").exists()


class TestNoPartialMerge:
    def test_campaign_aborts_without_merging_or_observing(self, tmp_path):
        reset_telemetry()
        alert_log = tmp_path / "alerts.jsonl"
        hub = MonitorHub(default_ruleset(), alert_log=str(alert_log))
        progress_calls = []
        # Board 3 lives in the second of two shards.
        campaign = LongTermCampaign(
            device_count=4,
            months=MONTHS,
            measurements=50,
            fail_board=3,
            random_state=3,
        )
        with pytest.raises(CampaignExecutionError) as excinfo:
            campaign.run(
                progress=progress_calls.append,
                monitor=hub,
                executor=ParallelExecutor(2),
            )
        assert excinfo.value.board_id == 3
        assert excinfo.value.shard_index == 1
        # Nothing downstream of the failure may have happened: no
        # snapshot observed, no alert written, no progress reported,
        # no snapshot counted, and an in-memory run dumps no flight
        # record of its own.
        assert progress_calls == []
        assert hub.alert_count == 0
        assert not alert_log.exists()
        assert get_metrics().counter("monitor.observations").value == 0
        assert get_metrics().counter("campaign.snapshots").value == 0
        assert list(tmp_path.iterdir()) == []


class TamperingPool(WindowPool):
    """An in-process pool whose ``tamper`` rewrites each month's results."""

    def __init__(self, max_workers, tamper):
        super().__init__(max_workers)
        self.tamper = tamper

    def run_tasks(self, fn, specs):
        return self.tamper([fn(spec) for spec in specs])


def _rows_of(rows, *boards):
    """The rows of ``boards`` (in that order) from a window's record."""
    return rows.take([rows.board_ids.index(board) for board in boards])


def _without(rows, board):
    return _rows_of(rows, *(b for b in rows.board_ids if b != board))


class TestMergeRefusesBadCoverage:
    """The driver checks every window result against its spec's boards."""

    def _run(self, tamper):
        reset_telemetry()
        hub = MonitorHub(default_ruleset())
        campaign = LongTermCampaign(
            device_count=4, months=MONTHS, measurements=50, random_state=3
        )
        with pytest.raises(CampaignExecutionError) as excinfo:
            campaign.run(monitor=hub, executor=TamperingPool(2, tamper))
        # Refused before the month's snapshot was assembled or observed.
        assert get_metrics().counter("campaign.snapshots").value == 0
        assert get_metrics().counter("monitor.observations").value == 0
        return excinfo.value

    def test_missing_board_is_refused(self):
        def drop(results):
            last = results[-1]
            return results[:-1] + [
                dataclasses.replace(last, rows=_without(last.rows, 3))
            ]

        error = self._run(drop)
        assert "boards [3]" in str(error) and "partial fleet" in str(error)
        assert (error.shard_index, error.board_id) == (1, 3)

    def test_duplicate_board_is_refused(self):
        def duplicate(results):
            first, second = results
            rows = FleetMonthMetrics.concat([_rows_of(first.rows, 1), second.rows])
            return [first, dataclasses.replace(second, rows=rows)]

        error = self._run(duplicate)
        assert "unplanned boards [1]" in str(error)
        assert (error.shard_index, error.board_id) == (1, 1)

    def test_unplanned_board_is_refused(self):
        def add(results):
            first, second = results
            extra = dataclasses.replace(_rows_of(second.rows, 3), board_ids=(9,))
            rows = FleetMonthMetrics.concat([second.rows, extra])
            return [first, dataclasses.replace(second, rows=rows)]

        error = self._run(add)
        assert "unplanned boards [9]" in str(error)
        assert (error.shard_index, error.board_id) == (1, 9)

    def test_reordered_boards_are_refused(self):
        def swap(results):
            first, second = results
            rows = _rows_of(second.rows, *reversed(second.rows.board_ids))
            return [first, dataclasses.replace(second, rows=rows)]

        error = self._run(swap)
        assert "rows for boards [3, 2], planned [2, 3]" in str(error)
        assert error.shard_index == 1

    def test_wrong_month_count_is_refused(self):
        def stale(results):
            return [dataclasses.replace(results[0], month=results[0].month + 1)] + (
                results[1:]
            )

        error = self._run(stale)
        assert "returned the result of shard 0, month 1" in str(error)
        assert error.shard_index == 0
