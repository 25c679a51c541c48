"""The distributed-trace merge gate: one coherent tree, any worker count.

A traced campaign dispatches one window per shard and month; each
window records spans on a private tracer and ships them home as
pickle-safe records; the driver grafts them under the month's span and
numbers the merged forest pre-order.  The contract mirrors the scientific one:
the merged tree's *names, attributes, structure and span ids* are
identical at every worker count — only timings differ — and turning
the whole observability layer on changes no campaign output byte.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.exec import executor_for
from repro.telemetry import (
    get_profiler,
    get_tracer,
    reset_telemetry,
    set_profiling,
    set_tracing,
)

from tests.exec.conftest import assert_campaigns_identical, worker_counts

CONFIG = dict(device_count=4, months=2, measurements=80)
SEED = 7

#: (workers) -> (result, shapes, id_rows, phase_snapshot); traced runs
#: are spawn-heavy, so every test reads from one run per worker count.
_RUNS = {}


#: Attributes that legitimately encode the dispatch size ("workers=2");
#: everything else — board, month, devices — must match.
_DISPATCH_ATTRIBUTES = frozenset({"workers"})


def _shape(span):
    """Structure view of a span subtree (no timings, ids or fan-out)."""
    return (
        span.name,
        tuple(
            sorted(
                (k, repr(v))
                for k, v in span.attributes.items()
                if k not in _DISPATCH_ATTRIBUTES
            )
        ),
        tuple(_shape(child) for child in span.children),
    )


def _id_rows(span):
    """(span_id, parent_id, name) rows, pre-order."""
    rows = [(span.span_id, span.parent_id, span.name)]
    for child in span.children:
        rows.extend(_id_rows(child))
    return rows


def _traced_run(workers):
    if workers in _RUNS:
        return _RUNS[workers]
    reset_telemetry()
    set_tracing(True)
    set_profiling(True)
    try:
        campaign = LongTermCampaign(random_state=SEED, **CONFIG)
        result = campaign.run(executor=executor_for(workers))
        tracer = get_tracer()
        tracer.assign_ids()
        shapes = tuple(_shape(root) for root in tracer.roots)
        id_rows = [row for root in tracer.roots for row in _id_rows(root)]
        phases = get_profiler().snapshot()
        _RUNS[workers] = (result, shapes, id_rows, phases)
        return _RUNS[workers]
    finally:
        set_tracing(False)
        set_profiling(False)


class TestMergedTreeDeterminism:
    @pytest.mark.parametrize("workers", [w for w in worker_counts() if w > 1])
    def test_tree_shape_identical_to_single_worker(self, workers):
        _, shape_one, _, _ = _traced_run(1)
        _, shape_many, _, _ = _traced_run(workers)
        assert shape_many == shape_one

    @pytest.mark.parametrize("workers", [w for w in worker_counts() if w > 1])
    def test_span_ids_identical_to_single_worker(self, workers):
        _, _, ids_one, _ = _traced_run(1)
        _, _, ids_many, _ = _traced_run(workers)
        assert ids_many == ids_one

    def test_worker_spans_grafted_with_correct_parentage(self):
        workers = max(worker_counts())
        _, shapes, _, _ = _traced_run(workers)
        (campaign_run,) = [s for s in shapes if s[0] == "campaign.run"]
        months = [c for c in campaign_run[2] if c[0] == "campaign.month"]
        assert [dict(m[1])["month"] for m in months] == ["0", "1", "2"]
        for month in months:
            boards = [c for c in month[2] if c[0] == "worker.board"]
            assert [dict(b[1])["board"] for b in boards] == ["0", "1", "2", "3"]
            for board in boards:
                names = [c[0] for c in board[2]]
                # Measure, then age — except after the last snapshot.
                if month is months[-1]:
                    assert names == ["board.measure"]
                else:
                    assert names == ["board.measure", "board.age"]

    @pytest.mark.parametrize("workers", [w for w in worker_counts() if w > 1])
    def test_phase_attribution_identical_serial_vs_parallel(self, workers):
        _, _, _, phases_one = _traced_run(1)
        _, _, _, phases_many = _traced_run(workers)
        # CPU figures vary run to run; the attribution (which phases,
        # how many calls) must not depend on the worker count.
        calls = lambda snap: {name: s["calls"] for name, s in snap.items()}
        assert calls(phases_many) == calls(phases_one)
        assert {"noise_draw", "powerup", "aging", "metrics"} <= set(phases_one)

    @pytest.mark.parametrize("workers", [w for w in worker_counts() if w > 1])
    def test_campaign_output_identical_across_worker_counts(self, workers):
        result_one, _, _, _ = _traced_run(1)
        result_many, _, _, _ = _traced_run(workers)
        assert_campaigns_identical(result_one, result_many)


class TestObservabilityChangesNothing:
    def test_artifacts_byte_identical_tracing_and_profiling_on_vs_off(self):
        workers = max(worker_counts())
        traced_result, _, _, _ = _traced_run(workers)
        reset_telemetry()
        assert not get_tracer().enabled and not get_profiler().enabled
        plain = LongTermCampaign(random_state=SEED, **CONFIG).run(
            executor=executor_for(workers)
        )
        assert_campaigns_identical(traced_result, plain)
        # The untraced run recorded no spans and no phases.
        assert get_tracer().roots == []
        assert get_profiler().snapshot() == {}


class TestChromeExportFromMergedTree:
    def test_export_has_per_board_lanes_and_ids(self, tmp_path):
        workers = max(worker_counts())
        _traced_run(workers)
        reset_telemetry()
        set_tracing(True)
        try:
            LongTermCampaign(random_state=SEED, **CONFIG).run(
                executor=executor_for(workers)
            )
            path = str(tmp_path / "trace.chrome.json")
            get_tracer().export_chrome(path)
        finally:
            set_tracing(False)
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        events = doc["traceEvents"]
        assert doc["otherData"]["format"] == "repro-trace-chrome"
        board_events = [e for e in events if e["name"] == "worker.board"]
        # One lane per board, one board span per month on it.
        months = CONFIG["months"] + 1
        assert sorted(e["tid"] for e in board_events) == [
            tid for tid in (1, 2, 3, 4) for _ in range(months)
        ]
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0
            assert "span_id" in event["args"]
