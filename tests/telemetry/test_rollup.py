"""The rollup merge algebra: exactness is the whole point.

The hierarchical observability layer only works because shard rollups
merge *exactly*: any grouping of the same observations — one worker,
two, four, or month-by-month windows — must finalize to bit-identical
statistics.  These tests pin that algebra down: associativity and
commutativity as properties, agreement with numpy on the moments, and
exact document round-trips.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.plan import partition_boards, rollup_shards_of
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.rollup import (
    ROLLUP_STATS,
    UNIT_BOUNDS,
    WIDE_BOUNDS,
    RollupRegistry,
    RollupSummary,
    ShardRollupBuilder,
    combine_rollup_docs,
    evaluation_shard_docs,
    fold_rollup_docs,
)

values = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32),
    min_size=1,
    max_size=40,
)


def summarize(observations) -> RollupSummary:
    summary = RollupSummary(UNIT_BOUNDS)
    summary.observe_many(observations)
    return summary


def docs_of(summaries) -> dict:
    """A name -> summary map in document form, for exact comparison."""
    return {name: summary.to_doc() for name, summary in summaries.items()}


def finalized(summary: RollupSummary) -> tuple:
    return (
        summary.count,
        summary.mean,
        summary.m2,
        summary.variance,
        summary.std,
        summary.min,
        summary.max,
        summary.p50,
        summary.p99,
        tuple(summary.bin_counts),
    )


class TestMergeAlgebra:
    @given(values, values, values)
    @settings(max_examples=60, deadline=None)
    def test_associativity_is_exact(self, a, b, c):
        left = summarize(a)
        left.merge(summarize(b))
        left.merge(summarize(c))

        bc = summarize(b)
        bc.merge(summarize(c))
        right = summarize(a)
        right.merge(bc)

        assert finalized(left) == finalized(right)

    @given(values, values)
    @settings(max_examples=60, deadline=None)
    def test_commutativity_is_exact(self, a, b):
        ab = summarize(a)
        ab.merge(summarize(b))
        ba = summarize(b)
        ba.merge(summarize(a))
        assert finalized(ab) == finalized(ba)

    @given(values)
    @settings(max_examples=60, deadline=None)
    def test_any_grouping_matches_one_pass(self, observations):
        one_pass = summarize(observations)
        for split in (1, max(1, len(observations) // 2)):
            grouped = summarize(observations[:split])
            grouped.merge(summarize(observations[split:]))
            assert finalized(grouped) == finalized(one_pass)

    def test_worker_count_independence(self):
        """The serial ≡ 2-worker ≡ 4-worker identity at summary level."""
        rng = np.random.default_rng(11)
        observations = list(rng.random(64))

        def grouped(parts: int) -> RollupSummary:
            chunks = np.array_split(np.asarray(observations), parts)
            total = summarize(list(chunks[0]))
            for chunk in chunks[1:]:
                total.merge(summarize(list(chunk)))
            return total

        assert finalized(grouped(1)) == finalized(grouped(2)) == finalized(grouped(4))


class TestMoments:
    @given(values)
    @settings(max_examples=60, deadline=None)
    def test_mean_and_variance_agree_with_numpy(self, observations):
        summary = summarize(observations)
        data = np.asarray(observations, dtype=float)
        # Exact rational arithmetic can beat numpy's pairwise summation
        # by an ulp, so the comparison is tight-tolerance, not equality;
        # the equality guarantee is across merge groupings, not vs numpy.
        assert summary.mean == pytest.approx(float(np.mean(data)), abs=1e-12)
        assert summary.variance == pytest.approx(
            float(np.var(data)), rel=1e-9, abs=1e-12
        )

    def test_min_max_are_exact(self):
        summary = summarize([0.5, 0.125, 0.875, 0.25])
        assert summary.min == 0.125
        assert summary.max == 0.875

    def test_empty_summary_statistics_are_nan(self):
        summary = RollupSummary(UNIT_BOUNDS)
        assert summary.count == 0
        assert np.isnan(summary.mean)
        assert np.isnan(summary.p50)
        assert np.isnan(summary.p99)


class TestQuantileSketch:
    def test_quantiles_never_exceed_true_max(self):
        summary = summarize([0.1, 0.2, 0.3])
        assert summary.p99 <= summary.max

    def test_p50_brackets_the_median_bin(self):
        observations = [i / 100 for i in range(1, 101)]
        summary = summarize(observations)
        # Fixed 1/128 bins: the sketch answer is the bin upper bound
        # holding the rank-50 observation.
        assert abs(summary.p50 - 0.5) <= 1 / 128

    def test_wide_bounds_cover_resource_scales(self):
        summary = RollupSummary(WIDE_BOUNDS)
        summary.observe_many([0.001, 1.0, 90000.0])
        assert summary.count == 3
        assert summary.p99 == 90000.0  # overflow bucket answers with max

    def test_deterministic_binning_at_bound(self):
        summary = RollupSummary((0.5, 1.0))
        summary.observe(0.5)  # lands in the first bin (first bound >= value)
        assert summary.bin_counts[0] == 1


class TestDocRoundTrip:
    @given(values)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_exact(self, observations):
        summary = summarize(observations)
        restored = RollupSummary.from_doc(summary.to_doc())
        assert finalized(restored) == finalized(summary)
        assert restored.sum == summary.sum
        assert restored.sumsq == summary.sumsq

    def test_doc_is_json_safe(self):
        import json

        doc = summarize([0.1, 0.9]).to_doc()
        assert json.loads(json.dumps(doc)) == doc


def partition_shard_of(board_count: int, shard_count: int):
    """``board -> shard`` as :func:`partition_boards` places the fleet."""
    partition = partition_boards(range(board_count), shard_count)
    shards = {board: index for index, boards in enumerate(partition) for board in boards}
    return shards.__getitem__


class TestShardPipeline:
    def test_rollup_shard_of_inverts_partition_boards(self):
        for fleet, shards in ((7, 3), (8, 4), (16, 8), (5, 8), (256, 8)):
            shard_of = partition_shard_of(fleet, shards)
            expected = [shard_of(board) for board in range(fleet)]
            assert rollup_shards_of(range(fleet), fleet, shards).tolist() == expected

    def test_builder_matches_evaluation_docs(self):
        """Worker-side builder ≡ parent-side fallback, doc for doc."""

        class FakeEvaluation:
            board_ids = (0, 1, 2, 3)
            wchd = np.array([0.01, 0.02, 0.03, 0.04])
            fhw = np.array([0.6, 0.61, 0.62, 0.63])
            stable_ratio = np.array([0.9, 0.91, 0.92, 0.93])
            noise_entropy = np.array([0.03, 0.031, 0.032, 0.033])

        builder = ShardRollupBuilder(partition_shard_of(4, 2))
        evaluation = FakeEvaluation()
        for i, board in enumerate(evaluation.board_ids):
            builder.observe_board(
                board,
                {stat: float(getattr(evaluation, stat)[i]) for stat in ROLLUP_STATS},
            )
        assert docs_of(builder.take()) == docs_of(evaluation_shard_docs(evaluation, 2))

    def test_combine_is_worker_count_independent(self):
        rng = np.random.default_rng(3)
        stats = [
            {stat: float(rng.random()) for stat in ROLLUP_STATS} for _ in range(8)
        ]

        def docs_for(boards):
            builder = ShardRollupBuilder(partition_shard_of(8, 2))
            for board in boards:
                builder.observe_board(board, stats[board])
            return builder.take()

        halves = [docs_for(range(4)), docs_for(range(4, 8))]
        before = [docs_of(half) for half in halves]
        two = docs_of(combine_rollup_docs(halves))
        four = docs_of(
            combine_rollup_docs([docs_for(range(i, i + 2)) for i in range(0, 8, 2)])
        )
        one = docs_of(combine_rollup_docs([docs_for(range(8))]))
        assert one == two == four
        assert [docs_of(half) for half in halves] == before

    def test_fold_builds_fleet_scope_and_counters(self):
        builder = ShardRollupBuilder(partition_shard_of(4, 2))
        for board in range(4):
            builder.observe_board(
                board, {stat: 0.1 * (board + 1) for stat in ROLLUP_STATS}
            )
        registry = RollupRegistry()
        metrics = MetricsRegistry()
        fold_rollup_docs(registry, builder.take(), metrics=metrics)

        names = registry.names()
        assert "rollup.wchd{scope=fleet}" in names
        assert "rollup.wchd{scope=shard,shard=0}" in names
        assert "rollup.wchd{scope=shard,shard=1}" in names
        fleet = registry.get("rollup.wchd{scope=fleet}")
        assert fleet.count == 4
        snapshot = metrics.snapshot()
        assert snapshot["rollup.updates"]["value"] == 1
        assert snapshot["rollup.observations"]["value"] == 4 * len(ROLLUP_STATS)

    def test_fold_equals_the_document_round_trip(self):
        """Folding summaries gives the registry their documents gave."""
        rng = np.random.default_rng(5)

        class FakeEvaluation:
            board_ids = tuple(range(9))

        for stat in ROLLUP_STATS:
            setattr(FakeEvaluation, stat, rng.random(9))
        direct, round_trip = RollupRegistry(), RollupRegistry()
        metrics = MetricsRegistry(), MetricsRegistry()
        for _ in range(2):
            summaries = evaluation_shard_docs(FakeEvaluation(), 4)
            before = docs_of(summaries)
            fold_rollup_docs(direct, summaries, metrics=metrics[0])
            assert docs_of(summaries) == before
            fold_rollup_docs(
                round_trip,
                {name: RollupSummary.from_doc(doc) for name, doc in before.items()},
                metrics=metrics[1],
            )
        assert direct.names() == round_trip.names()
        for name in direct.names():
            assert doc_text(direct.get(name)) == doc_text(round_trip.get(name))
        assert metrics[0].snapshot() == metrics[1].snapshot()


# -- the batched fold ---------------------------------------------------------

#: Values the fold must treat exactly like the scalar path: signed zeros
#: (which tie under min/max), bin bounds, and floats over the whole
#: exponent range (subnormals to near-overflow).
fold_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1 / 128, 0.5, 1.0, -1.0]),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
batches = st.lists(st.lists(fold_values, max_size=30), max_size=4)
bound_sets = st.sampled_from([UNIT_BOUNDS, WIDE_BOUNDS])


def doc_text(summary: RollupSummary) -> str:
    """The summary document as bytes-comparable text (``-0.0`` != ``0.0``)."""
    return json.dumps(summary.to_doc())


def folded(bounds, batches, batched: bool) -> RollupSummary:
    summary = RollupSummary(bounds)
    for batch in batches:
        if batched:
            summary.observe_many(np.array(batch, dtype=np.float64))
        else:
            for value in batch:
                summary.observe(value)
    return summary


class TestBatchedFold:
    """``observe_many`` on an array ≡ ``observe`` value by value, doc for doc."""

    @settings(max_examples=200, deadline=None)
    @given(bounds=bound_sets, batches=batches)
    def test_batched_doc_equals_per_value_doc(self, bounds, batches):
        assert doc_text(folded(bounds, batches, True)) == doc_text(
            folded(bounds, batches, False)
        )

    @settings(max_examples=100, deadline=None)
    @given(bounds=bound_sets, first=batches, second=batches)
    def test_merge_after_batched_fold(self, bounds, first, second):
        batched = folded(bounds, first, True)
        batched.merge(folded(bounds, second, True))
        scalar = folded(bounds, first, False)
        scalar.merge(folded(bounds, second, False))
        assert doc_text(batched) == doc_text(scalar)
        # And folding on after the merge stays in step too.
        batched.observe_many(np.array([-0.0, 0.25]))
        for value in (-0.0, 0.25):
            scalar.observe(value)
        assert doc_text(batched) == doc_text(scalar)

    @settings(max_examples=100, deadline=None)
    @given(batches=st.lists(st.lists(st.sampled_from([0.0, -0.0]), max_size=6), max_size=3))
    def test_signed_zero_ties_keep_the_first(self, batches):
        batched = folded(UNIT_BOUNDS, batches, True)
        assert doc_text(batched) == doc_text(folded(UNIT_BOUNDS, batches, False))
        for values in ([0.0, -0.0], [-0.0, 0.0]):
            batched = folded(UNIT_BOUNDS, [values], True)
            assert str(batched.min) == str(batched.max) == str(values[0])

    def test_empty_batch_changes_nothing(self):
        summary = RollupSummary(UNIT_BOUNDS)
        summary.observe_many(np.array([], dtype=np.float64))
        summary.observe_many([])
        assert doc_text(summary) == doc_text(RollupSummary(UNIT_BOUNDS))

    @settings(max_examples=100, deadline=None)
    @given(
        batch=st.lists(fold_values, min_size=1, max_size=20),
        bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        data=st.data(),
    )
    def test_non_finite_takes_the_scalar_path(self, batch, bad, data):
        position = data.draw(st.integers(0, len(batch)))
        values = batch[:position] + [bad] + batch[position:]
        scalar = RollupSummary(UNIT_BOUNDS)
        with pytest.raises((ValueError, OverflowError)) as scalar_error:
            for value in values:
                scalar.observe(value)
        batched = RollupSummary(UNIT_BOUNDS)
        with pytest.raises(scalar_error.type):
            batched.observe_many(np.array(values))
        assert doc_text(batched) == doc_text(scalar)

    @settings(max_examples=50, deadline=None)
    @given(
        columns=st.lists(
            st.tuples(*[fold_values] * len(ROLLUP_STATS)), min_size=1, max_size=24
        ),
        shards=st.integers(1, 4),
        data=st.data(),
    )
    def test_builder_fleet_fold_equals_per_board_fold(self, columns, shards, data):
        boards = len(columns)
        split = data.draw(st.integers(0, boards))

        shard_of = partition_shard_of(boards, shards)
        per_board = ShardRollupBuilder(shard_of)
        for board, row in enumerate(columns):
            per_board.observe_board(board, dict(zip(ROLLUP_STATS, row)))
        batched = ShardRollupBuilder(shard_of)
        arrays = {
            stat: np.array([row[i] for row in columns], dtype=np.float64)
            for i, stat in enumerate(ROLLUP_STATS)
        }
        # A recorded column, then single boards, then another column:
        # the fold keeps the boards' order.
        batched.observe_fleet(
            [shard_of(board) for board in range(split)],
            {stat: arrays[stat][:split] for stat in ROLLUP_STATS},
        )
        if split < boards:
            batched.observe_board(
                split, {stat: arrays[stat][split] for stat in ROLLUP_STATS}
            )
            batched.observe_fleet(
                rollup_shards_of(range(split + 1, boards), boards, shards),
                {stat: arrays[stat][split + 1 :] for stat in ROLLUP_STATS},
            )
        assert json.dumps(docs_of(batched.take())) == json.dumps(
            docs_of(per_board.take())
        )
