"""Mergeable streaming rollup summaries for hierarchical observability.

A 100k-device fleet cannot keep one metric series per device.  Instead,
the campaign driver folds each assembled month's per-device statistics
into a small per-shard **rollup summary**
(:func:`evaluation_shard_docs`) and merges the shard summaries
associatively into fleet-level views (:func:`fold_rollup_docs`).  The
monitor layer then polls O(shards) rollups instead of O(devices)
series.

Bit-identity is the design constraint: every execution path must give
byte-identical registries, so the merge must be exact under *any*
grouping of observations.  Floating-point accumulation is not
associative, so :class:`RollupSummary` keeps its accumulators exact:

* ``count`` — int;
* ``sum`` and ``sumsq`` — dyadic rationals (an integer numerator over a
  power-of-two denominator; every float is one, and dyadic addition is
  exact and associative), exposed as :class:`fractions.Fraction`;
* ``min``/``max`` — floats (min/max are associative as-is);
* quantiles — a deterministic fixed-bin sketch: integer counts over a
  pinned, monotonically increasing bound tuple.

A whole column of observations folds in one batched step
(:meth:`RollupSummary.observe_many`): the exact sums come from the
values' integer mantissas, the bins from one sorted search, and the
documents are the ones observing each value in turn would give.

Derived statistics (mean, variance via M2, p50/p99) are *finalized*
from the exact accumulators, so every merge grouping yields the same
float down to the last bit.  Population variance matches
``numpy.var(values)`` (``ddof=0``) exactly for streams of floats.

Examples
--------
>>> a = RollupSummary(bounds=UNIT_BOUNDS)
>>> b = RollupSummary(bounds=UNIT_BOUNDS)
>>> for v in (0.1, 0.2, 0.3):
...     a.observe(v)
>>> for v in (0.4, 0.5):
...     b.observe(v)
>>> merged = RollupSummary(bounds=UNIT_BOUNDS)
>>> merged.merge(a)
>>> merged.merge(b)
>>> merged.count, round(merged.mean, 12)
(5, 0.3)
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.telemetry.labels import Labels, labeled_name, parse_labeled_name

#: Quality statistics live in [0, 1]; 128 uniform bins give ~0.8%
#: quantile resolution, plenty for alerting thresholds.
UNIT_BOUNDS: Tuple[float, ...] = tuple(i / 128 for i in range(1, 129))

#: Resource telemetry (KiB of RSS, seconds of wall/CPU) spans decades;
#: log-spaced bounds from 1e-3 to 1e7 at 8 bins per decade.
WIDE_BOUNDS: Tuple[float, ...] = tuple(10 ** (k / 8) for k in range(-24, 57))

#: Per-board scalar statistics rolled up each month: the metric columns
#: of :class:`repro.analysis.monthly.FleetMonthMetrics`, in document
#: order.
ROLLUP_STATS: Tuple[str, ...] = ("wchd", "fhw", "stable_ratio", "noise_entropy")


#: Already-validated bound tuples, interned so the strictly-increasing
#: check runs once per distinct tuple, not once per summary (hot path:
#: every ``from_doc`` during a month's merge builds summaries).
_BOUNDS_CACHE: Dict[Tuple[float, ...], Tuple[float, ...]] = {}


def _validate_bounds(bounds: Sequence[float]) -> Tuple[float, ...]:
    """Pin and validate a sketch bound tuple (strictly increasing)."""
    key = bounds if type(bounds) is tuple else tuple(bounds)
    cached = _BOUNDS_CACHE.get(key)
    if cached is not None:
        return cached
    out = tuple(float(b) for b in key)
    cached = _BOUNDS_CACHE.get(out)
    if cached is not None:
        _BOUNDS_CACHE[key] = cached
        return cached
    if not out:
        raise ConfigurationError("rollup sketch needs at least one bound")
    for lo, hi in zip(out, out[1:]):
        if not lo < hi:
            raise ConfigurationError(
                f"rollup sketch bounds must be strictly increasing, got {lo} >= {hi}"
            )
    _BOUNDS_CACHE[out] = out
    return out


def _shift_pair(numerator: int, denominator: int) -> Tuple[int, int]:
    """Decompose ``numerator / denominator`` into a ``(n, s)`` dyadic pair.

    Observations are Python floats, so every exact accumulator in this
    module is a **dyadic rational**: an integer numerator over a
    power-of-two denominator (``float.as_integer_ratio`` guarantees
    this).  ``(n, s)`` encodes ``n / 2**s``; adding two such pairs is a
    bit-shift plus an integer add — far cheaper than ``Fraction``
    arithmetic, and exactly as associative.
    """
    if denominator <= 0 or denominator & (denominator - 1):
        raise ConfigurationError(
            "rollup accumulators are dyadic rationals; denominator "
            f"{denominator} is not a power of two"
        )
    return numerator, denominator.bit_length() - 1


def _shift_add(n_a: int, s_a: int, n_b: int, s_b: int) -> Tuple[int, int]:
    """Exactly add two dyadic pairs ``n/2**s`` (associative, commutative)."""
    if s_a >= s_b:
        return n_a + (n_b << (s_a - s_b)), s_a
    return (n_a << (s_b - s_a)) + n_b, s_b


def _dyadic(n: int, s: int) -> Tuple[int, int]:
    """``n * 2**-s`` as a dyadic pair with a non-negative exponent."""
    return (n, s) if s >= 0 else (n << -s, 0)


def _exact_sums(values: np.ndarray) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """The exact sum and sum of squares of finite float64 ``values``.

    Each value is ``M * 2**(e - 53)`` with ``M`` the integer mantissa
    :func:`numpy.frexp` gives (``|M| < 2**53``).  Shifted to the
    smallest exponent, the mantissas add as Python ints with no
    rounding, so both dyadic pairs equal the scalar
    :meth:`RollupSummary.observe` fold's.
    """
    mantissas, exponents = np.frexp(values)
    ints = np.ldexp(mantissas, 53).astype(np.int64).tolist()
    base = int(exponents.min())
    shifts = exponents - base
    total = sum(map(operator.lshift, ints, shifts.tolist()))
    squares = sum(
        map(operator.lshift, map(operator.mul, ints, ints), (2 * shifts).tolist())
    )
    return _dyadic(total, 53 - base), _dyadic(squares, 106 - 2 * base)


#: The sketch bounds as float64 arrays, for the batched bin search.
_BOUNDS_ARRAYS: Dict[Tuple[float, ...], np.ndarray] = {}


def _bounds_array(bounds: Tuple[float, ...]) -> np.ndarray:
    array = _BOUNDS_ARRAYS.get(bounds)
    if array is None:
        array = _BOUNDS_ARRAYS[bounds] = np.asarray(bounds, dtype=np.float64)
    return array


class RollupSummary:
    """One mergeable summary: exact moments plus a fixed-bin sketch.

    Accumulators are exact — integer counts plus dyadic-rational sums
    (integer numerator over a power-of-two exponent, see
    :func:`_shift_pair`) — so ``merge`` is associative and commutative
    and finalized statistics are bit-identical under any grouping of
    the same observations.  :attr:`sum` and :attr:`sumsq` expose the
    accumulators as :class:`fractions.Fraction` for finalization.
    """

    __slots__ = (
        "bounds",
        "count",
        "_sum_n",
        "_sum_s",
        "_sq_n",
        "_sq_s",
        "min",
        "max",
        "bin_counts",
    )

    def __init__(self, bounds: Sequence[float] = UNIT_BOUNDS):
        self.bounds = _validate_bounds(bounds)
        self.count: int = 0
        self._sum_n: int = 0
        self._sum_s: int = 0
        self._sq_n: int = 0
        self._sq_s: int = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.bin_counts: List[int] = [0] * (len(self.bounds) + 1)

    @property
    def sum(self) -> Fraction:
        """Exact sum of all observations, as a :class:`Fraction`."""
        return Fraction(self._sum_n, 1 << self._sum_s)

    @property
    def sumsq(self) -> Fraction:
        """Exact sum of squared observations, as a :class:`Fraction`."""
        return Fraction(self._sq_n, 1 << self._sq_s)

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        n, d = value.as_integer_ratio()
        s = d.bit_length() - 1
        self.count += 1
        self._sum_n, self._sum_s = _shift_add(self._sum_n, self._sum_s, n, s)
        self._sq_n, self._sq_s = _shift_add(self._sq_n, self._sq_s, n * n, 2 * s)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.bin_counts[bisect_left(self.bounds, value)] += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Fold a batch of observations, as observing each in turn would.

        The batch folds in whole-array steps: exact sums from the
        integer mantissas (:func:`_exact_sums`), bins from
        :func:`numpy.searchsorted` (``side="left"``, which is
        :func:`bisect.bisect_left`) and :func:`numpy.bincount`, and the
        first element equal to the batch's extreme as min / max, which
        the scalar fold's strict comparisons also keep (``-0.0`` and
        ``0.0`` tie).  A batch holding NaN or an infinity takes the
        scalar path value by value, which raises where
        :meth:`observe` raises.
        """
        array = np.asarray(
            values if isinstance(values, np.ndarray) else list(values),
            dtype=np.float64,
        ).reshape(-1)
        if not array.size:
            return
        if not np.isfinite(array).all():
            for value in array.tolist():
                self.observe(value)
            return
        (sum_n, sum_s), (sq_n, sq_s) = _exact_sums(array)
        self.count += int(array.size)
        self._sum_n, self._sum_s = _shift_add(self._sum_n, self._sum_s, sum_n, sum_s)
        self._sq_n, self._sq_s = _shift_add(self._sq_n, self._sq_s, sq_n, sq_s)
        low = float(array[array.argmin()])
        if self.min is None or low < self.min:
            self.min = low
        high = float(array[array.argmax()])
        if self.max is None or high > self.max:
            self.max = high
        bins = np.bincount(
            np.searchsorted(_bounds_array(self.bounds), array, side="left"),
            minlength=len(self.bin_counts),
        )
        self.bin_counts[:] = map(operator.add, self.bin_counts, bins.tolist())

    def merge(self, other: "RollupSummary") -> None:
        """Fold ``other`` into this summary (exact, associative)."""
        if other.bounds != self.bounds:
            raise ConfigurationError(
                "cannot merge rollup summaries with different sketch bounds"
            )
        self.count += other.count
        self._sum_n, self._sum_s = _shift_add(
            self._sum_n, self._sum_s, other._sum_n, other._sum_s
        )
        self._sq_n, self._sq_s = _shift_add(
            self._sq_n, self._sq_s, other._sq_n, other._sq_s
        )
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        self.bin_counts[:] = map(operator.add, self.bin_counts, other.bin_counts)

    # -- finalized statistics -------------------------------------------------

    @property
    def mean(self) -> float:
        """Exact mean, finalized to a float (NaN when empty)."""
        if self.count == 0:
            return math.nan
        return float(self.sum / self.count)

    @property
    def m2(self) -> float:
        """Sum of squared deviations from the mean (Welford's M2), exact."""
        if self.count == 0:
            return math.nan
        return float(self.sumsq - self.sum * self.sum / self.count)

    @property
    def variance(self) -> float:
        """Population variance (``ddof=0``, matches ``numpy.var``)."""
        if self.count == 0:
            return math.nan
        return float((self.sumsq - self.sum * self.sum / self.count) / self.count)

    @property
    def std(self) -> float:
        """Population standard deviation."""
        if self.count == 0:
            return math.nan
        return math.sqrt(max(0.0, self.variance))

    def quantile(self, q: float) -> float:
        """Sketch quantile: the upper bound of the bin holding rank ``q``.

        Deterministic by construction — the answer depends only on the
        pinned bounds and the integer bin counts, never on observation
        order.  Returns NaN when empty; the overflow bin reports the
        exact maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, n in enumerate(self.bin_counts):
            seen += n
            if seen >= rank:
                if i >= len(self.bounds):
                    return float(self.max)
                return min(self.bounds[i], float(self.max))
        return float(self.max)

    @property
    def p50(self) -> float:
        """Median estimate from the sketch."""
        return self.quantile(0.5)

    @property
    def p99(self) -> float:
        """99th-percentile estimate from the sketch."""
        return self.quantile(0.99)

    def stat(self, name: str) -> float:
        """Look up a finalized statistic by name (for detector binding)."""
        if name == "count":
            return float(self.count)
        if name == "sum":
            return math.nan if self.count == 0 else float(self.sum)
        if name in ("mean", "m2", "variance", "std", "p50", "p99"):
            return getattr(self, name)
        if name == "min":
            return math.nan if self.min is None else self.min
        if name == "max":
            return math.nan if self.max is None else self.max
        raise ConfigurationError(f"unknown rollup statistic {name!r}")

    # -- wire form ------------------------------------------------------------

    def copy(self) -> "RollupSummary":
        """An independent deep copy (exact accumulators are immutable)."""
        clone = RollupSummary.__new__(RollupSummary)
        clone.bounds = self.bounds
        clone.count = self.count
        clone._sum_n = self._sum_n
        clone._sum_s = self._sum_s
        clone._sq_n = self._sq_n
        clone._sq_s = self._sq_s
        clone.min = self.min
        clone.max = self.max
        clone.bin_counts = list(self.bin_counts)
        return clone

    def to_doc(self) -> Dict[str, object]:
        """JSON-safe document form (Fractions as numerator/denominator)."""
        return {
            "count": self.count,
            "sum_n": self.sum.numerator,
            "sum_d": self.sum.denominator,
            "sq_n": self.sumsq.numerator,
            "sq_d": self.sumsq.denominator,
            "min": self.min,
            "max": self.max,
            "bin_counts": list(self.bin_counts),
            "bounds": list(self.bounds),
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, object]) -> "RollupSummary":
        """Rebuild a summary from :meth:`to_doc` output (exact)."""
        summary = cls(bounds=doc["bounds"])  # type: ignore[arg-type]
        summary.count = int(doc["count"])  # type: ignore[arg-type]
        summary._sum_n, summary._sum_s = _shift_pair(
            int(doc["sum_n"]), int(doc["sum_d"])  # type: ignore[arg-type]
        )
        summary._sq_n, summary._sq_s = _shift_pair(
            int(doc["sq_n"]), int(doc["sq_d"])  # type: ignore[arg-type]
        )
        summary.min = None if doc["min"] is None else float(doc["min"])  # type: ignore[arg-type]
        summary.max = None if doc["max"] is None else float(doc["max"])  # type: ignore[arg-type]
        counts = list(map(int, doc["bin_counts"]))  # type: ignore[call-overload]
        if len(counts) != len(summary.bin_counts):
            raise ConfigurationError("rollup document bin_counts length mismatch")
        summary.bin_counts = counts
        return summary

    def snapshot(self) -> Dict[str, float]:
        """Finalized statistics as a plain dict (for heartbeats/status)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": math.nan if self.min is None else self.min,
            "max": math.nan if self.max is None else self.max,
            "std": self.std,
            "p50": self.p50,
            "p99": self.p99,
        }


class RollupRegistry:
    """Named rollup summaries, keyed by canonical labeled name.

    Names follow the metric convention (``rollup.wchd{scope=shard,shard=3}``)
    so snapshots sort deterministically and the Prometheus exporter can
    reuse the label grammar.
    """

    def __init__(self):
        self._summaries: Dict[str, RollupSummary] = {}
        self._sorted_names: Optional[List[str]] = None

    def summary(
        self,
        base: str,
        labels: Optional[Labels] = None,
        bounds: Sequence[float] = UNIT_BOUNDS,
    ) -> RollupSummary:
        """Get or create the summary for ``base`` + ``labels``.

        ``bounds`` applies on first creation only; later callers get the
        existing summary regardless.
        """
        return self.summary_named(labeled_name(base, labels), bounds)

    def summary_named(
        self, name: str, bounds: Sequence[float] = UNIT_BOUNDS
    ) -> RollupSummary:
        """Get or create the summary under already-canonical ``name``.

        The hot ingestion path (folding per-shard documents whose keys
        are canonical by construction) uses this to skip re-rendering
        the label block every month.
        """
        existing = self._summaries.get(name)
        if existing is not None:
            return existing
        summary = RollupSummary(bounds=bounds)
        self._summaries[name] = summary
        self._sorted_names = None
        return summary

    def get(self, name: str) -> Optional[RollupSummary]:
        """The summary registered under canonical ``name``, if any."""
        return self._summaries.get(name)

    def names(self) -> List[str]:
        """All registered canonical names, sorted (cached between inserts)."""
        if self._sorted_names is None:
            self._sorted_names = sorted(self._summaries)
        return list(self._sorted_names)

    def select(self, base: str, **labels: object) -> List[Tuple[str, RollupSummary]]:
        """Summaries whose base name matches and whose labels include ``labels``.

        Returned sorted by canonical name, so iteration order is
        deterministic across processes and execution paths.
        """
        want = {key: str(value) for key, value in labels.items()}
        prefix = base + "{"
        out = []
        for name in self.names():
            if name != base and not name.startswith(prefix):
                continue
            _, got_labels = parse_labeled_name(name)
            if any(got_labels.get(k) != v for k, v in want.items()):
                continue
            out.append((name, self._summaries[name]))
        return out

    def __len__(self) -> int:
        return len(self._summaries)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Finalized statistics of every summary, keyed by sorted name."""
        return {name: self._summaries[name].snapshot() for name in self.names()}

    def reset(self) -> None:
        """Drop every summary (used between campaigns/tests)."""
        self._summaries.clear()
        self._sorted_names = None


# -- shared ingestion pipeline ------------------------------------------------
#
# The live month, checkpoint-resume replay and offline replay all derive
# a month's shard summaries with ``evaluation_shard_docs`` and fold them
# with ``fold_rollup_docs``, which is what makes every execution path
# produce bit-identical registries.  The summaries never leave the
# process, so they pass as :class:`RollupSummary` objects keyed by
# canonical name; :meth:`RollupSummary.to_doc` is their JSON form.


#: Memoized summary keys — ``rollup_doc_name`` runs once per board per
#: statistic per month, and the label rendering dominates its cost.
_DOC_NAME_CACHE: Dict[Tuple[str, int], str] = {}


def rollup_doc_name(stat: str, shard: int) -> str:
    """Canonical key for one shard-scope statistic."""
    key = (stat, shard)
    name = _DOC_NAME_CACHE.get(key)
    if name is None:
        name = labeled_name(f"rollup.{stat}", {"scope": "shard", "shard": shard})
        _DOC_NAME_CACHE[key] = name
    return name


class ShardRollupBuilder:
    """Incremental accumulator of per-month shard rollup summaries.

    For callers that see a month piece by piece; the campaign derives
    its summaries from the assembled month with
    :func:`evaluation_shard_docs`, which gives the same summaries.
    ``shard_of`` maps a board to its *logical* rollup shard.  Columns
    (:meth:`observe_fleet`, each row labelled with its shard) fold,
    shard by shard, in one batched step per statistic when :meth:`take`
    drains the summaries; :meth:`observe_board` folds one board at a
    time.  Either way the summaries are the ones the per-board fold
    gives.
    """

    def __init__(self, shard_of: Callable[[int], int]):
        self._shard_of = shard_of
        self._summaries: Dict[str, RollupSummary] = {}
        self._pending: List[Tuple[Sequence[int], Mapping[str, np.ndarray]]] = []

    def _summary(self, stat: str, shard: int) -> RollupSummary:
        key = rollup_doc_name(stat, shard)
        summary = self._summaries.get(key)
        if summary is None:
            summary = self._summaries[key] = RollupSummary(bounds=UNIT_BOUNDS)
        return summary

    def observe_board(self, board_id: int, stats: Mapping[str, float]) -> None:
        """Fold one board-month's named statistics into its shard summaries."""
        self._fold_pending()
        shard = self._shard_of(board_id)
        for stat in ROLLUP_STATS:
            self._summary(stat, shard).observe(float(stats[stat]))

    def observe_fleet(
        self, shards: Sequence[int], columns: Mapping[str, np.ndarray]
    ) -> None:
        """Record a run of board-months, one column per statistic.

        Row ``i`` of every column is a board of rollup shard
        ``shards[i]`` (what ``shard_of`` gives for it).  The rows fold in
        :meth:`take` (or before the next :meth:`observe_board`), in
        order, exactly as observing them board by board would.
        """
        self._pending.append((shards, columns))

    def _fold_pending(self) -> None:
        for shards, columns in self._pending:
            _fold_grouped(shards, columns, self._summary)
        self._pending.clear()

    def take(self) -> Dict[str, RollupSummary]:
        """Drain the month's partial summaries (keyed by canonical name)."""
        self._fold_pending()
        summaries = {name: self._summaries[name] for name in sorted(self._summaries)}
        self._summaries.clear()
        return summaries


def _fold_grouped(
    groups: Sequence, columns: Mapping[str, np.ndarray], summary_of: Callable
) -> None:
    """Fold each group's rows of every statistic column in one batch.

    ``groups[i]`` is row ``i``'s group (a rollup shard or a profile
    label); ``summary_of(stat, group)`` is the summary the group's
    rows of ``stat`` fold into.  Boolean masks keep the rows' order.
    """
    labels = np.asarray(groups)
    distinct = np.unique(labels).tolist()
    for group in distinct:
        rows = labels == group if len(distinct) > 1 else slice(None)
        for stat in ROLLUP_STATS:
            summary_of(stat, group).observe_many(
                np.asarray(columns[stat], dtype=np.float64)[rows]
            )


def _grouped_summaries(
    evaluation, groups: Sequence, summary_name: Callable[[str, object], str]
) -> Dict[str, RollupSummary]:
    """Rollup summaries of an evaluation's rows, grouped by ``groups``.

    ``groups[i]`` is row ``i``'s group; ``summary_name(stat, group)``
    names the summary the group's rows of ``stat`` fold into.  Summaries
    are keyed by name, in name order.
    """
    summaries: Dict[str, RollupSummary] = {}

    def summary_of(stat: str, group) -> RollupSummary:
        key = summary_name(stat, group)
        summary = summaries.get(key)
        if summary is None:
            summary = summaries[key] = RollupSummary(bounds=UNIT_BOUNDS)
        return summary

    _fold_grouped(
        groups, {stat: getattr(evaluation, stat) for stat in ROLLUP_STATS}, summary_of
    )
    return {name: summaries[name] for name in sorted(summaries)}


def evaluation_shard_docs(evaluation, shard_count: int) -> Dict[str, RollupSummary]:
    """Shard rollup summaries for one assembled :class:`MonthlyEvaluation`.

    Row ``i`` of an assembled month is the board at fleet position
    ``i``, so the rows split into ``shard_count`` logical rollup shards
    by position (:func:`repro.exec.plan.rollup_shards_of`) — never by
    board id, which an injected fleet chooses freely.  The partition
    depends on the fleet alone, not on the worker count.  The live
    month, resume replay and offline replay
    (:func:`repro.monitor.replay.replay_campaign`) all derive their
    summaries here.
    """
    from repro.exec.plan import rollup_shards_of

    fleet = len(evaluation.board_ids)
    return _grouped_summaries(
        evaluation, rollup_shards_of(range(fleet), fleet, shard_count), rollup_doc_name
    )


#: Memoized profile-scope summary keys, mirroring ``_DOC_NAME_CACHE``.
_PROFILE_DOC_NAME_CACHE: Dict[Tuple[str, str], str] = {}


def profile_rollup_doc_name(stat: str, profile: str) -> str:
    """Canonical key for one profile-cohort statistic.

    Profile-scope summaries ride the same label grammar as shard ones
    (``rollup.wchd{profile=ATmega32u4,scope=profile}``), so
    ``rollup:``-rules can pin a cohort with ``@profile=<name>`` (see
    ``docs/monitoring.md`` and ``docs/population.md``).
    """
    key = (stat, profile)
    name = _PROFILE_DOC_NAME_CACHE.get(key)
    if name is None:
        name = labeled_name(f"rollup.{stat}", {"scope": "profile", "profile": profile})
        _PROFILE_DOC_NAME_CACHE[key] = name
    return name


def evaluation_profile_docs(
    evaluation, profile_of: Callable[[int], str]
) -> Dict[str, RollupSummary]:
    """Profile-cohort rollup summaries for one :class:`MonthlyEvaluation`.

    ``profile_of`` maps a board id to its cohort's profile label (a
    population member's base-profile name).  Only heterogeneous
    campaigns (``StudyConfig.population``) emit these — homogeneous
    runs keep their registries byte-identical to pre-population
    releases.  Derived parent-side from the assembled evaluation, so
    the summaries are identical across worker counts and resume by
    construction, and — like all ``rollup.*`` state — they are excluded
    from checkpoints and rebuilt by resume replay.
    """
    return _grouped_summaries(
        evaluation,
        [profile_of(int(board)) for board in evaluation.board_ids],
        profile_rollup_doc_name,
    )


def combine_rollup_docs(
    summary_maps: Sequence[Mapping[str, RollupSummary]],
) -> Dict[str, RollupSummary]:
    """Exactly merge partial summary maps into new summaries.

    Several partial maps may hold observations of the same logical
    rollup shard; because the merge is exact, the combined summaries
    are independent of how the observations were split.  The inputs
    are left unchanged.
    """
    merged: Dict[str, RollupSummary] = {}
    for summary_map in summary_maps:
        for name in sorted(summary_map):
            partial = summary_map[name]
            existing = merged.get(name)
            if existing is None:
                merged[name] = partial.copy()
            else:
                existing.merge(partial)
    return {name: merged[name] for name in sorted(merged)}


def fold_rollup_docs(
    registry: RollupRegistry, summaries: Mapping[str, RollupSummary], metrics=None
) -> None:
    """Fold one month's shard summaries into ``registry`` and derive fleet scope.

    Every execution path (live month, resume replay, offline replay)
    calls this with identical summaries in identical order, which keeps
    the registry — and the ``rollup.*`` counters it increments — byte
    identical across paths.  The summaries are left unchanged.
    ``metrics`` defaults to the global registry.
    """
    if metrics is None:
        from repro.telemetry.runtime import get_metrics

        metrics = get_metrics()
    observations = 0
    fleet_partials: Dict[str, RollupSummary] = {}
    for name in sorted(summaries):
        partial = summaries[name]
        base, labels = parse_labeled_name(name)
        target = registry.summary_named(name, bounds=partial.bounds)
        target.merge(partial)
        if labels.get("scope") == "shard":
            observations += partial.count
            fleet = fleet_partials.get(base)
            if fleet is None:
                fleet_partials[base] = partial.copy()
            else:
                fleet.merge(partial)
    for base in sorted(fleet_partials):
        partial = fleet_partials[base]
        target = registry.summary(base, {"scope": "fleet"}, bounds=partial.bounds)
        target.merge(partial)
    metrics.counter("rollup.updates").inc()
    metrics.counter("rollup.observations").inc(observations)
