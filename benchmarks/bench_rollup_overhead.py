"""Rollup overhead: the hierarchical observability layer's CPU cost.

Runs the paper-length monitored study (24 months, a fleet-shaped board
count) with the rollup layer on (shard summaries built and merged every
month, the hierarchical ruleset polling them) and off
(:func:`~repro.telemetry.runtime.set_rollups_enabled`), verifies the
scientific output — every Table I cell — is bit-identical either way,
and records the observability overhead.  The committed result,
``BENCH_rollup_overhead.json`` at the repository root, asserts the
ISSUE-6 budget: hierarchical observability must cost <= 2 % of
campaign CPU time.

Methodology: the overhead is measured by **direct attribution** — the
observability entry points (rollup ingestion, labeled power-up
counting, worker-resource folding, hierarchical hub polling) are
wrapped with ``time.process_time`` accumulators and their summed CPU
time is divided by the whole monitored run's CPU time.  Differencing
two multi-second end-to-end timings is dominated by machine noise on
shared CI runners (scheduler drift, frequency scaling, per-process
layout effects swing runs by several percent, larger than the budget
itself); attribution measures the same cost deterministically.  The
end-to-end on/off pair is still run once for the bit-identity check.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_rollup_overhead.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

from repro.analysis.campaign import LongTermCampaign
from repro.core.assessment import LongTermAssessment
from repro.core.config import StudyConfig
from repro.monitor.defaults import default_ruleset, hierarchical_ruleset
from repro.monitor.hub import MonitorHub
from repro.telemetry import reset_telemetry
from repro.telemetry.runtime import set_rollups_enabled

#: Overhead budget asserted by this bench (ISSUE 6 acceptance).
MAX_OVERHEAD = 0.02

#: The paper's 24-month arc on a fleet-shaped monitored study: enough
#: boards per rollup shard that the per-month fold/poll cost amortizes
#: the way it does at deployment scale.
CONFIG = StudyConfig(
    device_count=16, months=24, measurements=500, seed=1, rollup_shards=4
)

#: Attributed runs; the gate takes the median overhead fraction.
REPEATS = 5
OUTPUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_rollup_overhead.json")

#: Every observability entry point on the campaign hot path.  The driver
#: derives each month's shard rollups from the assembled month inside
#: ``_ingest_rollups``, at any worker count; windows build none, so the
#: set is complete.
ENTRY_POINTS = (
    (LongTermCampaign, "_ingest_rollups"),
    (LongTermCampaign, "_count_labeled_powerups"),
    (LongTermCampaign, "_ingest_worker_resources"),
    (MonitorHub, "observe_rollups"),
)


def _run(rollups_on: bool) -> "tuple":
    """One monitored campaign; returns (cells, alert_count)."""
    reset_telemetry()
    set_rollups_enabled(rollups_on)
    rules = default_ruleset()
    if rollups_on:
        rules = rules + hierarchical_ruleset()
    hub = MonitorHub(rules)
    try:
        result = LongTermAssessment(CONFIG).run(monitor=hub)
    finally:
        set_rollups_enabled(True)
    return _table_cells(result), hub.alert_count


def _attributed_run() -> "tuple":
    """One monitored run with entry points timed; returns CPU seconds.

    Wraps each entry point so its inclusive CPU time accumulates into
    one bucket, runs the campaign, and returns
    ``(total_cpu_s, observability_cpu_s)``.
    """
    spent = [0.0]

    def wrap(method):
        def timed(self, *args, **kwargs):
            start = time.process_time()
            try:
                return method(self, *args, **kwargs)
            finally:
                spent[0] += time.process_time() - start

        return timed

    originals = [(cls, name, getattr(cls, name)) for cls, name in ENTRY_POINTS]
    for cls, name, method in originals:
        setattr(cls, name, wrap(method))
    try:
        reset_telemetry()
        hub = MonitorHub(default_ruleset() + hierarchical_ruleset())
        start = time.process_time()
        LongTermAssessment(CONFIG).run(monitor=hub)
        total = time.process_time() - start
    finally:
        for cls, name, method in originals:
            setattr(cls, name, method)
    return total, spent[0]


def _table_cells(result) -> dict:
    return {
        name: (
            summary.start_avg,
            summary.end_avg,
            summary.start_worst,
            summary.end_worst,
        )
        for name, summary in result.table.summaries.items()
    }


def main() -> int:
    # Bit-identity first: the same study with rollups off, on, and on
    # again must produce the same Table I cells (off vs on: monitoring
    # never touches the science; on vs on: fixed-seed determinism).
    cells_off, _alerts = _run(False)
    cells_on, alert_count = _run(True)
    cells_on_again, _alerts = _run(True)
    if cells_off != cells_on:
        print("FAIL: rollups changed the scientific output", file=sys.stderr)
        return 1
    if cells_on != cells_on_again:
        print("FAIL: run-to-run nondeterminism at fixed seed", file=sys.stderr)
        return 1

    totals, attributed, fractions = [], [], []
    for _ in range(REPEATS):
        total, spent = _attributed_run()
        totals.append(total)
        attributed.append(spent)
        fractions.append(spent / total)
    overhead = statistics.median(fractions)

    document = {
        "bench": "rollup_overhead",
        "config": {
            "device_count": CONFIG.device_count,
            "months": CONFIG.months,
            "measurements": CONFIG.measurements,
            "seed": CONFIG.seed,
            "rollup_shards": CONFIG.rollup_shards,
        },
        "repeats": REPEATS,
        "hierarchical_rules": len(hierarchical_ruleset()),
        "median_total_cpu_s": round(statistics.median(totals), 6),
        "median_observability_cpu_s": round(statistics.median(attributed), 6),
        "overhead_fractions": [round(f, 6) for f in fractions],
        "overhead_fraction": round(overhead, 6),
        "max_overhead_budget": MAX_OVERHEAD,
        "results_identical": True,
        "alerts_last_run": alert_count,
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(json.dumps(document, indent=2))

    if overhead >= MAX_OVERHEAD:
        print(
            f"FAIL: rollup overhead {overhead:.1%} >= budget {MAX_OVERHEAD:.0%}",
            file=sys.stderr,
        )
        return 1
    print(f"OK: rollup overhead {overhead:+.2%} (budget {MAX_OVERHEAD:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
