"""The headline API: run the paper's study end to end.

:class:`LongTermAssessment` wires the campaign driver, the time-series
extraction and the Table I builder behind one call:

>>> from repro import LongTermAssessment, StudyConfig
>>> result = LongTermAssessment(StudyConfig(device_count=4, months=3)).run()
>>> sorted(result.table.summaries)[:2]
['BCHD', 'HW']

For paper-vs-measured reporting,
:meth:`AssessmentResult.compare_with_paper` lines every Table I cell up
against the published value.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.analysis.campaign import CampaignResult, LongTermCampaign, ProgressCallback
from repro.analysis.timeseries import QualityTimeSeries
from repro.errors import ConfigurationError
from repro.core.config import StudyConfig
from repro.core.paper import PAPER, PaperFacts
from repro.core.report import build_quality_report
from repro.metrics.summary import QualityReport
from repro.telemetry import RunManifest, get_metrics, get_tracer

if TYPE_CHECKING:  # pragma: no cover - typing aid only
    from repro.exec.executor import CampaignExecutor
    from repro.monitor.hub import MonitorHub

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ComparisonRow:
    """One paper-vs-measured cell of the Table I comparison."""

    metric: str
    column: str
    paper_value: float
    measured_value: float

    @property
    def absolute_error(self) -> float:
        """``measured - paper``."""
        return self.measured_value - self.paper_value

    @property
    def relative_error(self) -> float:
        """Absolute error over the paper value.

        ``nan`` when the paper value is 0.0 — a relative error against
        a zero baseline is undefined, and the comparison table renders
        the cell as ``nan`` rather than crashing the whole report.
        """
        if self.paper_value == 0.0:
            return float("nan")
        return self.absolute_error / self.paper_value


@dataclass(frozen=True)
class AssessmentResult:
    """Everything one assessment produced."""

    config: StudyConfig
    campaign: CampaignResult = field(repr=False)
    table: QualityReport
    #: Provenance record of the run (None for hand-built results).
    manifest: Optional[RunManifest] = field(repr=False, default=None, compare=False)

    @property
    def series(self) -> QualityTimeSeries:
        """Fig. 6 time series of the campaign."""
        return QualityTimeSeries(self.campaign)

    def compare_with_paper(self, paper: PaperFacts = PAPER) -> List[ComparisonRow]:
        """Line every Table I cell up against the published value.

        Only cells the paper actually prints are compared (PUF entropy
        has no worst-case column).
        """
        rows: List[ComparisonRow] = []
        for name, published in paper.table_rows().items():
            summary = self.table[name]
            rows.append(ComparisonRow(name, "start_avg", published.start_avg, summary.start_avg))
            rows.append(ComparisonRow(name, "end_avg", published.end_avg, summary.end_avg))
            if published.start_worst is not None:
                rows.append(
                    ComparisonRow(name, "start_worst", published.start_worst, summary.start_worst)
                )
            if published.end_worst is not None:
                rows.append(
                    ComparisonRow(name, "end_worst", published.end_worst, summary.end_worst)
                )
        return rows

    def render_comparison(self, paper: PaperFacts = PAPER) -> str:
        """Text table of the paper-vs-measured comparison."""
        lines = [
            f"{'Metric':<24} {'Cell':<12} {'Paper':>9} {'Measured':>9} {'Error':>8}",
            "-" * 66,
        ]
        for row in self.compare_with_paper(paper):
            lines.append(
                f"{row.metric:<24} {row.column:<12} {100 * row.paper_value:8.2f}% "
                f"{100 * row.measured_value:8.2f}% {100 * row.relative_error:+7.1f}%"
            )
        return "\n".join(lines)


class LongTermAssessment:
    """Run the paper's long-term study on simulated silicon.

    Parameters
    ----------
    config:
        The study description; defaults reproduce the paper.
    """

    def __init__(self, config: Optional[StudyConfig] = None):
        self._config = config if config is not None else StudyConfig()

    @property
    def config(self) -> StudyConfig:
        """The study configuration."""
        return self._config

    def run(
        self,
        progress: Optional[ProgressCallback] = None,
        monitor: Optional["MonitorHub"] = None,
        executor: Optional["CampaignExecutor"] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        abort_after_month: Optional[int] = None,
    ) -> AssessmentResult:
        """Execute the campaign and summarise it.

        ``progress``, ``monitor`` and ``executor`` are forwarded to
        :meth:`~repro.analysis.campaign.LongTermCampaign.run`:
        ``progress`` is called after every monthly snapshot with
        ``(completed, total)``, ``monitor`` (a
        :class:`~repro.monitor.hub.MonitorHub`) evaluates its alert
        rules online as snapshots arrive, and ``executor`` overrides
        the board-sharded execution strategy (by default the config's
        ``max_workers`` decides; results are bit-identical either
        way — see ``docs/parallel.md``).

        ``checkpoint_dir`` turns on per-month campaign checkpoints;
        with ``resume=True`` the campaign instead continues from the
        last complete checkpoint in that directory (the stored config
        takes precedence over this assessment's campaign parameters,
        which must describe the same study).  ``abort_after_month``
        interrupts deterministically after that month's checkpoint —
        see ``docs/storage.md``.

        The returned result carries a
        :class:`~repro.telemetry.RunManifest` describing the run —
        config, seed, package version, per-phase wall times and the
        final Table I numbers — which
        :func:`repro.io.resultstore.save_campaign` persists next to
        the campaign artifact.
        """
        cfg = self._config
        if resume and checkpoint_dir is None:
            raise ConfigurationError("resume=True requires checkpoint_dir")
        manifest = RunManifest.for_config(cfg, command="LongTermAssessment.run")
        tracer = get_tracer()
        # One correlation key: the deterministic run id travels into
        # trace exports, alert lines and heartbeats.
        tracer.trace_id = manifest.run_id
        with tracer.span(
            "assessment.run", devices=cfg.device_count, months=cfg.months
        ):
            campaign = LongTermCampaign(
                device_count=cfg.device_count,
                months=cfg.months,
                measurements=cfg.measurements,
                profile=cfg.profile,
                population=cfg.population,
                statistical=cfg.statistical,
                temperature_walk_k=cfg.temperature_walk_k,
                aging_steps_per_month=cfg.aging_steps_per_month,
                aging_acceleration=cfg.aging_acceleration,
                max_workers=cfg.max_workers,
                keyframe_every=cfg.keyframe_every,
                rollup_shards=cfg.rollup_shards,
                fail_board=cfg.fail_board,
                random_state=cfg.seed,
            )
            phase_start = time.perf_counter()
            if resume:
                result = LongTermCampaign.resume(
                    checkpoint_dir,
                    progress=progress,
                    monitor=monitor,
                    executor=executor,
                    max_workers=cfg.max_workers,
                    abort_after_month=abort_after_month,
                )
            else:
                result = campaign.run(
                    progress=progress,
                    monitor=monitor,
                    executor=executor,
                    checkpoint_dir=checkpoint_dir,
                    abort_after_month=abort_after_month,
                )
            manifest.record_phase("campaign", time.perf_counter() - phase_start)

            phase_start = time.perf_counter()
            with tracer.span("assessment.report"):
                table = build_quality_report(result)
            manifest.record_phase("report", time.perf_counter() - phase_start)

        manifest.metrics = get_metrics().snapshot()
        manifest.summaries = {
            name: {
                "start_avg": summary.start_avg,
                "end_avg": summary.end_avg,
                "start_worst": summary.start_worst,
                "end_worst": summary.end_worst,
            }
            for name, summary in table.summaries.items()
        }
        logger.info(
            "assessment complete: run %s, %.2f s campaign phase",
            manifest.run_id,
            manifest.phases["campaign"],
        )
        return AssessmentResult(
            config=cfg,
            campaign=result,
            table=table,
            manifest=manifest,
        )
