"""Structured tracing: nested spans with wall and CPU timings.

A :class:`Span` measures one named unit of work; a :class:`Tracer`
arranges the spans a run produces into a tree, renders it as a
profile table and exports it as JSON.  The implementation is pure
standard library (``time``, ``json``) so tracing can be threaded
through every layer of the simulator without adding dependencies.

Tracing is *opt-in*: a disabled tracer hands out a shared no-op span,
so instrumented code pays one attribute check and nothing else.  The
tracer never touches any random stream — enabling or disabling it
cannot change a simulation's scientific output.

Tracing is also *distributed*: a :class:`TraceContext` travels by
value into shard workers (:mod:`repro.exec`), each worker records its
own spans on a private tracer, ships them back as pickle-safe records
(:func:`span_record`), and the campaign driver grafts them under the
dispatching span (:func:`graft_records`) — one campaign, one coherent
tree, regardless of worker count.  :meth:`Tracer.assign_ids` then
numbers the merged tree deterministically (pre-order DFS), giving
every span a stable ``span_id``/``parent_id`` pair, and
:meth:`Tracer.export_chrome` emits the Chrome ``trace_event`` format
that Perfetto and speedscope load directly.

Examples
--------
>>> tracer = Tracer(enabled=True)
>>> with tracer.span("outer"):
...     with tracer.span("inner", month=3):
...         pass
>>> [root.name for root in tracer.roots]
['outer']
>>> tracer.roots[0].children[0].attributes["month"]
3
>>> tracer.assign_ids()
>>> (tracer.roots[0].span_id, tracer.roots[0].children[0].parent_id)
(1, 1)
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError

#: Trace export document version (see :mod:`repro.store.schema`).
TRACE_VERSION = 2


@dataclass(frozen=True)
class TraceContext:
    """Pickle-safe observability context handed to shard workers.

    Carries *values only* — the campaign's trace id plus which layers
    are live — so it pickles to a lane under any start method.  Workers
    never mutate the parent's tracer; they build a private one when
    ``spans`` is set and return records for the parent to graft.
    """

    trace_id: Optional[str] = None
    spans: bool = False
    phases: bool = False

    @property
    def active(self) -> bool:
        """Whether any observability layer is on for workers."""
        return self.spans or self.phases


class Span:
    """One timed, named unit of work inside a span tree.

    Spans are created by :meth:`Tracer.span`; user code only reads
    them back (or annotates the active one) after the fact.
    """

    __slots__ = (
        "name",
        "attributes",
        "children",
        "start_wall",
        "end_wall",
        "start_cpu",
        "end_cpu",
        "span_id",
        "parent_id",
    )

    def __init__(self, name: str, attributes: Optional[Dict[str, Any]] = None):
        if not name:
            raise ConfigurationError("span name cannot be empty")
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}
        self.children: List["Span"] = []
        self.start_wall: float = 0.0
        self.end_wall: Optional[float] = None
        self.start_cpu: float = 0.0
        self.end_cpu: Optional[float] = None
        #: Stable pre-order id within the merged tree; assigned by
        #: :meth:`Tracer.assign_ids` (None until then).
        self.span_id: Optional[int] = None
        #: ``span_id`` of the parent span (None for roots).
        self.parent_id: Optional[int] = None

    def _start(self) -> None:
        self.start_wall = time.perf_counter()
        self.start_cpu = time.process_time()

    def _finish(self) -> None:
        self.end_cpu = time.process_time()
        self.end_wall = time.perf_counter()

    @property
    def finished(self) -> bool:
        """Whether the span has been closed."""
        return self.end_wall is not None

    @property
    def wall_s(self) -> float:
        """Wall-clock duration in seconds (up to now if still open)."""
        end = self.end_wall if self.end_wall is not None else time.perf_counter()
        return end - self.start_wall

    @property
    def cpu_s(self) -> float:
        """CPU time consumed in seconds (up to now if still open)."""
        end = self.end_cpu if self.end_cpu is not None else time.process_time()
        return end - self.start_cpu

    def annotate(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute on this span."""
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation of this span and its subtree."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        state = "finished" if self.finished else "open"
        return f"Span({self.name!r}, {self.wall_s * 1e3:.2f} ms, {state})"


class _NullSpan:
    """Shared no-op stand-in handed out by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def annotate(self, key: str, value: Any) -> None:
        """Discard the annotation (tracing is disabled)."""


NULL_SPAN = _NullSpan()


def span_record(span: Span, epoch: float) -> Dict[str, Any]:
    """Pickle-safe record of ``span``'s subtree for cross-process shipping.

    ``epoch`` is the worker's local time origin (typically the first
    recorded span's ``start_wall``); every ``start_s`` in the record is
    relative to it, so the receiving process can re-base the subtree
    onto its own clock with :func:`graft_records`.  Only plain dicts,
    strings and floats — records survive ``pickle`` under ``spawn``.
    """
    return {
        "name": span.name,
        "attributes": dict(span.attributes),
        "start_s": span.start_wall - epoch,
        "wall_s": span.wall_s,
        "cpu_s": span.cpu_s,
        "children": [span_record(child, epoch) for child in span.children],
    }


def span_from_record(record: Dict[str, Any], base_wall: float) -> Span:
    """Rebuild a :class:`Span` subtree from a :func:`span_record`.

    ``base_wall`` is the receiving process's anchor time (the grafting
    parent's ``start_wall``): worker-relative offsets become absolute
    positions on the parent's timeline, so Chrome exports render the
    grafted work inside the span that dispatched it.
    """
    span = Span(str(record["name"]), record.get("attributes") or {})
    start = base_wall + float(record.get("start_s", 0.0))
    span.start_wall = start
    span.end_wall = start + float(record["wall_s"])
    span.start_cpu = 0.0
    span.end_cpu = float(record["cpu_s"])
    span.children = [
        span_from_record(child, base_wall)
        for child in record.get("children", ())
    ]
    return span


def graft_records(parent: Span, records: List[Dict[str, Any]]) -> None:
    """Attach worker span records as children of ``parent``.

    The caller fixes the order (the campaign driver sorts per-board
    records by board id), which is what makes the merged tree —
    names, structure and ids — identical at any worker count.
    """
    for record in records:
        parent.children.append(span_from_record(record, parent.start_wall))


def chrome_trace_events(
    roots: List[Span], trace_origin: Optional[float] = None
) -> List[Dict[str, Any]]:
    """Chrome ``trace_event`` complete events (``ph: "X"``) for a forest.

    Timestamps are microseconds relative to ``trace_origin`` (default:
    the earliest root start).  Spans carrying a ``board`` attribute get
    their own ``tid`` track (``board + 1``, inherited by descendants),
    so a parallel campaign renders one lane per board in Perfetto
    instead of overlapping slices on a single track.
    """
    if not roots:
        return []
    origin = (
        trace_origin
        if trace_origin is not None
        else min(root.start_wall for root in roots)
    )
    events: List[Dict[str, Any]] = []

    def visit(span: Span, tid: int) -> None:
        if "board" in span.attributes:
            try:
                tid = int(span.attributes["board"]) + 1
            except (TypeError, ValueError):
                pass
        args: Dict[str, Any] = dict(span.attributes)
        if span.span_id is not None:
            args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": round((span.start_wall - origin) * 1e6, 3),
                "dur": round(span.wall_s * 1e6, 3),
                "pid": 0,
                "tid": tid,
                "args": args,
            }
        )
        for child in span.children:
            visit(child, tid)

    for root in roots:
        visit(root, 0)
    return events


class _ActiveSpan:
    """Context manager that pushes/pops one live span on the tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        self._span._start()
        return self._span

    def __exit__(self, *exc_info: Any) -> None:
        self._span._finish()
        self._tracer._pop(self._span)
        return None


class Tracer:
    """Collects spans into per-run trees.

    Parameters
    ----------
    enabled:
        When ``False`` (the default) :meth:`span` returns a shared
        no-op context manager and records nothing.

    Notes
    -----
    The tracer keeps a plain stack, so it assumes single-threaded use —
    which matches the simulator, whose determinism contract already
    rules out free-threaded mutation of shared state.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        #: Correlation key of the run being traced (the campaign's
        #: deterministic ``run_id``); stamped into exports so traces,
        #: alerts and heartbeats join on one key.
        self.trace_id: Optional[str] = None
        self._roots: List[Span] = []
        self._stack: List[Span] = []

    @property
    def roots(self) -> List[Span]:
        """Top-level spans recorded so far (oldest first)."""
        return list(self._roots)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attributes: Any):
        """Open a span: ``with tracer.span("campaign.run"): ...``.

        Keyword arguments become span attributes.  Returns the live
        :class:`Span` when enabled, a no-op otherwise — both support
        ``annotate``.
        """
        if not self.enabled:
            return NULL_SPAN
        return _ActiveSpan(self, Span(name, attributes))

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ConfigurationError(
                f"span {span.name!r} closed out of order (corrupted span stack)"
            )
        self._stack.pop()

    def reset(self) -> None:
        """Drop every recorded span (open spans are abandoned)."""
        self.trace_id = None
        self._roots = []
        self._stack = []

    def assign_ids(self) -> None:
        """Number the span forest deterministically (pre-order DFS).

        Ids depend only on tree *structure* — never on timings or on
        which worker produced a subtree — so the same campaign yields
        the same ids at any worker count.  Re-running after a graft
        renumbers the whole forest consistently.
        """
        counter = [0]

        def visit(span: Span, parent_id: Optional[int]) -> None:
            counter[0] += 1
            span.span_id = counter[0]
            span.parent_id = parent_id
            for child in span.children:
                visit(child, span.span_id)

        for root in self._roots:
            visit(root, None)

    def context(self, phases: bool = False) -> Optional[TraceContext]:
        """The :class:`TraceContext` to hand shard workers, or ``None``.

        ``None`` when nothing is live — specs then pickle exactly as
        they did before the observability layer existed.
        """
        if not self.enabled and not phases:
            return None
        return TraceContext(
            trace_id=self.trace_id, spans=self.enabled, phases=phases
        )

    def to_dicts(self) -> List[Dict[str, Any]]:
        """JSON-ready list of root span trees (ids freshly assigned)."""
        self.assign_ids()
        return [root.to_dict() for root in self._roots]

    def export_json(self, path: str) -> None:
        """Atomically write the span forest to ``path`` as a JSON document."""
        # Imported here: repro.store must stay importable without
        # repro.telemetry (store sits below telemetry in the layering).
        from repro.store.artifact import ArtifactStore

        document = {
            "format": "repro-trace",
            "version": TRACE_VERSION,
            "trace_id": self.trace_id,
            "spans": self.to_dicts(),
        }
        store, name = ArtifactStore.locate(path)
        store.write_json(name, document, indent=2)

    def export_chrome(self, path: str) -> None:
        """Atomically write the forest as Chrome ``trace_event`` JSON.

        The document loads directly in Perfetto (ui.perfetto.dev),
        ``chrome://tracing`` and speedscope: one ``ph: "X"`` complete
        event per span, per-board lanes, span/parent ids in ``args``.
        """
        from repro.store.artifact import ArtifactStore

        self.assign_ids()
        document = {
            "traceEvents": chrome_trace_events(self._roots),
            "displayTimeUnit": "ms",
            "otherData": {
                "format": "repro-trace-chrome",
                "trace_id": self.trace_id,
            },
        }
        store, name = ArtifactStore.locate(path)
        store.write_json(name, document, indent=2)

    def render_tree(self) -> str:
        """Text profile table: one line per span, indented by depth."""
        lines = [
            f"{'span':<44} {'wall':>10} {'cpu':>10} {'% parent':>9}",
            "-" * 76,
        ]
        if not self._roots:
            lines.append("(no spans recorded — was tracing enabled?)")
            return "\n".join(lines)
        for root in self._roots:
            self._render_span(root, depth=0, parent_wall=None, lines=lines)
        return "\n".join(lines)

    def _render_span(
        self,
        span: Span,
        depth: int,
        parent_wall: Optional[float],
        lines: List[str],
    ) -> None:
        label = "  " * depth + span.name
        if span.attributes:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
            label = f"{label} [{pairs}]"
        if len(label) > 44:
            label = label[:41] + "..."
        share = (
            f"{100.0 * span.wall_s / parent_wall:8.1f}%"
            if parent_wall
            else f"{'-':>9}"
        )
        lines.append(
            f"{label:<44} {_format_seconds(span.wall_s):>10} "
            f"{_format_seconds(span.cpu_s):>10} {share}"
        )
        for child in span.children:
            self._render_span(child, depth + 1, span.wall_s, lines)


def _format_seconds(seconds: float) -> str:
    """Human-scale duration: microseconds to seconds."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds:.2f} s"
