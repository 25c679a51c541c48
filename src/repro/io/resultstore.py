"""Campaign result persistence.

A two-year, 16-board campaign takes seconds to *simulate* but its
results still deserve artifacts: :func:`save_campaign` /
:func:`load_campaign` serialise a
:class:`~repro.analysis.campaign.CampaignResult` — references, every
monthly snapshot, the lot — to a single JSON document, so analyses and
reports can be regenerated without re-running the study (or exchanged
with collaborators who do not trust re-simulation).

When a :class:`~repro.telemetry.RunManifest` accompanies the result,
:func:`save_campaign` writes it next to the artifact
(``campaign.json`` -> ``campaign.manifest.json``), making the saved
file self-describing: config, seed, package version, phase timings and
headline numbers travel with the data.  Alerts raised by a monitored
run travel the same way: pass ``alerts`` (e.g.
``hub.alerts``) and they are written as JSON Lines at
``campaign.alerts.jsonl`` (see
:func:`repro.monitor.alerts.alert_log_path_for`).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.errors import StorageError
from repro.io.bitutil import bits_from_hex, bits_to_hex
from repro.store import migrate
from repro.store.artifact import ArtifactStore
from repro.store.codecs import JsonText, encode_json_object
from repro.telemetry import RunManifest, manifest_path_for

FORMAT_VERSION = 1


def _snapshot_fields(snapshot) -> Dict[str, Any]:
    """A snapshot's document fields, in order, arrays still NumPy."""
    return {
        "month": snapshot.month,
        "measurements": snapshot.measurements,
        "board_ids": list(snapshot.board_ids),
        "wchd": snapshot.wchd,
        "fhw": snapshot.fhw,
        "stable_ratio": snapshot.stable_ratio,
        "noise_entropy": snapshot.noise_entropy,
        "bchd_pairs": snapshot.bchd_pairs,
        "puf_entropy": None if np.isnan(snapshot.puf_entropy) else snapshot.puf_entropy,
    }


def _snapshot_to_dict(snapshot) -> Dict[str, Any]:
    return {
        name: value.tolist() if isinstance(value, np.ndarray) else value
        for name, value in _snapshot_fields(snapshot).items()
    }


def encode_snapshot(snapshot) -> str:
    """``json.dumps`` of a snapshot's document, byte for byte.

    The float arrays go through
    :func:`~repro.store.codecs.encode_json_array`, which encodes each
    distinct value once instead of every element's ``repr``.
    """
    return encode_json_object(_snapshot_fields(snapshot))


def _snapshot_from_dict(doc: Dict[str, Any]):
    from repro.analysis.monthly import MonthlyEvaluation

    puf_entropy = doc["puf_entropy"]
    return MonthlyEvaluation(
        month=int(doc["month"]),
        measurements=int(doc["measurements"]),
        board_ids=[int(b) for b in doc["board_ids"]],
        wchd=np.asarray(doc["wchd"], dtype=float),
        fhw=np.asarray(doc["fhw"], dtype=float),
        stable_ratio=np.asarray(doc["stable_ratio"], dtype=float),
        noise_entropy=np.asarray(doc["noise_entropy"], dtype=float),
        bchd_pairs=np.asarray(doc["bchd_pairs"], dtype=float),
        puf_entropy=float("nan") if puf_entropy is None else float(puf_entropy),
    )


def _campaign_head(result) -> Dict[str, Any]:
    """Every campaign document field except the snapshots."""
    return {
        "format_version": FORMAT_VERSION,
        "profile_name": result.profile_name,
        "months": result.months,
        "measurements": result.measurements,
        "board_ids": list(result.board_ids),
        "references": {
            str(board): bits_to_hex(bits) for board, bits in result.references.items()
        },
        "reference_bits": {
            str(board): int(bits.size) for board, bits in result.references.items()
        },
    }


def campaign_to_dict(result) -> Dict[str, Any]:
    """Serialise a campaign result to a plain JSON-ready dict."""
    doc = _campaign_head(result)
    doc["snapshots"] = [_snapshot_to_dict(snap) for snap in result.snapshots]
    return doc


def encode_campaign(result) -> str:
    """``json.dumps(campaign_to_dict(result))``, byte for byte.

    The at-once artifact: the head fields through ``json.dumps`` and
    each snapshot through :func:`encode_snapshot`, without building
    the document's Python float lists.  Each level is joined once, so
    encoding holds little more than the finished text.
    """
    doc = _campaign_head(result)
    doc["snapshots"] = JsonText(
        f"[{', '.join(encode_snapshot(snap) for snap in result.snapshots)}]"
    )
    return encode_json_object(doc)


def campaign_from_dict(doc: Dict[str, Any]):
    """Rebuild a campaign result from :func:`campaign_to_dict` output.

    Documents from older library versions are migrated up front via
    the :mod:`repro.store.schema` dispatch table (e.g. pre-versioning
    v0 artifacts without ``format_version``/``reference_bits``), so
    every artifact ever written by this library keeps loading.
    """
    from repro.analysis.campaign import CampaignResult

    doc = migrate("campaign", doc)
    try:
        references = {
            int(board): bits_from_hex(
                payload, bit_count=int(doc["reference_bits"][board])
            )
            for board, payload in doc["references"].items()
        }
        return CampaignResult(
            profile_name=str(doc["profile_name"]),
            months=int(doc["months"]),
            measurements=int(doc["measurements"]),
            board_ids=[int(b) for b in doc["board_ids"]],
            references=references,
            snapshots=[_snapshot_from_dict(snap) for snap in doc["snapshots"]],
        )
    except StorageError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"malformed campaign document: {exc}") from exc


def save_campaign(
    result,
    path: str,
    manifest: Optional[RunManifest] = None,
    alerts: Optional[Sequence[Any]] = None,
) -> None:
    """Write a campaign result to a JSON file.

    The artifact is one single-line JSON document
    (:func:`encode_campaign`), the only campaign artifact format this
    library writes.  :func:`load_campaign` also reads the JSON Lines
    stream artifacts of older versions (:mod:`repro.store.stream`).

    When ``manifest`` is given it is written alongside, at
    :func:`~repro.telemetry.manifest_path_for` of ``path``.  When
    ``alerts`` (a sequence of :class:`repro.monitor.alerts.Alert`) is
    given — even empty, recording that a monitored run stayed quiet —
    the JSONL alert log is written alongside too.

    All files go through :class:`repro.store.ArtifactStore`, so
    the writes are atomic: a crash mid-save leaves the previous
    artifact intact (plus a detectable ``*.tmp`` stray).
    """
    store, name = ArtifactStore.locate(path)
    store.write_text(name, encode_campaign(result))
    if manifest is not None:
        from repro.io.jsonstore import save_manifest

        save_manifest(manifest, manifest_path_for(path))
    if alerts is not None:
        from repro.monitor.alerts import alert_log_path_for, write_alert_log

        write_alert_log(alerts, alert_log_path_for(path))


def load_campaign(path: str):
    """Read a campaign result written by :func:`save_campaign`.

    Both artifact formats load here: the first line is sniffed — a
    stream header record routes to the read-only reader of legacy
    stream artifacts (:mod:`repro.store.stream`), anything else is
    treated as one JSON document.  (A document's first line either is
    the whole single-line document, which has no ``kind`` field, or
    the ``{`` of an indented one, which is not valid JSON on its own —
    so the sniff cannot misfire.)

    A *directory* with a campaign manifest is a sharded checkpoint
    layout (``docs/storage.md``): the result is reassembled from the
    shard streams on read, identical to what ``repro store merge``
    writes.
    """
    from repro.store.stream import is_stream_header, load_campaign_stream_doc

    if os.path.isdir(path):
        from repro.store.shardstore import is_sharded_checkpoint, merge_sharded_campaign

        if is_sharded_checkpoint(path):
            return merge_sharded_campaign(path)
        raise StorageError(
            f"{path} is a directory without a campaign manifest; "
            "pass an artifact file or a sharded checkpoint directory"
        )
    try:
        with open(path, "r", encoding="utf-8") as handle:
            first_line = handle.readline()
    except OSError as exc:
        raise StorageError(f"cannot load campaign from {path}: {exc}") from exc
    try:
        first_record = json.loads(first_line)
    except json.JSONDecodeError:
        first_record = None
    if is_stream_header(first_record):
        return campaign_from_dict(load_campaign_stream_doc(path))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"cannot load campaign from {path}: {exc}") from exc
    return campaign_from_dict(doc)
