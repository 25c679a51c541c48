"""Versioned artifact schemas and the migration dispatch table.

Every persisted document kind carries a version field; readers call
:func:`migrate` before interpreting a document, which walks the
registered single-step migrations until the document reaches the
current version.  Old artifacts therefore load forever: supporting a
new format means bumping the kind's current version and registering
one ``(kind, old_version) -> new_version`` migration, never touching
readers.

A document *without* its version field is version 0 — the pre-store
era.  The shipped ``campaign`` 0 -> 1 migration is the real example:
early campaign artifacts had neither ``format_version`` nor the
``reference_bits`` size map, so the migration stamps the version and
infers each reference's bit count from its hex payload (4 bits per hex
character).
"""

from __future__ import annotations

import copy
import logging
from typing import Any, Callable, Dict, Tuple

from repro.errors import StorageError

logger = logging.getLogger(__name__)

Migration = Callable[[Dict[str, Any]], Dict[str, Any]]

#: Version field name and current version per document kind.
SCHEMAS: Dict[str, Dict[str, Any]] = {
    "campaign": {"field": "format_version", "current": 1},
    "campaign-stream": {"field": "stream_version", "current": 1},
    "manifest": {"field": "manifest_version", "current": 1},
    "checkpoint": {"field": "checkpoint_version", "current": 4},
    "trace": {"field": "version", "current": 2},
    "shard-manifest": {"field": "shard_manifest_version", "current": 1},
    "shard-stream": {"field": "shard_stream_version", "current": 1},
}

_MIGRATIONS: Dict[Tuple[str, int], Migration] = {}


def schema_field(kind: str) -> str:
    """The version field name of a document kind."""
    try:
        return SCHEMAS[kind]["field"]
    except KeyError:
        raise StorageError(f"unknown document kind {kind!r}") from None


def current_version(kind: str) -> int:
    """The version readers and writers speak natively."""
    try:
        return SCHEMAS[kind]["current"]
    except KeyError:
        raise StorageError(f"unknown document kind {kind!r}") from None


def document_version(kind: str, document: Dict[str, Any]) -> int:
    """Version of a loaded document (missing field = version 0)."""
    version = document.get(schema_field(kind), 0)
    if not isinstance(version, int) or isinstance(version, bool):
        raise StorageError(
            f"{kind} document has a non-integer {schema_field(kind)!r}: {version!r}"
        )
    return version


def register_migration(kind: str, from_version: int):
    """Decorator registering a one-step migration for ``kind``.

    The function receives a document at ``from_version`` (it may mutate
    the copy it is handed) and must return the document at
    ``from_version + 1``.
    """
    if kind not in SCHEMAS:
        raise StorageError(f"unknown document kind {kind!r}")

    def decorator(fn: Migration) -> Migration:
        key = (kind, from_version)
        if key in _MIGRATIONS:
            raise StorageError(f"duplicate migration for {kind} v{from_version}")
        _MIGRATIONS[key] = fn
        return fn

    return decorator


def migrate(kind: str, document: Dict[str, Any]) -> Dict[str, Any]:
    """Bring a document to the kind's current version.

    Current-version documents pass through untouched (no copy); older
    ones are deep-copied and stepped through the dispatch table.
    Documents *newer* than this library, or older ones with no
    registered path, raise :class:`~repro.errors.StorageError` — a
    half-understood artifact must never be silently interpreted.
    """
    if not isinstance(document, dict):
        raise StorageError(f"{kind} document must be a JSON object, got {type(document).__name__}")
    target = current_version(kind)
    version = document_version(kind, document)
    if version == target:
        return document
    if version > target:
        raise StorageError(
            f"{kind} document is version {version}, newer than this library's "
            f"{target}; upgrade repro to read it"
        )
    while version < target:
        migration = _MIGRATIONS.get((kind, version))
        if migration is None:
            raise StorageError(
                f"no migration registered for {kind} v{version} -> v{version + 1}"
            )
        logger.info("migrating %s document v%d -> v%d", kind, version, version + 1)
        document = migration(copy.deepcopy(document))
        new_version = document_version(kind, document)
        if new_version != version + 1:
            raise StorageError(
                f"{kind} v{version} migration produced v{new_version}, "
                f"expected v{version + 1}"
            )
        version = new_version
    return document


@register_migration("campaign", 0)
def _campaign_v0_to_v1(document: Dict[str, Any]) -> Dict[str, Any]:
    """Pre-versioning campaign artifacts: stamp v1, infer reference sizes.

    Version-0 artifacts stored references as hex with no explicit bit
    count; hex is 4 bits per character and references were always
    byte-aligned, so the size map is recoverable exactly.
    """
    references = document.get("references")
    if not isinstance(references, dict):
        raise StorageError("campaign v0 document has no references map")
    document.setdefault(
        "reference_bits",
        {board: 4 * len(payload) for board, payload in references.items()},
    )
    document["format_version"] = 1
    return document


@register_migration("checkpoint", 1)
def _checkpoint_v1_to_v2(document: Dict[str, Any]) -> Dict[str, Any]:
    """Cumulative v1 checkpoints become v2 *keyframes*.

    v2 introduced keyframe/delta checkpoints (``docs/storage.md``); a
    v1 file carries the complete campaign state, which is exactly what
    a v2 keyframe is, so the migration only stamps the kind.  Old
    checkpoint directories therefore resume transparently — every v1
    month is a resumable keyframe.
    """
    document["kind"] = "keyframe"
    document["checkpoint_version"] = 2
    return document


@register_migration("checkpoint", 2)
def _checkpoint_v2_to_v3(document: Dict[str, Any]) -> Dict[str, Any]:
    """v2 checkpoints predate heterogeneous fleet populations.

    v3 keyframe configs carry a ``population`` key
    (:class:`~repro.sram.population.PopulationSpec` document, or
    ``None`` for the homogeneous fleet).  A v2 directory is by
    definition homogeneous, so the migration defaults the key and old
    checkpoint directories resume transparently.  Delta documents carry
    no config and only gain the version stamp.
    """
    config = document.get("config")
    if isinstance(config, dict):
        config.setdefault("population", None)
    document["checkpoint_version"] = 3
    return document


@register_migration("checkpoint", 3)
def _checkpoint_v3_to_v4(document: Dict[str, Any]) -> Dict[str, Any]:
    """v3 checkpoints predate sharded per-worker stores.

    v4 introduced *shard-scoped* checkpoint documents (``scope:
    "shard"`` — one keyframed chain per shard directory, see
    ``docs/storage.md``).  Every pre-v4 file was written by the
    parent's single campaign-scoped chain, so the migration stamps
    ``scope: "campaign"`` and those legacy directories stay readable
    (and resumable, without being written to).  Shard chains are the
    only documents written today.
    """
    document.setdefault("scope", "campaign")
    document["checkpoint_version"] = 4
    return document


@register_migration("trace", 1)
def _trace_v1_to_v2(document: Dict[str, Any]) -> Dict[str, Any]:
    """v1 traces predate distributed tracing: no trace id, no span ids.

    v2 added the ``trace_id`` correlation key and per-span
    ``span_id``/``parent_id`` fields.  Old dumps gain a null trace id;
    span ids stay absent (readers treat missing ids as unassigned).
    """
    document.setdefault("trace_id", None)
    document["version"] = 2
    return document


@register_migration("manifest", 0)
def _manifest_v0_to_v1(document: Dict[str, Any]) -> Dict[str, Any]:
    """Pre-versioning run manifests: stamp v1, default optional fields.

    Manifests carried ``manifest_version`` from their first release, so
    a version-0 document is either a hand-edited file or one whose
    version field was stripped in transit.  The identity fields
    (``run_id``, ``created_at``) cannot be invented — without them the
    document is not a provenance record and the migration refuses it —
    but the host descriptors default safely to ``"unknown"``.
    """
    for required in ("run_id", "created_at"):
        if required not in document:
            raise StorageError(
                f"pre-versioning manifest lacks {required!r}; documents "
                "without run identity are unsupported (see docs/storage.md)"
            )
    for descriptor in ("package_version", "python_version", "platform"):
        document.setdefault(descriptor, "unknown")
    document["manifest_version"] = 1
    return document
