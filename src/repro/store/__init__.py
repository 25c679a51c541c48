"""repro.store — the unified atomic artifact layer.

Every byte the reproduction persists — campaign results, run
manifests, alert logs, heartbeats, metric exports, measurement
databases, trace dumps and campaign checkpoints — flows through this
package:

* :mod:`repro.store.atomic` — tmp+fsync+rename whole-file writes and
  fsync'd line appends; crash residue is detectable (``*.tmp``).
* :mod:`repro.store.codecs` — one canonical encoding per payload
  shape: pinned-format JSON, JSON Lines, hex-packed bit vectors,
  base64 float64 arrays, RNG-state documents.
* :mod:`repro.store.schema` — ``format_version`` dispatch with
  registered single-step migrations; old artifacts load forever.
* :mod:`repro.store.artifact` — :class:`ArtifactStore`, the directory
  owner every writer goes through.
* :mod:`repro.store.checkpoint` — campaign checkpoint/resume
  documents (keyframes + per-month deltas), the per-month
  checkpointer, compaction and chain validation.
* :mod:`repro.store.stream` — the incremental (JSON Lines) campaign
  artifact format and its writer/loader.
* :mod:`repro.store.shardstore` — the sharded campaign layout: one
  store per worker shard (keyframed v4 chain + results stream), a
  small parent manifest/month log, the per-shard resume scan and the
  merge-on-read reassembly behind ``store merge``.
* :mod:`repro.store.bench` — the append-only perf-regression ledger
  behind ``repro bench`` (record / compare / list).

Layering: this package sits *below* ``repro.io``, ``repro.monitor``,
``repro.telemetry`` and ``repro.exec`` (they persist through it) and
must not import them at module scope.  See ``docs/storage.md``.
"""

from repro.store.artifact import ArtifactStore
from repro.store.bench import (
    BENCH_LEDGER_NAME,
    BENCH_VERSION,
    BenchLedger,
    git_revision,
    higher_is_better,
    host_fingerprint,
    render_comparison,
)
from repro.store.atomic import (
    TMP_SUFFIX,
    append_line,
    append_lines,
    atomic_write_bytes,
    atomic_write_text,
    find_stray_tmp_files,
    truncate_file,
)
from repro.store.checkpoint import (
    DEFAULT_KEYFRAME_EVERY,
    CampaignCheckpointer,
    CheckpointState,
    CounterDeltaRecorder,
    DeltaRecord,
    ShardCheckpointState,
    board_state_doc,
    build_checkpoint_doc,
    build_delta_doc,
    build_shard_delta_doc,
    build_shard_keyframe_doc,
    checkpoint_chain_report,
    checkpoint_doc_version,
    checkpoint_kind,
    checkpoint_name,
    checkpoint_scope,
    compact_checkpoints,
    fold_counter_deltas,
    keyframe_due,
    list_checkpoints,
    load_latest_checkpoint,
    load_latest_shard_keyframe,
    parse_checkpoint_doc,
    parse_delta_doc,
    parse_shard_checkpoint_doc,
    parse_shard_delta_doc,
    restore_chip,
)
from repro.store.shardstore import (
    PARENT_LOG_NAME,
    SHARD_MANIFEST_NAME,
    SHARD_STREAM_NAME,
    SHARDS_DIR,
    ShardedCheckpointState,
    ShardManifest,
    ShardStoreSpec,
    append_parent_month_record,
    build_parent_month_record,
    is_sharded_checkpoint,
    load_shard_manifest,
    load_sharded_checkpoint,
    merge_sharded_campaign,
    persist_shard_window,
    prepare_shard_resume,
    read_parent_log,
    read_shard_stream,
    reset_sharded_layout,
    shard_root,
    write_shard_manifest,
)
from repro.store.codecs import (
    JsonCodec,
    JsonLinesCodec,
    decode_float64_array,
    encode_float64_array,
    pack_bits_hex,
    restore_rng_state,
    rng_state_doc,
    unpack_bits_hex,
)
from repro.store.schema import (
    SCHEMAS,
    current_version,
    document_version,
    migrate,
    register_migration,
    schema_field,
)
from repro.store.stream import (
    CampaignStreamWriter,
    is_stream_header,
    load_campaign_stream_doc,
    write_campaign_stream,
)

__all__ = [
    "ArtifactStore",
    "BENCH_LEDGER_NAME",
    "BENCH_VERSION",
    "BenchLedger",
    "CampaignCheckpointer",
    "CampaignStreamWriter",
    "CheckpointState",
    "CounterDeltaRecorder",
    "DEFAULT_KEYFRAME_EVERY",
    "DeltaRecord",
    "JsonCodec",
    "JsonLinesCodec",
    "PARENT_LOG_NAME",
    "SCHEMAS",
    "SHARDS_DIR",
    "SHARD_MANIFEST_NAME",
    "SHARD_STREAM_NAME",
    "ShardCheckpointState",
    "ShardManifest",
    "ShardStoreSpec",
    "ShardedCheckpointState",
    "TMP_SUFFIX",
    "append_parent_month_record",
    "append_line",
    "append_lines",
    "atomic_write_bytes",
    "atomic_write_text",
    "board_state_doc",
    "build_checkpoint_doc",
    "build_delta_doc",
    "build_parent_month_record",
    "build_shard_delta_doc",
    "build_shard_keyframe_doc",
    "checkpoint_chain_report",
    "checkpoint_doc_version",
    "checkpoint_kind",
    "checkpoint_name",
    "checkpoint_scope",
    "compact_checkpoints",
    "current_version",
    "decode_float64_array",
    "document_version",
    "encode_float64_array",
    "find_stray_tmp_files",
    "fold_counter_deltas",
    "keyframe_due",
    "git_revision",
    "higher_is_better",
    "host_fingerprint",
    "is_sharded_checkpoint",
    "is_stream_header",
    "list_checkpoints",
    "load_campaign_stream_doc",
    "load_latest_checkpoint",
    "load_latest_shard_keyframe",
    "load_shard_manifest",
    "load_sharded_checkpoint",
    "merge_sharded_campaign",
    "migrate",
    "pack_bits_hex",
    "parse_checkpoint_doc",
    "parse_delta_doc",
    "parse_shard_checkpoint_doc",
    "parse_shard_delta_doc",
    "persist_shard_window",
    "prepare_shard_resume",
    "read_parent_log",
    "read_shard_stream",
    "register_migration",
    "render_comparison",
    "reset_sharded_layout",
    "restore_chip",
    "shard_root",
    "write_campaign_stream",
    "write_shard_manifest",
    "restore_rng_state",
    "rng_state_doc",
    "schema_field",
    "truncate_file",
    "unpack_bits_hex",
]
