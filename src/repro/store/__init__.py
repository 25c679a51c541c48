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
* :mod:`repro.store.checkpoint` — checkpoint chain documents
  (keyframes + per-month deltas), the one chain scan behind cold
  restore, resume, compaction and chain validation, and the
  parent-side checkpointer.
* :mod:`repro.store.shardstore` — the checkpoint layout: one
  store per worker shard (keyframed v4 chain + results stream), a
  small parent manifest/month log, the one shard-tree reader behind
  the resume scan and the merge-on-read reassembly of ``store merge``.
* :mod:`repro.store.legacy` — read-only parsers of legacy
  campaign-scoped checkpoint directories (schema v1–v3), imported only
  when such a directory is read.
* :mod:`repro.store.stream` — the read-only loader of legacy JSON
  Lines (stream) campaign artifacts.
* :mod:`repro.store.bench` — the append-only perf-regression ledger
  behind ``repro bench`` (record / compare / list).

Names are exported lazily (:mod:`repro._lazy`): a name's module is
imported on first access, so a window worker that persists through
the checkpoint modules never loads the bench ledger, the stream
format or the legacy readers.

Layering: this package sits *below* ``repro.io``, ``repro.monitor``,
``repro.telemetry`` and ``repro.exec`` (they persist through it) and
must not import them at module scope.  See ``docs/storage.md``.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "repro.store.artifact": ("ArtifactStore",),
        "repro.store.atomic": (
            "TMP_SUFFIX",
            "append_line",
            "append_lines",
            "atomic_write_bytes",
            "atomic_write_text",
            "find_stray_tmp_files",
            "truncate_file",
        ),
        "repro.store.bench": (
            "BENCH_LEDGER_NAME",
            "BENCH_VERSION",
            "BenchLedger",
            "git_revision",
            "higher_is_better",
            "host_fingerprint",
            "render_comparison",
        ),
        "repro.store.checkpoint": (
            "DEFAULT_KEYFRAME_EVERY",
            "CampaignCheckpointer",
            "CheckpointState",
            "CounterDeltaRecorder",
            "ShardCheckpointState",
            "ShardedCheckpointState",
            "board_state_doc",
            "build_shard_delta_doc",
            "build_shard_keyframe_doc",
            "checkpoint_chain_report",
            "checkpoint_kind",
            "checkpoint_name",
            "checkpoint_scope",
            "compact_checkpoints",
            "fold_counter_deltas",
            "keyframe_due",
            "list_checkpoints",
            "load_latest_shard_keyframe",
            "parse_shard_checkpoint_doc",
            "parse_shard_delta_doc",
            "restore_chip",
        ),
        "repro.store.codecs": (
            "JsonCodec",
            "JsonLinesCodec",
            "decode_float64_array",
            "encode_float64_array",
            "pack_bits_hex",
            "restore_rng_state",
            "rng_state_doc",
            "unpack_bits_hex",
        ),
        "repro.store.legacy": (
            "DeltaRecord",
            "load_latest_checkpoint",
            "parse_checkpoint_doc",
            "parse_delta_doc",
        ),
        "repro.store.schema": (
            "SCHEMAS",
            "current_version",
            "document_version",
            "migrate",
            "register_migration",
            "schema_field",
        ),
        "repro.store.shardstore": (
            "PARENT_LOG_NAME",
            "SHARDS_DIR",
            "SHARD_MANIFEST_NAME",
            "SHARD_STREAM_NAME",
            "ShardManifest",
            "ShardStoreSpec",
            "append_parent_month_record",
            "build_parent_month_record",
            "is_sharded_checkpoint",
            "load_shard_manifest",
            "load_sharded_checkpoint",
            "merge_sharded_campaign",
            "persist_shard_window",
            "prepare_shard_resume",
            "read_parent_log",
            "read_shard_stream",
            "reset_sharded_layout",
            "shard_root",
            "write_shard_manifest",
        ),
        "repro.store.stream": (
            "is_stream_header",
            "load_campaign_stream_doc",
        ),
    },
)
