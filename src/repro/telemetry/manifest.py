"""Run manifests: self-describing records of what a run actually did.

A two-year campaign artifact is only worth archiving if the context
that produced it travels along: which configuration, which seed, which
package version, how long each phase took and what the headline
numbers were.  :class:`RunManifest` bundles exactly that and is
written next to campaign artifacts (see
:func:`repro.io.resultstore.save_campaign` and
:func:`repro.io.jsonstore.save_manifest`), so any result file can be
traced back to a reproducible run.

The manifest deliberately stores only JSON-native values; callers
flatten their config before handing it over
(:meth:`RunManifest.for_config` does this for a
:class:`~repro.core.config.StudyConfig`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform as _platform
import sys
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import StorageError

#: Manifest document schema version.
MANIFEST_VERSION = 1


def _utc_timestamp() -> str:
    """Current UTC time as an ISO-8601 string (second precision)."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


#: Config fields dropped from the flattened config while unset (None).
#: Fields added to StudyConfig *after* artifacts shipped must not
#: retroactively change the run ids of configs that never set them —
#: ``StudyConfig()`` flattens to the same document (and id) it did
#: before the field existed.
_OMIT_WHEN_NONE = frozenset({"population"})


def _flatten_config(config: Any) -> Dict[str, Any]:
    """Flatten a config object to JSON-native values.

    Dataclass fields keep JSON-native values as-is, named objects
    (e.g. a :class:`~repro.sram.profiles.DeviceProfile`) flatten to
    their ``name``, everything else to ``repr``.  Plain dicts pass
    through.
    """
    if dataclasses.is_dataclass(config):
        flat: Dict[str, Any] = {}
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            if value is None and f.name in _OMIT_WHEN_NONE:
                continue
            if isinstance(value, (int, float, str, bool, type(None))):
                flat[f.name] = value
            elif hasattr(value, "manifest_token"):
                # e.g. a PopulationSpec: name alone would let two specs
                # sharing a display name collide, so the token commits
                # to the full document via a content digest.
                flat[f.name] = value.manifest_token
            elif hasattr(value, "name"):
                flat[f.name] = value.name
            else:
                flat[f.name] = repr(value)
        return flat
    if isinstance(config, dict):
        return dict(config)
    return {}


def deterministic_run_id(flat_config: Dict[str, Any]) -> str:
    """Content-derived run id: sha256 of the canonical config, 16 hex chars.

    The id is a pure function of the flattened configuration
    (sorted-key JSON) with the worker count normalised to 1, so the
    same study produces the same id whether it runs straight through,
    resumed from a checkpoint, serial or parallel — which is what lets
    alert logs and heartbeats carry the id while staying byte-identical
    across those equivalence gates.
    """
    flat = dict(flat_config)
    if "max_workers" in flat:
        # The worker count changes how a run executes, never its bytes;
        # 1 is its default, so serial ids are what they always were.
        flat["max_workers"] = 1
    canonical = json.dumps(flat, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()[:16]


def run_id_for_config(config: Any) -> str:
    """The deterministic run id a config will be stamped with."""
    return deterministic_run_id(_flatten_config(config))


@dataclass
class RunManifest:
    """Provenance record of one run.

    Attributes
    ----------
    run_id:
        Id of this run.  :meth:`for_config` derives it
        deterministically from the flattened configuration
        (:func:`deterministic_run_id`) so equivalent runs — straight
        or resumed, serial or parallel — share one correlation key;
        a bare ``RunManifest()`` falls back to a random UUID hex.
    created_at:
        UTC creation timestamp, ISO-8601.
    package_version:
        ``repro.__version__`` at run time.
    python_version:
        Interpreter version string.
    platform:
        ``platform.platform()`` of the host.
    command:
        What produced the run (free-form, e.g. the CLI invocation).
    config:
        Flattened run configuration (JSON-native values only).
    seed:
        Root seed of the run's :class:`~repro.rng.SeedHierarchy`,
        when the run was seeded.
    phases:
        Per-phase wall-clock seconds, in execution order.
    metrics:
        A :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot`.
    summaries:
        Headline result numbers (e.g. the Table I cells).
    """

    run_id: str = field(default_factory=lambda: uuid.uuid4().hex)
    created_at: str = field(default_factory=_utc_timestamp)
    package_version: str = ""
    python_version: str = field(default_factory=lambda: sys.version.split()[0])
    platform: str = field(default_factory=_platform.platform)
    command: str = ""
    config: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    phases: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    summaries: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.package_version:
            import repro

            self.package_version = repro.__version__

    @classmethod
    def for_config(cls, config: Any, command: str = "") -> "RunManifest":
        """Build a manifest pre-filled from a config object.

        Accepts a :class:`~repro.core.config.StudyConfig` (or any
        dataclass with an optional ``seed`` field and an optional
        ``profile`` with a ``name``); non-JSON values are flattened to
        their names.  The manifest's ``run_id`` is derived from the
        flattened config (:func:`deterministic_run_id`), never random.
        """
        flat = _flatten_config(config)
        seed_value = flat.get("seed")
        seed = seed_value if isinstance(seed_value, int) else None
        return cls(
            run_id=deterministic_run_id(flat),
            command=command,
            config=flat,
            seed=seed,
        )

    def record_phase(self, name: str, wall_s: float) -> None:
        """Record (or overwrite) one phase's wall-clock duration."""
        self.phases[name] = float(wall_s)

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "manifest_version": MANIFEST_VERSION,
            "run_id": self.run_id,
            "created_at": self.created_at,
            "package_version": self.package_version,
            "python_version": self.python_version,
            "platform": self.platform,
            "command": self.command,
            "config": dict(self.config),
            "seed": self.seed,
            "phases": dict(self.phases),
            "metrics": dict(self.metrics),
            "summaries": dict(self.summaries),
        }

    @classmethod
    def from_json_dict(cls, doc: Dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_json_dict` output.

        Older manifest versions are migrated up front through the
        :mod:`repro.store.schema` dispatch table; documents newer than
        this library raise :class:`~repro.errors.StorageError`.
        """
        # Imported here: repro.store must stay importable without
        # repro.telemetry (store sits below telemetry in the layering).
        from repro.store.schema import migrate

        try:
            doc = migrate("manifest", doc)
            seed = doc.get("seed")
            return cls(
                run_id=str(doc["run_id"]),
                created_at=str(doc["created_at"]),
                package_version=str(doc["package_version"]),
                python_version=str(doc["python_version"]),
                platform=str(doc["platform"]),
                command=str(doc.get("command", "")),
                config=dict(doc.get("config", {})),
                seed=None if seed is None else int(seed),
                phases={str(k): float(v) for k, v in doc.get("phases", {}).items()},
                metrics=dict(doc.get("metrics", {})),
                summaries=dict(doc.get("summaries", {})),
            )
        except StorageError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(f"malformed run manifest: {exc}") from exc


def manifest_path_for(artifact_path: str) -> str:
    """Conventional manifest location next to a result artifact.

    ``campaign.json`` -> ``campaign.manifest.json``; extensionless
    paths get ``.manifest.json`` appended.
    """
    if artifact_path.endswith(".json"):
        return artifact_path[: -len(".json")] + ".manifest.json"
    return artifact_path + ".manifest.json"
