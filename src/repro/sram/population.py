"""Heterogeneous fleet populations: per-board device profiles.

The paper aged 16 *identical* ATmega32u4 boards; a 100k-device virtual
fleet is not identical silicon.  A :class:`PopulationSpec` describes a
fleet as a **mixture of named profiles** (weights over the
:data:`repro.sram.profiles.REGISTRY`), each optionally split into
**process lots** whose corner offsets — skew mean/sigma, noise sigma,
cell count — are drawn once per lot.  Grounding: the separatrix/
mismatch design-phase analysis of Alheyasat et al. (PAPERS.md), which
models exactly these per-device parameter spreads.

Determinism contract
--------------------
Board ``i``'s materialized :class:`DeviceProfile` is a **pure function
of** ``(spec, root_seed, board_id)``:

* board draws (member pick, lot pick) come from the dedicated
  ``population`` child namespace of the :class:`~repro.rng.SeedHierarchy`
  — stream ``board-<id>`` — so they never perturb the existing
  ``chip-<id>`` / ``ambient-temperature`` streams, and

* lot corner offsets come from stream ``lot-<member>-<k>`` of the same
  namespace, so a lot's parameters do not depend on which boards (or
  how many) were materialized before it.

Consequently any sharding, worker count or checkpoint resume
derives byte-identical per-board profiles.

Cohort batching
---------------
Lots deliberately *quantize* the process spread: a fleet materializes
into at most ``sum(member.lots)`` distinct profiles, so the fleet
kernel can batch boards into homogeneous ``(boards x cells)`` cohorts
(:func:`repro.sram.fleetkernel.build_fleet_kernel`) instead of
degenerating into one matrix per board.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.rng import SeedHierarchy
from repro.sram.profiles import DeviceProfile, REGISTRY, profile_by_name

#: Name of the SeedHierarchy child namespace all population draws use.
POPULATION_NAMESPACE = "population"


@dataclass(frozen=True)
class PopulationMember:
    """One mixture component: a named base profile plus per-lot spreads.

    ``weight`` is the relative mixture weight (normalized across the
    spec).  ``lots`` splits the member into that many process lots;
    each lot draws one corner offset vector.  Spreads of zero with
    ``lots == 1`` reproduce the base profile exactly.

    Spread semantics (all drawn per *lot*, not per board):

    ``skew_mean_spread_v``
        additive Gaussian offset (volts) on ``skew_mean_v``;
    ``skew_sigma_spread``
        fractional Gaussian spread on ``skew_sigma_v``
        (``sigma *= 1 + N(0, spread)``, clamped to stay positive);
    ``noise_sigma_spread``
        fractional Gaussian spread on ``noise_sigma_v``, same clamp;
    ``sram_bytes_choices``
        optional cell-count menu — each lot uniformly picks one
        ``sram_bytes`` value (must be >= the profile's ``read_bytes``).
    """

    profile: str
    weight: float = 1.0
    lots: int = 1
    skew_mean_spread_v: float = 0.0
    skew_sigma_spread: float = 0.0
    noise_sigma_spread: float = 0.0
    sram_bytes_choices: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        base = profile_by_name(self.profile)  # raises listing known names
        if not self.weight > 0:
            raise ConfigurationError(
                f"member {self.profile!r}: weight must be > 0, got {self.weight}"
            )
        if self.lots < 1:
            raise ConfigurationError(
                f"member {self.profile!r}: lots must be >= 1, got {self.lots}"
            )
        for name in ("skew_mean_spread_v", "skew_sigma_spread", "noise_sigma_spread"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(
                    f"member {self.profile!r}: {name} must be >= 0, got {value}"
                )
        for fraction in ("skew_sigma_spread", "noise_sigma_spread"):
            if getattr(self, fraction) >= 0.5:
                raise ConfigurationError(
                    f"member {self.profile!r}: {fraction} must be < 0.5 "
                    "(larger fractional spreads collapse lot sigmas to zero)"
                )
        object.__setattr__(
            self, "sram_bytes_choices", tuple(int(b) for b in self.sram_bytes_choices)
        )
        for sram_bytes in self.sram_bytes_choices:
            if sram_bytes < base.read_bytes:
                raise ConfigurationError(
                    f"member {self.profile!r}: sram_bytes choice {sram_bytes} "
                    f"is smaller than the profile's read_bytes {base.read_bytes}"
                )

    @property
    def base(self) -> DeviceProfile:
        """The registry profile this member spreads around."""
        return profile_by_name(self.profile)

    def to_doc(self) -> Dict[str, object]:
        """A minimal JSON-native document (defaults omitted)."""
        doc: Dict[str, object] = {"profile": self.profile}
        if self.weight != 1.0:
            doc["weight"] = self.weight
        if self.lots != 1:
            doc["lots"] = self.lots
        for name in ("skew_mean_spread_v", "skew_sigma_spread", "noise_sigma_spread"):
            value = getattr(self, name)
            if value:
                doc[name] = value
        if self.sram_bytes_choices:
            doc["sram_bytes_choices"] = list(self.sram_bytes_choices)
        return doc

    @classmethod
    def from_doc(cls, doc: Dict[str, object]) -> "PopulationMember":
        """Rebuild a member from :meth:`to_doc`, rejecting unknown keys."""
        if not isinstance(doc, dict) or "profile" not in doc:
            raise ConfigurationError(
                "population member document must be an object with a "
                f"'profile' key, got {doc!r}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigurationError(
                f"population member has unknown keys {unknown}; "
                f"known keys: {sorted(known)}"
            )
        kwargs = dict(doc)
        if "sram_bytes_choices" in kwargs:
            kwargs["sram_bytes_choices"] = tuple(kwargs["sram_bytes_choices"])
        return cls(**kwargs)


@dataclass(frozen=True)
class PopulationSpec:
    """A deterministic mixture of device profiles for a virtual fleet.

    ``name`` is the display handle recorded in manifests and artifacts;
    two specs with equal documents have equal :meth:`digest` regardless
    of how they were constructed.
    """

    members: Tuple[PopulationMember, ...]
    name: str = "population"

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ConfigurationError("population needs at least one member")
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(f"population name must be a non-empty string")
        read_bytes = {m.base.read_bytes for m in self.members}
        if len(read_bytes) > 1:
            raise ConfigurationError(
                "population members must share read_bytes (between-class "
                "distance compares equal-length readouts); got "
                f"{sorted(read_bytes)}"
            )

    # -- mixture bookkeeping ------------------------------------------------

    @property
    def read_bytes(self) -> int:
        """The uniform readout size shared by every member."""
        return self.members[0].base.read_bytes

    @property
    def temperature_k(self) -> Optional[float]:
        """The members' common nominal temperature, or None if mixed."""
        temps = {m.base.temperature_k for m in self.members}
        return temps.pop() if len(temps) == 1 else None

    @property
    def profile_names(self) -> Tuple[str, ...]:
        """Distinct member base-profile names, in member order."""
        seen: List[str] = []
        for member in self.members:
            if member.profile not in seen:
                seen.append(member.profile)
        return tuple(seen)

    def _cumulative_weights(self) -> List[float]:
        total = sum(m.weight for m in self.members)
        acc, out = 0.0, []
        for member in self.members:
            acc += member.weight / total
            out.append(acc)
        out[-1] = 1.0  # guard float drift so the last member owns u -> 1
        return out

    # -- deterministic materialization --------------------------------------

    def _lot_profile(
        self, seeds: SeedHierarchy, member: PopulationMember, lot: int
    ) -> DeviceProfile:
        """Materialize one lot's profile — pure in (spec, root_seed, member, lot)."""
        base = member.base
        spread = (
            member.skew_mean_spread_v
            or member.skew_sigma_spread
            or member.noise_sigma_spread
            or member.sram_bytes_choices
        )
        if member.lots == 1 and not spread:
            return base
        rng = seeds.stream(f"lot-{member.profile}-{lot}")
        # Fixed draw order: mean offset, sigma factor, noise factor,
        # cell-count pick.  Draws happen even at zero spread so adding a
        # spread to one knob never shifts another knob's lot values.
        mean_offset = float(rng.normal(0.0, 1.0)) * member.skew_mean_spread_v
        sigma_factor = 1.0 + float(rng.normal(0.0, 1.0)) * member.skew_sigma_spread
        noise_factor = 1.0 + float(rng.normal(0.0, 1.0)) * member.noise_sigma_spread
        pick = int(rng.integers(len(member.sram_bytes_choices))) if member.sram_bytes_choices else -1
        overrides: Dict[str, object] = {
            "name": f"{base.name}.lot{lot}",
            "skew_mean_v": base.skew_mean_v + mean_offset,
            "skew_sigma_v": base.skew_sigma_v * max(sigma_factor, 0.05),
            "noise_sigma_v": base.noise_sigma_v * max(noise_factor, 0.05),
        }
        if pick >= 0:
            overrides["sram_bytes"] = member.sram_bytes_choices[pick]
        return base.with_overrides(**overrides)

    def _pick(self, root_seed: int, board_id: int) -> Tuple[PopulationMember, int]:
        """Board ``board_id``'s (member, lot) draw — the mixture sample."""
        seeds = SeedHierarchy(root_seed).child(POPULATION_NAMESPACE)
        rng = seeds.stream(f"board-{board_id}")
        u = float(rng.random())
        member = self.members[-1]
        for candidate, edge in zip(self.members, self._cumulative_weights()):
            if u < edge:
                member = candidate
                break
        lot = int(rng.integers(member.lots)) if member.lots > 1 else 0
        return member, lot

    def profile_for_board(self, root_seed: int, board_id: int) -> DeviceProfile:
        """Materialize board ``board_id``'s profile.

        Pure function of ``(self, root_seed, board_id)`` — the draws
        ride the dedicated ``population`` namespace, stream
        ``board-<id>``, so sharding and resume always agree.

        >>> spec = PopulationSpec((PopulationMember("ATmega32u4"),))
        >>> spec.profile_for_board(7, 3).name
        'ATmega32u4'
        """
        seeds = SeedHierarchy(root_seed).child(POPULATION_NAMESPACE)
        member, lot = self._pick(root_seed, board_id)
        return self._lot_profile(seeds, member, lot)

    def member_labels(
        self, root_seed: int, board_ids: Sequence[int]
    ) -> Tuple[str, ...]:
        """Each board's member base-profile name, aligned with ``board_ids``.

        Cohort attribution granularity for profile-scope rollups: lots
        of one member share its base name (``ATmega32u4``, never
        ``ATmega32u4.lot3``), so a drifting cohort surfaces as one
        ``@profile=<name>`` scope rather than fanning out per lot.
        """
        return tuple(
            self._pick(root_seed, board_id)[0].profile for board_id in board_ids
        )

    def materialize(
        self, root_seed: int, board_ids: Sequence[int]
    ) -> Tuple[Tuple[DeviceProfile, ...], Tuple[int, ...]]:
        """Materialize a fleet as an interned ``(profiles, index)`` pair.

        ``profiles`` holds each distinct :class:`DeviceProfile` once (in
        first-appearance order over ``board_ids``); ``index[i]`` points
        board ``board_ids[i]`` at its profile.  The interned shape is
        what :class:`~repro.exec.windows.WindowSpec` pickles, keeping spawn
        payloads sublinear in fleet size.
        """
        table: List[DeviceProfile] = []
        position: Dict[DeviceProfile, int] = {}
        index: List[int] = []
        for board_id in board_ids:
            profile = self.profile_for_board(root_seed, board_id)
            slot = position.get(profile)
            if slot is None:
                slot = len(table)
                table.append(profile)
                position[profile] = slot
            index.append(slot)
        return tuple(table), tuple(index)

    # -- serialization -------------------------------------------------------

    def to_doc(self) -> Dict[str, object]:
        """A JSON-native document round-tripping through :meth:`from_doc`."""
        return {
            "name": self.name,
            "members": [member.to_doc() for member in self.members],
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, object]) -> "PopulationSpec":
        """Rebuild a spec from :meth:`to_doc` (member order preserved)."""
        if not isinstance(doc, dict) or "members" not in doc:
            raise ConfigurationError(
                "population document must be an object with a 'members' "
                f"list, got {doc!r}"
            )
        members = tuple(PopulationMember.from_doc(m) for m in doc["members"])
        return cls(members=members, name=str(doc.get("name", "population")))

    def digest(self) -> str:
        """A 16-hex-digit content digest of the canonical document.

        Stamped into manifests so the run id commits to the population
        without inlining the whole spec.
        """
        payload = json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @property
    def display_name(self) -> str:
        """Human-readable handle for tables and stream headers."""
        return f"population:{self.name}"

    @property
    def manifest_token(self) -> str:
        """What manifests record for this spec: ``<name>:<digest>``.

        The digest makes the flattened config (and so the deterministic
        run id) commit to the full document, not just the display name.
        """
        return f"{self.name}:{self.digest()}"


def load_population(path: str) -> PopulationSpec:
    """Read a :class:`PopulationSpec` from a JSON document on disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read population spec {path!r}: {exc}") from exc
    return PopulationSpec.from_doc(doc)


def single_profile_population(profile: DeviceProfile) -> PopulationSpec:
    """Wrap one profile as a degenerate (homogeneous) population.

    Registers the profile so document round-trips keep resolving it.
    """
    from repro.sram.profiles import register_profile

    register_profile(profile)
    return PopulationSpec(
        members=(PopulationMember(profile.name),), name=profile.name
    )
