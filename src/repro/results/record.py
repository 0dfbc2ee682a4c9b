"""The schema-versioned run artifact.

A :class:`RunRecord` is the one typed result of a replay: everything a
consumer downstream of the run loop needs (sweep aggregation, oracle
composition, figure regeneration, design-space scoring, perf accounting)
in a compact, JSON-safe row.  It is the *only* shape a run result takes
when it crosses a process or storage boundary — fleet worker IPC ships
these rows, and the content-addressed result cache stores them as JSON
documents instead of pickles.

Schema rules
------------

* ``RUN_RECORD_SCHEMA_VERSION`` names the row layout.  Any change to the
  field set, field meaning, or encoding MUST bump it.
* The version is embedded in every serialized row and folded into every
  fleet cache key, so old cache entries become misses (and re-execute)
  instead of deserializing wrongly.
* Rows are pure JSON: ints, floats, strings, lists.  Floats round-trip
  exactly (``json`` emits ``repr``-precision), which the bit-identical
  A/B guarantees rely on.
* The two trace columns, ``transitions`` and ``busy_intervals``, are
  packed: each is one ASCII string, base64 of a zlib stream over
  delta-coded little-endian int64 words (first column, then second) —
  see :meth:`~repro.results.pairs.IntPairs.to_packed`.  A row carries
  thousands of pairs; as ``[[a, b], ...]`` lists they made up nearly all
  of its bytes and its ``json.loads`` time.  Packing them was the
  version-3 layout change.
* The ``obs`` section (``REPRO_TRACE=1`` observability harvest) is
  self-versioned by ``repro.obs.metrics.OBS_SCHEMA_VERSION`` and
  omitted entirely when ``None``; its internal layout is opaque to this
  module.  Adding the field was itself a row-layout change, hence
  version 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.errors import ReproError
from repro.analysis.lagprofile import LagMeasurement, LagProfile
from repro.results.pairs import IntPairs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.hci import HciModel
    from repro.oracle.builder import BusyTimeline

#: Version of the serialized row layout.  Bump on ANY change to the
#: fields below or their encoding; the fleet cache folds this into its
#: content address, so a bump invalidates every cached row at once.
RUN_RECORD_SCHEMA_VERSION = 3


class RunRecordSchemaError(ReproError):
    """A serialized row does not carry the supported schema version."""


@dataclass(slots=True)
class RunRecord:
    """One workload execution under one configuration.

    ``transitions`` is the raw ``(timestamp_us, freq_khz)`` trace of the
    cpufreq policy; ``busy_intervals`` the core's closed ``(start_us,
    end_us)`` busy spans — both accumulated online on the device side
    during the run and held as compact :class:`~repro.results.pairs.
    IntPairs` (16 bytes/pair) rather than lists of tuples, because a
    day-long run logs hundreds of thousands of each.  Any iterable of
    pairs is accepted at construction and coerced.  ``lags`` is the
    matcher's output.

    ``obs`` is the observability harvest (counters, gauges, histograms)
    of a ``REPRO_TRACE=1`` run, or ``None`` — the default — when the run
    was not observed.  It is excluded from equality so an observed run
    still compares equal to its unobserved twin: observability must
    never perturb result semantics.
    """

    workload: str
    config: str
    rep: int
    duration_us: int
    energy_j: float
    dynamic_energy_j: float
    busy_us: int
    transitions: IntPairs
    busy_intervals: IntPairs
    lags: tuple[LagMeasurement, ...]
    schema_version: int = RUN_RECORD_SCHEMA_VERSION
    obs: dict | None = field(default=None, compare=False)
    _timeline: "BusyTimeline | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.transitions, IntPairs):
            self.transitions = IntPairs(self.transitions)
        if not isinstance(self.busy_intervals, IntPairs):
            self.busy_intervals = IntPairs(self.busy_intervals)

    # --- derived views ----------------------------------------------------------

    @property
    def lag_profile(self) -> LagProfile:
        """The run's lag profile (cheap view over ``lags``)."""
        return LagProfile(self.workload, self.lags)

    @property
    def busy_timeline(self) -> "BusyTimeline":
        """Busy intervals with O(log n) window queries, built lazily."""
        if self._timeline is None:
            from repro.oracle.builder import BusyTimeline

            self._timeline = BusyTimeline(self.busy_intervals)
        return self._timeline

    def irritation_seconds(self, model: "HciModel | None" = None) -> float:
        return self.lag_profile.irritation(model).total_seconds

    # --- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The row as a pure-JSON dict (the IPC and cache wire format).

        ``obs`` is emitted only when present, so unobserved rows (the
        default, and everything the A/B digest tests compare) serialize
        to byte-identical text whether or not the field exists.
        """
        row = {
            "schema_version": self.schema_version,
            "workload": self.workload,
            "config": self.config,
            "rep": self.rep,
            "duration_us": self.duration_us,
            "energy_j": self.energy_j,
            "dynamic_energy_j": self.dynamic_energy_j,
            "busy_us": self.busy_us,
            "transitions": self.transitions.to_packed(),
            "busy_intervals": self.busy_intervals.to_packed(),
            "lags": [
                {
                    "lag_index": lag.lag_index,
                    "gesture_index": lag.gesture_index,
                    "label": lag.label,
                    "category": lag.category,
                    "begin_time_us": lag.begin_time_us,
                    "end_frame": lag.end_frame,
                    "duration_us": lag.duration_us,
                    "threshold_us": lag.threshold_us,
                }
                for lag in self.lags
            ],
        }
        if self.obs is not None:
            row["obs"] = self.obs
        return row

    @classmethod
    def from_json_dict(cls, row: dict) -> "RunRecord":
        """Rebuild a record from :meth:`to_json_dict` output.

        Raises :class:`RunRecordSchemaError` on a version mismatch — the
        cache treats that as a miss and re-executes the cell.
        """
        version = row.get("schema_version")
        if version != RUN_RECORD_SCHEMA_VERSION:
            raise RunRecordSchemaError(
                f"RunRecord schema version {version!r} is not the "
                f"supported version {RUN_RECORD_SCHEMA_VERSION}"
            )
        return cls(
            workload=row["workload"],
            config=row["config"],
            rep=row["rep"],
            duration_us=row["duration_us"],
            energy_j=row["energy_j"],
            dynamic_energy_j=row["dynamic_energy_j"],
            busy_us=row["busy_us"],
            transitions=IntPairs.from_packed(row["transitions"]),
            busy_intervals=IntPairs.from_packed(row["busy_intervals"]),
            lags=tuple(
                LagMeasurement(
                    lag_index=lag["lag_index"],
                    gesture_index=lag["gesture_index"],
                    label=lag["label"],
                    category=lag["category"],
                    begin_time_us=lag["begin_time_us"],
                    end_frame=lag["end_frame"],
                    duration_us=lag["duration_us"],
                    threshold_us=lag["threshold_us"],
                )
                for lag in row["lags"]
            ),
            obs=row.get("obs"),
        )

    def dumps(self) -> str:
        """Canonical JSON text of the row (stable key order, no spaces)."""
        return json.dumps(
            self.to_json_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def loads(cls, text: str) -> "RunRecord":
        return cls.from_json_dict(json.loads(text))
