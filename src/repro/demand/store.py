"""On-disk store of demand traces, next to the fleet's result cache.

One workload needs exactly one demand capture per (demand schema, code,
workload) triple; the store content-addresses traces the same way the
:class:`~repro.fleet.cache.ResultCache` addresses run records, so a warm
sweep re-run loads the trace and executes **zero** full replays.  Keys
fold in

* :data:`~repro.demand.trace.DEMAND_TRACE_SCHEMA_VERSION` — a schema
  bump invalidates every stored trace,
* the code fingerprint — editing any simulator module re-captures
  instead of replaying demand recorded by old code,
* the workload fingerprint — re-recording or editing a scenario
  invalidates exactly that workload's trace.

Entries are JSON (the trace's own wire format), written atomically, and
validated on load — an unreadable or contract-violating entry is a miss
that triggers a fresh capture, never an error.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.core.atomic import atomic_write_text
from repro.demand.trace import (
    DEMAND_TRACE_SCHEMA_VERSION,
    DemandTrace,
    DemandTraceError,
)

#: Subdirectory of a result-cache root holding demand traces.
DEMAND_SUBDIR = "demand"


def demand_trace_key(artifacts) -> str:
    """Content address of the demand trace for a recorded workload."""
    from repro.fleet.cache import code_fingerprint

    payload = (
        f"demand{DEMAND_TRACE_SCHEMA_VERSION}|"
        f"{code_fingerprint()}|{artifacts.fingerprint()}"
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class DemandTraceStore:
    """Content-addressed demand traces under ``<cache root>/demand/``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    @classmethod
    def for_cache(cls, cache) -> "DemandTraceStore | None":
        """The store sharing a :class:`ResultCache`'s root (None if uncached)."""
        if cache is None:
            return None
        return cls(Path(cache.root) / DEMAND_SUBDIR)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, artifacts) -> DemandTrace | None:
        """The stored trace for ``artifacts``, or None (counting a miss)."""
        path = self.path_for(demand_trace_key(artifacts))
        try:
            trace = DemandTrace.loads(path.read_text(encoding="utf-8"))
            trace.validate()
        except (OSError, DemandTraceError):
            self.misses += 1
            return None
        self.hits += 1
        return trace

    def store(self, artifacts, trace: DemandTrace | str) -> None:
        """Write ``trace`` (or its JSON text) for ``artifacts``."""
        text = trace if isinstance(trace, str) else trace.dumps()
        atomic_write_text(self.path_for(demand_trace_key(artifacts)), text)
