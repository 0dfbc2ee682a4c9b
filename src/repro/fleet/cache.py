"""Content-addressed on-disk stores: run records and recorded workloads.

A cache root holds three stores side by side::

    <root>/<aa>/<key>.json          RunRecord rows (:class:`ResultCache`)
    <root>/demand/<key>.json        demand traces (``DemandTraceStore``)
    <root>/workloads/<key>/         recorded workloads (:class:`WorkloadStore`)

A row is keyed by a SHA-256 over (cache format version, RunRecord
schema version, code fingerprint, workload fingerprint, spec identity).
The workload fingerprint hashes a canonical serialisation of the
recorded artifacts themselves — trace, annotation database, duration,
recording seed — so editing a dataset plan, changing the recorder, or
re-recording with a different master seed all invalidate exactly the
affected cells and nothing else, while a workload saved and loaded back
addresses the very cells it was recorded for.  Entries are immutable once
written: a warm re-run of a study loads every completed cell and
executes only invalidated ones.

Rows are canonical :class:`~repro.results.RunRecord` JSON documents
under ``<root>/<aa>/<key>.json`` (two-level fan-out keeps directories
small) — the same schema-versioned wire format fleet workers ship over
IPC, not pickles, so a cache entry is inspectable with any JSON tool and
can never execute code on load.  Since row schema 3 the two trace
columns inside a row are packed strings (base64 of zlib over int64
words), which keeps rows small and their decode a ``frombytes``.  Rows
are written atomically (:func:`~repro.core.atomic.atomic_write_text`),
so a crashed or concurrent writer can never leave a truncated entry a
later reader would trust.  Unreadable rows — including rows carrying an
older ``schema_version`` — are treated as misses and re-executed.

The workload store holds the paper's reusable artefact: a workload is
recorded and annotated "only once, after which the workload will be
reusable time and again".  An entry is keyed by (store version, code
fingerprint, canonical workload name, master seed) — everything
:func:`~repro.harness.experiment.record_workload` reads — and holds the
:meth:`WorkloadArtifacts.save <repro.harness.experiment.WorkloadArtifacts.save>`
layout plus a manifest of its files' SHA-256 digests.  An entry is
staged in a temporary directory and published with one
:func:`os.replace`; a missing, corrupt or truncated entry is a miss and
the workload is recorded again.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.atomic import atomic_write_text
from repro.fleet.spec import RunSpec
from repro.results import RUN_RECORD_SCHEMA_VERSION, RunRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.harness.experiment import WorkloadArtifacts

CACHE_VERSION = 2  # v2: RunRecord JSON rows replaced RunResult pickles
WORKLOAD_STORE_VERSION = 1
#: Subdirectory of a result-cache root holding recorded workloads.
WORKLOADS_SUBDIR = "workloads"
_MANIFEST = "manifest.json"

_CODE_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """Content hash of the simulator's own source tree.

    Folded into every cache key so that editing any ``repro`` module —
    a governor, the power model, the matcher — invalidates previously
    cached results instead of silently serving output of old code.
    Computed once per process.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


def workload_fingerprint(artifacts: "WorkloadArtifacts") -> str:
    """Content hash of a recorded workload's replay-relevant state.

    Hashes a canonical serialisation — the getevent text, the annotation
    database's JSON fields, and each annotation image's shape, dtype and
    bytes — so a recorded workload and the same workload saved and
    loaded back hash identically.
    """
    database = artifacts.database
    header = json.dumps(
        [
            CACHE_VERSION,
            artifacts.spec.name,
            artifacts.duration_us,
            artifacts.recording_master_seed,
            database.meta_dict(),
        ],
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(header.encode("utf-8"))
    digest.update(b"\0")
    digest.update(artifacts.trace.dumps().encode("utf-8"))
    for annotation in database.annotations:
        image = annotation.image
        digest.update(f"\0{image.shape}|{image.dtype.str}\0".encode("ascii"))
        digest.update(image.tobytes())
    return digest.hexdigest()


class RecordStore:
    """Contract of a content-addressed :class:`RunRecord` row store.

    The key derivation (:meth:`key_for`) is storage-independent — it
    folds the cache format, the record schema, the code and workload
    fingerprints and the spec identity — so any store implementation
    (filesystem, a future network store) addresses the identical cells.
    Implementations supply :meth:`load` / :meth:`store` /
    :meth:`contains`; both must tolerate concurrent writers racing the
    same key (rows are immutable values: last write wins with identical
    bytes) and treat truncated, corrupt or schema-stale rows as misses,
    never as errors.
    """

    hits: int
    misses: int

    def key_for(self, spec: RunSpec, fingerprint: str) -> str:
        payload = (
            f"v{CACHE_VERSION}|rr{RUN_RECORD_SCHEMA_VERSION}|"
            f"{code_fingerprint()}|{fingerprint}|{spec.cache_token()}"
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def load(self, key: str) -> "RunRecord | None":
        raise NotImplementedError

    def store(self, key: str, record: "RunRecord") -> None:
        raise NotImplementedError

    def contains(self, key: str) -> bool:
        raise NotImplementedError


class ResultCache(RecordStore):
    """Filesystem implementation: rows under ``<root>/<aa>/<key>.json``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> "RunRecord | None":
        """The cached record for ``key``, or None (counting a miss)."""
        path = self.path_for(key)
        try:
            record = RunRecord.loads(path.read_text(encoding="utf-8"))
        except Exception:
            # Missing, truncated, not JSON, or a row written under a
            # different RunRecord schema version: a miss either way — the
            # cell re-executes.
            self.misses += 1
            return None
        self.hits += 1
        return record

    def store(self, key: str, record: "RunRecord") -> None:
        atomic_write_text(self.path_for(key), record.dumps())

    def contains(self, key: str) -> bool:
        return self.path_for(key).exists()

    def entry_count(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))


def workload_store_key(name: str, master_seed: int) -> str:
    """Content address of the recording of workload ``name`` under a seed."""
    payload = (
        f"workload{WORKLOAD_STORE_VERSION}|{code_fingerprint()}|"
        f"{name}|{master_seed}"
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class WorkloadStore:
    """Recorded workloads under ``<cache root>/workloads/<key>/``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    @classmethod
    def for_cache(cls, cache) -> "WorkloadStore | None":
        """The store sharing a :class:`ResultCache`'s root (None if uncached)."""
        if cache is None:
            return None
        return cls(Path(cache.root) / WORKLOADS_SUBDIR)

    def path_for(self, name: str, master_seed: int) -> Path:
        return self.root / workload_store_key(name, master_seed)

    def load(self, name: str, master_seed: int) -> "WorkloadArtifacts | None":
        """The stored recording, or None (counting a miss).

        Every file the manifest lists must still hash to its recorded
        digest, so a truncated or damaged entry is never served.
        """
        from repro.harness.experiment import WorkloadArtifacts

        entry = self.path_for(name, master_seed)
        try:
            manifest = json.loads((entry / _MANIFEST).read_text(encoding="utf-8"))
            for relative, expected in manifest["files"].items():
                if _sha256_file(entry / relative) != expected:
                    raise ValueError(f"{relative} does not match its digest")
            artifacts = WorkloadArtifacts.load(entry)
            if (artifacts.name, artifacts.recording_master_seed) != (
                name,
                master_seed,
            ):
                raise ValueError("entry records a different workload")
        except Exception:
            # Missing, truncated, damaged or mis-filed: the workload is
            # recorded again.
            self.misses += 1
            return None
        self.hits += 1
        return artifacts

    def store(self, artifacts: "WorkloadArtifacts") -> None:
        """Publish ``artifacts`` (stage, then one :func:`os.replace`)."""
        entry = self.path_for(artifacts.name, artifacts.recording_master_seed)
        self.root.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(dir=self.root, prefix=".tmp-"))
        try:
            artifacts.save(staging)
            files = {
                path.relative_to(staging).as_posix(): _sha256_file(path)
                for path in sorted(staging.rglob("*"))
                if path.is_file()
            }
            atomic_write_text(staging / _MANIFEST, json.dumps({"files": files}))
            if entry.exists():
                # An entry that failed to load: retire it, since a
                # directory with contents cannot be replaced in one step.
                retired = staging.with_name(staging.name + "-old")
                try:
                    os.replace(entry, retired)
                except FileNotFoundError:
                    pass  # a concurrent writer retired it first
                shutil.rmtree(retired, ignore_errors=True)
            try:
                os.replace(staging, entry)
            except OSError:
                if not entry.is_dir():
                    raise
                # A concurrent writer published the same entry first.
        finally:
            shutil.rmtree(staging, ignore_errors=True)
