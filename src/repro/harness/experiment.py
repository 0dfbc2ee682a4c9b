"""Recording and replaying one workload execution.

``record_workload`` performs the paper's part A once per dataset: a
scripted user exercises the device (pinned at the lowest frequency, so
recorded timings stay valid at every configuration), the recorder captures
the getevent trace, the capture card films the screen, and the
AutoAnnotator builds the annotation database from the suggester's
candidates.

``replay_run`` is part B, repeatable at will: replay the trace under any
governor or fixed frequency, film the screen, and let the matcher produce
the lag profile — plus the energy/frequency/busy traces the study needs.
By default the run *streams*: frames flow through the online matcher and
are released as annotation windows close, and the device accumulates its
traces compactly, so a replay costs O(active-window) memory instead of
O(session).  ``REPRO_STREAM=0`` restores the batch
materialise-then-analyze path; output is bit-identical either way.  The
result is a schema-versioned :class:`~repro.results.RunRecord` — the one
shape results take across fleet IPC and the result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import AnnotationDatabase, AutoAnnotator, Matcher, OnlineMatcher
from repro.analysis.classify import InputClassification, classify_workload
from repro.apps import install_standard_apps
from repro.apps.services import BackgroundServices
from repro.capture import CaptureCard, stream_enabled
from repro.core.errors import WorkloadError
from repro.core.rng import RngStreams
from repro.core.simtime import seconds
from repro.device.device import Device, DeviceConfig
from repro.metrics.hci import SHNEIDERMAN_MODEL, HciModel
from repro.obs import session as obs_session
from repro.replay import GeteventRecorder, ReplayAgent
from repro.replay.trace import EventTrace
from repro.results import RunRecord
from repro.scenarios.profiles import device_config_for
from repro.uifw.view import WindowManager
from repro.workloads.datasets import DatasetSpec, check_recording
from repro.workloads.sessions import ScriptedUser

# Recording runs at the device's lowest OPP (§II-E); on the stock
# profile that is the 0.30 GHz point this constant documents.
RECORDING_FREQ_KHZ = 300_000
QUIESCENCE_LIMIT_US = seconds(120)
RUN_TAIL_US = seconds(5)
DEFAULT_MASTER_SEED = 2014


def _build_device(
    governor: str,
    noise_streams: RngStreams,
    device_config: DeviceConfig | None = None,
    **governor_tunables,
) -> tuple[Device, WindowManager, BackgroundServices]:
    device = Device(device_config)
    wm = WindowManager(device)
    install_standard_apps(wm)
    services = BackgroundServices(
        device.engine, device.scheduler, noise_streams.stream("services")
    )
    services.start()
    device.set_governor(governor, **governor_tunables)
    return device, wm, services


class _StoredPart:
    """A :class:`WorkloadArtifacts` field a loaded workload parses on first read.

    Artifacts built in memory hold the value itself.  Artifacts from
    :meth:`WorkloadArtifacts.load` hold None until the first read, which
    parses ``filename`` under the saved directory with ``parse``.
    """

    def __init__(self, filename: str, parse) -> None:
        self.filename = filename
        self.parse = parse

    def __set_name__(self, owner, name: str) -> None:
        self.name = name
        self.slot = f"_{name}"

    def __get__(self, instance, owner=None):
        if instance is None:
            # No class-level value: the dataclass field stays required.
            raise AttributeError(self.name)
        value = instance.__dict__[self.slot]
        if value is None and instance._source is not None:
            path = instance._source / self.filename
            try:
                value = self.parse(path)
            except Exception as exc:
                raise WorkloadError(
                    f"workload {instance.name!r} saved at {instance._source}: "
                    f"{self.filename} does not parse "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
            instance.__dict__[self.slot] = value
        return value

    def __set__(self, instance, value) -> None:
        instance.__dict__[self.slot] = value


@dataclass
class WorkloadArtifacts:
    """Everything needed to replay and evaluate a recorded workload.

    ``trace`` and ``database`` of artifacts read back by :meth:`load`
    are parsed from disk on first access, so a run whose every cell is
    cached never parses them.
    """

    spec: DatasetSpec
    # The parsers are looked up at parse time, not bound here.
    trace: EventTrace = _StoredPart(
        "trace.getevent", lambda path: EventTrace.load(path)
    )
    database: AnnotationDatabase = _StoredPart(
        "annotations", lambda path: AnnotationDatabase.load(path)
    )
    duration_us: int
    classification: InputClassification
    recording_master_seed: int
    #: Directory a loaded workload parses its parts from (None in memory).
    _source: Path | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Memo of :meth:`fingerprint`.
    _fingerprint: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def input_count(self) -> int:
        return len(self.database.gestures)

    @property
    def parsed(self) -> bool:
        """Whether any part was parsed from disk (always True in memory)."""
        return (
            self._source is None
            or self._trace is not None
            or self._database is not None
        )

    def fingerprint(self) -> str:
        """Content hash of the replay-relevant state (fleet cache key part).

        Hashed once per object: the workload store, the fleet engine and
        the demand-trace key all read the memo.  A loaded workload
        carries the fingerprint its entry recorded, so it is never
        hashed at all.
        """
        if self._fingerprint is None:
            from repro.fleet.cache import workload_fingerprint

            self._fingerprint = workload_fingerprint(self)
        return self._fingerprint

    def __getstate__(self) -> dict:
        # A copy shipped to a worker process carries the parsed parts,
        # never a directory to parse again.
        return dict(
            self.__dict__,
            _trace=self.trace,
            _database=self.database,
            _source=None,
        )

    def save(self, directory) -> None:
        """Persist trace + annotation database + metadata to a directory.

        A saved workload is the paper's reusable artefact: "the workload
        will be reusable time and again".
        """
        import json

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.trace.save(directory / "trace.getevent")
        self.database.save(directory / "annotations")
        meta = {
            "dataset": self.spec.name,
            "duration_us": self.duration_us,
            "recording_master_seed": self.recording_master_seed,
            "classification": self.classification.as_row(),
        }
        (directory / "meta.json").write_text(
            json.dumps(meta, indent=2), encoding="utf-8"
        )

    @classmethod
    def load(
        cls,
        directory,
        verify_classification: bool = False,
        fingerprint: str | None = None,
    ) -> "WorkloadArtifacts":
        """Open artifacts previously written by :meth:`save`.

        Only ``meta.json`` is read here; the trace and the annotation
        database are parsed on first access.  The classification row is
        read straight from ``meta.json`` — re-running the full gesture
        decode over the trace on every load is wasted work the recording
        already paid for.  Pass ``verify_classification=True`` to
        recompute it anyway and fail loudly if the saved row no longer
        matches (e.g. the classifier changed since the artifacts were
        written).  ``fingerprint``, when given, is the workload
        fingerprint recorded for this directory and is served as the memo.
        """
        import json

        from repro.workloads.datasets import dataset as dataset_lookup

        directory = Path(directory)
        meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
        artifacts = cls(
            spec=dataset_lookup(meta["dataset"]),
            trace=None,
            database=None,
            duration_us=meta["duration_us"],
            classification=None,
            recording_master_seed=meta["recording_master_seed"],
        )
        artifacts._source = directory
        artifacts._fingerprint = fingerprint
        saved_row = meta.get("classification")
        if saved_row is None or verify_classification:
            recomputed = classify_workload(
                meta["dataset"], artifacts.trace, artifacts.database
            )
        if saved_row is None:
            artifacts.classification = recomputed
            return artifacts
        artifacts.classification = InputClassification(
            dataset=saved_row["dataset"],
            taps=saved_row["taps"],
            swipes=saved_row["swipes"],
            actual_lags=saved_row["actual_lags"],
            spurious_lags=saved_row["spurious_lags"],
        )
        if verify_classification and artifacts.classification != recomputed:
            raise WorkloadError(
                f"saved classification of {meta['dataset']!r} "
                f"({artifacts.classification.as_row()}) does not match "
                f"recomputation ({recomputed.as_row()}); re-record or "
                "re-save the artifacts"
            )
        return artifacts


def record_workload(
    spec: DatasetSpec,
    master_seed: int = DEFAULT_MASTER_SEED,
    hci_model: HciModel = SHNEIDERMAN_MODEL,
    device_config: DeviceConfig | None = None,
) -> WorkloadArtifacts:
    """Record, capture and annotate one dataset (paper Fig. 4, part A)."""
    streams = RngStreams(master_seed).fork(f"dataset:{spec.name}")
    if device_config is None:
        device_config = device_config_for(spec)
    device, wm, _services = _build_device(
        f"fixed:{device_config.frequency_table.min_khz}",
        streams.fork("record-noise"),
        device_config,
    )
    recorder = GeteventRecorder(device.input_subsystem)
    recorder.start()
    card = CaptureCard(device.display)
    card.start(device.engine.now)

    user = ScriptedUser(wm, spec.plan(streams.stream("plan")), spec.duration_us)
    user.start()
    device.run_for(spec.duration_us)

    # Let the last interaction finish rendering before cutting the video.
    # A gesture can still be in flight at the deadline (finger down, up
    # not yet delivered) — its interaction only opens once the finger
    # lifts, so the wait must cover in-flight contacts too or the video
    # gets cut before the final interaction has even begun.
    def _recording_pending() -> bool:
        return (
            device.touchscreen.contact_active
            or wm.journal.open_interactions > 0
        )

    waited = 0
    while _recording_pending() and waited < QUIESCENCE_LIMIT_US:
        device.run_for(seconds(1))
        waited += seconds(1)
    if _recording_pending():
        raise WorkloadError(
            f"dataset {spec.name}: interactions still pending "
            f"{QUIESCENCE_LIMIT_US} us after the session deadline"
        )
    device.run_for(seconds(2))

    trace = recorder.stop()
    video = card.stop(device.engine.now)
    duration_us = device.engine.now

    annotator = AutoAnnotator(spec.name, hci_model=hci_model)
    database = annotator.annotate(video, wm.journal)
    classification = classify_workload(spec.name, trace, database)
    check_recording(spec, classification.total_inputs, duration_us)
    return WorkloadArtifacts(
        spec=spec,
        trace=trace,
        database=database,
        duration_us=duration_us,
        classification=classification,
        recording_master_seed=master_seed,
    )


def replay_run(
    artifacts: WorkloadArtifacts,
    config: str,
    rep: int = 0,
    master_seed: int = DEFAULT_MASTER_SEED,
    device_config: DeviceConfig | None = None,
    frame_tap=None,
    **governor_tunables,
) -> RunRecord:
    """Replay a recorded workload under a configuration (part B).

    ``config`` is a governor name (``ondemand``, ``conservative``,
    ``interactive``, …) or ``fixed:<khz>`` for one of the 14 operating
    points.

    By default the run streams: captured frames flow through the online
    matcher as the replay executes and are released once their annotation
    windows close, so memory stays O(active-window) instead of
    O(session).  ``REPRO_STREAM=0`` restores the batch path (materialise
    a full video, match post-hoc); output is bit-identical either way.

    ``frame_tap``, if given, is a :class:`~repro.capture.stream.FrameTap`
    subscribed to the capture — the golden-equivalence tests digest the
    frame journal through one without forcing video materialisation.
    """
    # Observability: an externally installed session (the ``trace``
    # command, tests) is used as-is; otherwise REPRO_TRACE=1 installs a
    # per-run metrics + flight-recorder session for this replay only.
    # With neither, obs stays None and every instrumentation site below
    # reduces to one ``is not None`` test.
    obs = obs_session.active()
    owns_session = False
    if obs is None and obs_session.trace_enabled():
        obs = obs_session.ObsSession.for_run()
        obs_session.install(obs)
        owns_session = True
    try:
        streams = RngStreams(master_seed).fork(
            f"replay:{artifacts.name}:{config}:{rep}"
        )
        if device_config is None:
            device_config = device_config_for(artifacts.spec)
        device, wm, _services = _build_device(
            config, streams, device_config, **governor_tunables
        )
        device.cpu.enable_busy_trace()
        agent = ReplayAgent(device.engine, device.input_subsystem)
        agent.schedule(artifacts.trace)
        card = CaptureCard(device.display)
        streaming = stream_enabled()
        online: OnlineMatcher | None = None
        if streaming:
            online = OnlineMatcher(artifacts.database)
            card.add_tap(online)
        if frame_tap is not None:
            card.add_tap(frame_tap)
        card.start(device.engine.now, streaming=streaming)

        run_window = artifacts.duration_us + RUN_TAIL_US
        device.run_for(run_window)

        video = card.stop(device.engine.now)
        if streaming:
            profile = online.profile()
        else:
            profile = Matcher(artifacts.database).match(video)
        record = RunRecord(
            workload=artifacts.name,
            config=config,
            rep=rep,
            duration_us=run_window,
            energy_j=device.cpu.energy_joules(),
            dynamic_energy_j=device.cpu.dynamic_energy_joules(),
            busy_us=device.cpu.busy_time_total(),
            transitions=device.policy.transition_points(),
            busy_intervals=device.cpu.busy_pairs(),
            lags=profile.lags,
        )
        if obs is not None:
            snapshot = obs.harvest_run(device.engine, governor=device.governor)
            if obs.decisions is not None:
                # The attribution engine consumes only mode-invariant
                # record state + boost timestamps, so the harvested cause
                # profile is identical across fastpath/streaming modes.
                from repro.obs.attribution import attribute_record

                snapshot["attribution"] = attribute_record(
                    record, boosts=obs.decisions.boosts
                ).summary()
            record.obs = snapshot
        return record
    finally:
        if owns_session:
            obs_session.uninstall()
