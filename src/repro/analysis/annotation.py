"""The annotation database (paper Fig. 4, part A).

Annotating a workload "means selecting an image for each interaction lag
that shows how the mobile screen looks when the user feels that the system
has serviced his input.  This needs to be done only once, after which the
workload will be reusable time and again."  Each annotation carries the
extra information of §II-E: an image mask, the occurrence index (for lags
whose ending looks like their beginning) and the irritation threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.errors import AnnotationError
from repro.core.geometry import Rect


@dataclass(frozen=True, slots=True)
class GestureInfo:
    """Metadata for one recorded gesture (input timings for the matcher)."""

    index: int
    kind: str  # "tap" | "swipe"
    down_time_us: int


@dataclass(slots=True)
class LagAnnotation:
    """Expected ending of one interaction lag."""

    gesture_index: int
    label: str
    category: str
    begin_time_us: int
    image: np.ndarray
    mask_rects: list[Rect] = field(default_factory=list)
    tolerance_px: int = 0
    occurrence: int = 1
    threshold_us: int = 0

    def __post_init__(self) -> None:
        if self.occurrence < 1:
            raise AnnotationError("occurrence must be >= 1")
        if self.image.ndim != 2:
            raise AnnotationError("annotation image must be 2-D grayscale")


class AnnotationDatabase:
    """All annotations of one workload, plus gesture timing metadata."""

    def __init__(
        self,
        workload_name: str,
        screen_width: int,
        screen_height: int,
    ) -> None:
        self.workload_name = workload_name
        self.screen_width = screen_width
        self.screen_height = screen_height
        self.gestures: list[GestureInfo] = []
        self.annotations: list[LagAnnotation] = []

    def add_gesture(self, info: GestureInfo) -> None:
        self.gestures.append(info)

    def add(self, annotation: LagAnnotation) -> None:
        if annotation.image.shape != (self.screen_height, self.screen_width):
            raise AnnotationError(
                "annotation image shape does not match the workload screen"
            )
        if any(
            a.gesture_index == annotation.gesture_index for a in self.annotations
        ):
            raise AnnotationError(
                f"gesture {annotation.gesture_index} already annotated"
            )
        self.annotations.append(annotation)
        self.annotations.sort(key=lambda a: a.begin_time_us)

    @property
    def lag_count(self) -> int:
        return len(self.annotations)

    @property
    def spurious_count(self) -> int:
        annotated = {a.gesture_index for a in self.annotations}
        return sum(1 for g in self.gestures if g.index not in annotated)

    def annotation_for_gesture(self, gesture_index: int) -> LagAnnotation | None:
        for annotation in self.annotations:
            if annotation.gesture_index == gesture_index:
                return annotation
        return None

    # --- persistence ------------------------------------------------------------------

    def meta_dict(self) -> dict:
        """Every field except the images, as the JSON ``meta.json`` holds."""
        return {
            "workload_name": self.workload_name,
            "screen_width": self.screen_width,
            "screen_height": self.screen_height,
            "gestures": [
                {"index": g.index, "kind": g.kind, "down_time_us": g.down_time_us}
                for g in self.gestures
            ],
            "annotations": [
                {
                    "gesture_index": a.gesture_index,
                    "label": a.label,
                    "category": a.category,
                    "begin_time_us": a.begin_time_us,
                    "mask_rects": [
                        [r.x, r.y, r.w, r.h] for r in a.mask_rects
                    ],
                    "tolerance_px": a.tolerance_px,
                    "occurrence": a.occurrence,
                    "threshold_us": a.threshold_us,
                }
                for a in self.annotations
            ],
        }

    def save(self, directory: str | Path) -> None:
        """Persist as ``meta.json`` + ``images.npz`` in a directory."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "meta.json").write_text(
            json.dumps(self.meta_dict(), indent=2), encoding="utf-8"
        )
        images = {
            f"lag_{a.gesture_index}": a.image for a in self.annotations
        }
        np.savez_compressed(directory / "images.npz", **images)

    @classmethod
    def load(cls, directory: str | Path) -> "AnnotationDatabase":
        directory = Path(directory)
        meta_path = directory / "meta.json"
        if not meta_path.exists():
            raise AnnotationError(f"no annotation database at {directory}")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        db = cls(
            meta["workload_name"], meta["screen_width"], meta["screen_height"]
        )
        for g in meta["gestures"]:
            db.add_gesture(GestureInfo(g["index"], g["kind"], g["down_time_us"]))
        with np.load(directory / "images.npz") as images:
            for a in meta["annotations"]:
                db.add(
                    LagAnnotation(
                        gesture_index=a["gesture_index"],
                        label=a["label"],
                        category=a["category"],
                        begin_time_us=a["begin_time_us"],
                        image=images[f"lag_{a['gesture_index']}"],
                        mask_rects=[Rect(*r) for r in a["mask_rects"]],
                        tolerance_px=a["tolerance_px"],
                        occurrence=a["occurrence"],
                        threshold_us=a["threshold_us"],
                    )
                )
        return db
