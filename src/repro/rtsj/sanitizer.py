"""Runtime region sanitizer.

The static system proves the paper's invariants once, at analysis time;
the sanitizer re-verifies them against the *live* runtime state at
checkpoints, so that any bug in the runtime itself — or any damage a
degraded recovery path might cause — is caught at the first checkpoint
after it happens, with a diagnosable :class:`SanitizerViolation` naming
the invariant and the offending object/area, instead of surfacing
thousands of cycles later as a corrupted result.

Invariants checked, mapped to the paper:

* **O1 (ownership forest)** — the region/area relation is a forest:
  no area is its own ancestor, parent chains are finite and acyclic.
* **O2 (owner co-location)** — an object owned by another object lives
  in its owner's region (Section 2.1: ``region_of_owner``).  Objects
  the VT-spill degradation relocated (``obj.spilled``) are exempt; for
  them the weaker R1-preserving guarantee is checked instead (the spill
  target outlives the denied region).
* **R1/R2 (no dangling references)** — every reference held in an
  object field points to a live object whose area outlives the holder's
  area; the outlives relation itself is acyclic (O1's check covers the
  area side).
* **R3 (no-heap real-time threads)** — no frame of a live real-time
  thread holds a reference into the heap.
* **Flush rule F1–F3 (Section 2.2)** — re-verified when a region exits:
  a flushed area had zero threads inside (F1), only null/scalar portals
  (F2), and only flushed subregions (F3).
* **Accounting sanity** — per-area ``bytes_used`` equals the sum of its
  resident objects' sizes, thread counts are never negative, portal
  values are null, scalars, or live references.

The walk is O(live objects), so it runs at configurable checkpoints
(scheduling-round boundaries, region exits, end of run), not per
operation.  All hooks are no-ops unless a sanitizer is installed — the
interpreter compiles the calls in only when one is present, preserving
byte-identical behaviour for plain runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Optional, Set

from ..errors import SanitizerViolation
from .objects import ArrayStorage, ObjRef
from .regions import MemoryArea, RegionManager
from .stats import Stats

#: checkpoint kinds a sanitizer can be armed for
CHECKPOINTS: FrozenSet[str] = frozenset(
    {"quantum", "region_exit", "flush", "end"})


@dataclass(frozen=True)
class SanitizerConfig:
    """Which checkpoints trigger a sweep, and how often."""

    checkpoints: FrozenSet[str] = CHECKPOINTS
    #: full sweep every n-th scheduling round (1 = every round); the
    #: cheap flush-rule re-check at region exits always runs
    every_n_quanta: int = 1

    def __post_init__(self) -> None:
        unknown = set(self.checkpoints) - CHECKPOINTS
        if unknown:
            raise ValueError(
                f"unknown sanitizer checkpoint(s) {sorted(unknown)}; "
                f"known: {sorted(CHECKPOINTS)}")
        if self.every_n_quanta < 1:
            raise ValueError("every_n_quanta must be >= 1")


def _is_scalar(value: Any) -> bool:
    return isinstance(value, (int, float, bool, str))


class RegionSanitizer:
    """Walks the live areas and verifies the paper's invariants."""

    def __init__(self, regions: RegionManager, stats: Stats,
                 scheduler: Optional[Any] = None,
                 config: Optional[SanitizerConfig] = None) -> None:
        self.regions = regions
        self.stats = stats
        self.scheduler = scheduler  # bound late by the Machine
        self.config = config or SanitizerConfig()
        self._quanta = 0
        self.violations = 0
        metrics = stats.metrics
        self._c_checks = metrics.counter(
            "repro_sanitizer_checks_total",
            "sanitizer sweeps performed, by checkpoint kind")
        self._c_violations = metrics.counter(
            "repro_sanitizer_violations_total",
            "invariant violations detected, by invariant")

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def on_quantum(self) -> None:
        """Scheduling-round boundary (the Scheduler's checkpoint hook)."""
        if "quantum" not in self.config.checkpoints:
            return
        self._quanta += 1
        if self._quanta % self.config.every_n_quanta:
            return
        self.sweep("quantum")

    def on_region_exit(self, area: MemoryArea) -> None:
        """A scoped/shared region was exited.  Verifies teardown left
        the area consistent; additionally runs a full sweep when armed
        for ``region_exit``.  (The flush-rule recheck lives in
        :meth:`on_flush` — ``is_flushed`` alone cannot distinguish "just
        flushed" from "never allocated anything", and the latter is
        legal with threads still inside.)"""
        if not area.live and area.thread_count != 0:
            self._violation(
                "F1-threads", area.name,
                f"destroyed region '{area.name}' has thread count "
                f"{area.thread_count}", "region_exit")
        if "region_exit" in self.config.checkpoints:
            self.sweep("region_exit")

    def on_flush(self, area: MemoryArea) -> None:
        """An area was flushed while staying live (subregion reuse)."""
        if "flush" not in self.config.checkpoints:
            return
        self._check_flush_rule(area, "flush")

    def on_end(self) -> None:
        """End of run: final sweep plus global teardown assertions."""
        if "end" not in self.config.checkpoints:
            return
        self.sweep("end")
        for area in self.regions.live_areas():
            if area.parent is not None and area.thread_count != 0:
                self._violation(
                    "F1-threads", area.name,
                    f"run ended with {area.thread_count} thread(s) "
                    f"still inside region '{area.name}'", "end")

    # ------------------------------------------------------------------
    # the sweep
    # ------------------------------------------------------------------

    def sweep(self, checkpoint: str) -> None:
        """One full walk over the live areas; raises
        :class:`SanitizerViolation` on the first broken invariant."""
        self.stats.sanitizer_checks += 1
        self._c_checks.labels(checkpoint=checkpoint).inc()
        live = self.regions.live_areas()
        live_ids = {area.area_id for area in live}
        for area in live:
            self._check_area(area, live_ids, checkpoint)
        self._check_rt_threads(checkpoint)

    def _check_area(self, area: MemoryArea, live_ids: Set[int],
                    checkpoint: str) -> None:
        # O1: the area forest is acyclic
        if area.area_id in area.ancestor_ids:
            self._violation(
                "O1-forest", area.name,
                f"area '{area.name}' is its own ancestor", checkpoint)
        seen: Set[int] = {area.area_id}
        parent = area.parent
        while parent is not None:
            if parent.area_id in seen:
                self._violation(
                    "O1-forest", area.name,
                    f"parent chain of area '{area.name}' cycles at "
                    f"'{parent.name}'", checkpoint)
            seen.add(parent.area_id)
            parent = parent.parent
        # accounting sanity
        if area.thread_count < 0:
            self._violation(
                "thread-count", area.name,
                f"area '{area.name}' has negative thread count "
                f"{area.thread_count}", checkpoint)
        resident = sum(obj.size_bytes for obj in area.objects)
        if resident != area.bytes_used:
            self._violation(
                "byte-accounting", area.name,
                f"area '{area.name}' accounts {area.bytes_used} bytes "
                f"but holds {resident} bytes of objects", checkpoint)
        # portal typing: null | scalar | live reference that outlives
        for slot, value in area.portals.items():
            path = f"{area.name}.portal[{slot}]"
            if value is None or _is_scalar(value):
                continue
            if not isinstance(value, ObjRef):
                self._violation(
                    "portal-typing", path,
                    f"portal holds non-value {value!r}", checkpoint)
            if not value.alive:
                self._violation(
                    "R1-no-dangling", path,
                    f"portal references dead object {value!r}",
                    checkpoint)
            if not value.area.outlives(area):
                self._violation(
                    "R1-no-dangling", path,
                    f"portal references {value!r} whose area "
                    f"'{value.area.name}' does not outlive "
                    f"'{area.name}'", checkpoint)
        # per-object invariants
        for obj in area.objects:
            self._check_object(obj, area, checkpoint)

    def _check_object(self, obj: ObjRef, area: MemoryArea,
                      checkpoint: str) -> None:
        path = f"{area.name}/{obj.class_name}#{obj.oid}"
        # O2: objects live in their owner's region (spilled objects are
        # exempt but must still satisfy the outlives direction)
        owner = obj.owner
        owner_area: Optional[MemoryArea] = None
        if isinstance(owner, ObjRef):
            owner_area = owner.area
        elif isinstance(owner, MemoryArea):
            owner_area = owner
        if owner_area is not None and owner_area is not area:
            if obj.spilled:
                if not area.outlives(owner_area):
                    self._violation(
                        "O2-colocation", path,
                        f"spilled object landed in '{area.name}' which "
                        f"does not outlive its owner region "
                        f"'{owner_area.name}'", checkpoint)
            else:
                self._violation(
                    "O2-colocation", path,
                    f"object resides in '{area.name}' but its owner "
                    f"places it in '{owner_area.name}'", checkpoint)
        # R1/R2: every held reference is live and outlives the holder
        for name, value in obj.fields.items():
            if isinstance(value, ArrayStorage) \
                    or not isinstance(value, ObjRef):
                continue
            fpath = f"{path}.{name}"
            if not value.alive:
                self._violation(
                    "R1-no-dangling", fpath,
                    f"field references dead object {value!r}",
                    checkpoint)
            if not value.area.outlives(area):
                self._violation(
                    "R2-outlives", fpath,
                    f"field references {value!r} whose area "
                    f"'{value.area.name}' does not outlive "
                    f"'{area.name}'", checkpoint)

    def _check_rt_threads(self, checkpoint: str) -> None:
        # R3: no-heap real-time threads hold no heap references
        scheduler = self.scheduler
        if scheduler is None:
            return
        for thread in scheduler.threads:
            if thread.done or not thread.realtime:
                continue
            for i, frame in enumerate(thread.frames):
                values = [getattr(frame, "this", None)]
                values.extend(getattr(frame, "vars", {}).values())
                values.extend(getattr(frame, "temps", ()))
                for value in values:
                    if isinstance(value, ObjRef) and value.area.is_heap:
                        self._violation(
                            "R3-rt-no-heap",
                            f"{thread.name}/frame[{i}]",
                            f"real-time thread '{thread.name}' holds "
                            f"heap reference {value!r}", checkpoint)

    def _check_flush_rule(self, area: MemoryArea,
                          checkpoint: str) -> None:
        """The three Section 2.2 flush conditions, re-verified against
        the post-flush state of a flushed area."""
        if area.thread_count != 0:
            self._violation(
                "F1-threads", area.name,
                f"flushed region '{area.name}' has thread count "
                f"{area.thread_count}", checkpoint)
        for slot, value in area.portals.items():
            if isinstance(value, ObjRef):
                self._violation(
                    "F2-portals", f"{area.name}.portal[{slot}]",
                    f"flushed region '{area.name}' still has a "
                    f"reference portal '{slot}'", checkpoint)
        for slot, sub in area.subregions.items():
            if sub is not None and sub.live and not sub.is_flushed:
                self._violation(
                    "F3-subregions", f"{area.name}/{sub.name}",
                    f"flushed region '{area.name}' has unflushed "
                    f"subregion '{sub.name}'", checkpoint)

    # ------------------------------------------------------------------

    def _violation(self, invariant: str, path: str, message: str,
                   checkpoint: str) -> None:
        self.violations += 1
        self._c_violations.labels(invariant=invariant).inc()
        err = SanitizerViolation(invariant, path, message,
                                 checkpoint=checkpoint)
        err.cycle = self.stats.cycles
        rec = self.stats.recorder
        if rec is not None:
            rec.record("sanitizer-violation", path,
                       cycle=self.stats.cycles, thread="<sanitizer>",
                       attrs={"invariant": invariant,
                              "checkpoint": checkpoint,
                              "message": message})
        raise err
