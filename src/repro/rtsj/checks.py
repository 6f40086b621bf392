"""The RTSJ dynamic checks.

Two families, exactly as in the paper's introduction:

* **Assignment checks** — storing a reference must not create a dangling
  reference: the value's memory area must outlive the target's area
  (``IllegalAssignmentError`` otherwise).  Performed on *every* reference
  store by *every* thread.
* **Heap-access checks** — a no-heap real-time thread must never read,
  overwrite, or receive a reference to a heap-allocated object
  (``MemoryAccessError``).  Performed on every reference load/store
  executed by a real-time thread.

``CheckEngine`` runs in one of three modes:

* ``dynamic``   — checks performed *and charged* to the cycle clock
  (the RTSJ baseline of Figure 12);
* ``static``    — checks skipped entirely (our type system has proven
  them redundant; the "static checks" column of Figure 12);
* additionally, ``validate=True`` performs the checks without charging
  cycles — the test suite uses this to assert Theorems 3/4 empirically:
  a well-typed program never fails a check.

Performance notes (see ``docs/PERFORMANCE.md``): the per-check cost
constants are hoisted into instance attributes at construction, and all
instrumentation (histograms, per-site profile attribution) sits behind
``self._observe`` — a flag computed once from whether the run's
metrics/profile sinks actually record anything; flight records sit
behind ``self._rec is not None``.  A benchmark run with
``instrument=False`` therefore pays only the counter increments that
the run summary itself needs.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import (IllegalAssignmentError, MemoryAccessError,
                      PortalWriteError)
from .objects import ObjRef
from .regions import MemoryArea
from .stats import CostModel, Stats


class CheckEngine:
    def __init__(self, cost_model: CostModel, stats: Stats,
                 enabled: bool, validate: bool) -> None:
        self.cost = cost_model
        self.stats = stats
        self.enabled = enabled
        self.validate = validate
        #: fault-injection plane hook; set by the Machine when a fault
        #: plan is active, consulted on the portal-write path only
        self.fault_injector: Optional[Any] = None
        #: either mode needs the check performed at all
        self.active = enabled or validate
        # hoisted per-check constants (attribute chains are expensive in
        # the hot loop)
        self._assign_base = cost_model.check_assign_base
        self._assign_per_level = cost_model.check_assign_per_level
        self._read_base = cost_model.check_read_base
        # live instruments: the per-check cost distribution is the core
        # of the Figure 12 story, so it is histogrammed as it happens —
        # unless every sink is a null implementation, in which case the
        # whole instrumentation block is skipped (`repro bench` path)
        metrics = stats.metrics
        self._observe = not (metrics.null and stats.profile.null)
        #: flight recorder (None when post-mortem recording is off):
        #: records every check performed, and — the other half of the
        #: Figure 12 ledger — every check the static path *elided*,
        #: with the cycles the dynamic mode would have charged
        self._rec = stats.recorder
        self._h_assign = metrics.histogram(
            "repro_check_assign_cycles",
            "cycle cost of individual RTSJ assignment checks")
        self._h_depth = metrics.histogram(
            "repro_check_ancestry_depth",
            "scope-ancestry steps walked per assignment check",
            buckets=(1, 2, 3, 4, 6, 8, 12, 16, 24, 32))
        self._h_read = metrics.histogram(
            "repro_check_read_cycles",
            "cycle cost of individual no-heap read/overwrite checks")

    # ------------------------------------------------------------------

    def assignment_cost(self, target_area: MemoryArea, value: Any,
                        line: int = 0, thread: str = "main") -> int:
        """Cycles charged for one RTSJ assignment check (0 when checks
        are compiled out).  Raises on violation when checking is on in
        either mode.  ``line`` attributes the cost to the source line
        executing the store (``repro profile``)."""
        rec = self._rec
        if not self.active:
            if rec is not None:
                self._record_elided_assign(rec, target_area, value, line,
                                           thread)
            return 0
        cycles = 0
        if self.enabled:
            stats = self.stats
            stats.assignment_checks += 1
            cycles = self._assign_base
            depth = 0
            is_ref = isinstance(value, ObjRef)
            if is_ref:
                depth = value.area.ancestry_distance(target_area)
                cycles += self._assign_per_level * depth
            stats.check_cycles += cycles
            if self._observe:
                if is_ref:
                    self._h_depth.observe(depth)
                self._h_assign.observe(cycles)
                stats.profile.record_check(line, target_area.name,
                                           cycles)
            if rec is not None:
                rec.record("check-assign", target_area.name,
                           cycle=stats.cycles, thread=thread,
                           attrs={"cycles": cycles, "depth": depth,
                                  "line": line})
        elif rec is not None:
            # validate mode: the check runs for free — from the ledger's
            # point of view that is still an elided dynamic check
            self._record_elided_assign(rec, target_area, value, line,
                                       thread)
        if isinstance(value, ObjRef):
            if not value.area.outlives(target_area):
                raise IllegalAssignmentError(
                    f"storing a reference to {value!r} (area "
                    f"'{value.area.name}') into area "
                    f"'{target_area.name}' would dangle")
        return cycles

    def _record_elided_assign(self, rec: Any, target_area: MemoryArea,
                              value: Any, line: int,
                              thread: str) -> None:
        """Credit one elided assignment check to the static path, with
        the exact cycles the dynamic mode would have charged (same
        formula, same per-store call conditions — so the elide count of
        a static run equals the performed count of the dynamic run)."""
        depth = 0
        saved = self._assign_base
        if isinstance(value, ObjRef):
            depth = value.area.ancestry_distance(target_area)
            saved += self._assign_per_level * depth
        rec.record("check-elide-assign", target_area.name,
                   cycle=self.stats.cycles, thread=thread,
                   attrs={"cycles_saved": saved, "depth": depth,
                          "line": line})

    def portal_write_guard(self, area: MemoryArea,
                           thread: str = "main") -> None:
        """Fault-injection consult on a portal store: models the store
        being denied by a concurrent region-teardown race.  No-op unless
        an injector is attached (the interpreter binds the guarded
        portal path only in that case)."""
        injector = self.fault_injector
        if injector is not None and injector.fire("portal_write",
                                                  area.name):
            err = PortalWriteError(
                f"injected fault: portal write into region "
                f"'{area.name}' denied (teardown race)")
            err.injected = True
            err.thread = thread
            raise err

    def read_cost(self, realtime: bool, value: Any,
                  old_value: Any = None, line: int = 0,
                  thread: str = "main") -> int:
        """Cycles charged for the no-heap read/overwrite check on a
        reference touched by a real-time thread."""
        if not realtime:
            return 0
        rec = self._rec
        if not self.active:
            if rec is not None:
                rec.record("check-elide-read", thread,
                           cycle=self.stats.cycles, thread=thread,
                           attrs={"cycles_saved": self._read_base,
                                  "line": line})
            return 0
        cycles = 0
        if self.enabled:
            stats = self.stats
            stats.read_checks += 1
            cycles = self._read_base
            stats.check_cycles += cycles
            if self._observe:
                self._h_read.observe(cycles)
                stats.profile.record_check(line, "<read-check>", cycles)
            if rec is not None:
                rec.record("check-read", thread, cycle=stats.cycles,
                           thread=thread,
                           attrs={"cycles": cycles, "line": line})
        elif rec is not None:
            rec.record("check-elide-read", thread,
                       cycle=self.stats.cycles, thread=thread,
                       attrs={"cycles_saved": self._read_base,
                              "line": line})
        for v in (value, old_value):
            if isinstance(v, ObjRef) and v.area.is_heap:
                raise MemoryAccessError(
                    f"no-heap real-time thread touched heap reference "
                    f"{v!r}")
        return cycles
