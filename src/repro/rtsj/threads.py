"""Deterministic cooperative scheduler.

Threads are generator coroutines produced by the interpreter (or a
compiled backend).  A coroutine charges every simulated cost straight
onto the clock, ``stats.cycles``, and yields only when its time slice is
over: when the clock has reached ``stats.slice_end``, or when the
program calls ``yieldnow()``.  Every yield therefore means "this slice
is over", and the value yielded is ignored.  Direct charges
(:meth:`Stats.charge`) move ``slice_end`` forward by what they charge,
so they land on the clock without counting toward the quantum.

Scheduling is strict-priority round-robin: all runnable real-time
threads run before any regular thread, matching the RTSJ model where
real-time threads preempt regular ones.  A pending garbage collection
runs between slices and pauses only the regular threads.

The whole machine is single-CPU: the global cycle clock advances by every
charged cost, so "execution time" (Figure 12) is the final clock value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from ..errors import (DeadlockError, ReproError, SanitizerViolation,
                      ThreadCrashError, ThreadSpawnError)
from .regions import MemoryArea
from .stats import Stats

Coroutine = Generator[Any, None, None]


@dataclass
class SimThread:
    name: str
    coroutine: Coroutine
    realtime: bool = False
    done: bool = False
    #: shared regions this thread is currently inside (for refcounts)
    shared_stack: List[MemoryArea] = field(default_factory=list)
    #: live interpreter frames (GC root discovery)
    frames: List[Dict[str, Any]] = field(default_factory=list)
    #: cycles consumed by this thread
    cycles: int = 0
    #: clock value when the thread last got the CPU (latency metric)
    last_scheduled: int = 0
    max_dispatch_latency: int = 0

    @property
    def no_heap(self) -> bool:
        """Our RT forked threads are no-heap real-time threads."""
        return self.realtime


class Scheduler:
    def __init__(self, stats: Stats, quantum: int = 2000,
                 max_cycles: int = 2_000_000_000,
                 gc_hook: Optional[Callable[[], int]] = None,
                 checkpoint_hook: Optional[Callable[[], None]] = None,
                 degrade: bool = False,
                 fault_injector: Optional[Any] = None) -> None:
        self.stats = stats
        self.quantum = quantum
        self.max_cycles = max_cycles
        self.threads: List[SimThread] = []
        self.gc_hook = gc_hook  # returns pause cycles, or 0 if no GC ran
        #: sanitizer entry point, called once per scheduling round
        self.checkpoint_hook = checkpoint_hook
        #: graceful degradation: a failing thread is finished with a
        #: structured diagnostic and the run queue keeps draining;
        #: False (the default) preserves fail-stop semantics — the
        #: first failure aborts the run
        self.degrade = degrade
        #: structured diagnostics of threads that failed (degrade mode)
        self.diagnostics: List[ReproError] = []
        self.fault_injector = fault_injector
        self.failure: Optional[BaseException] = None
        # dispatch latency (cycles a runnable thread waited for the
        # CPU) — the metric the paper's real-time claims are about
        self._h_latency = stats.metrics.histogram(
            "repro_dispatch_latency_cycles",
            "cycles a thread waited between time slices",
            buckets=(100, 500, 1000, 2000, 5000, 10000, 50000, 200000))
        # pre-bound: skip the labels()/observe() pair per slice when the
        # registry is a null implementation (`repro bench` runs)
        self._observe_latency = not stats.metrics.null
        #: flight recorder (None when post-mortem recording is off)
        self._rec = stats.recorder

    def spawn(self, thread: SimThread) -> None:
        injector = self.fault_injector
        if injector is not None and injector.fire("thread_spawn",
                                                  thread.name):
            err = ThreadSpawnError(
                f"injected fault: spawn of thread '{thread.name}' "
                "denied")
            err.injected = True
            raise err
        thread.last_scheduled = self.stats.cycles
        self.threads.append(thread)
        self.stats.threads_spawned += 1

    # ------------------------------------------------------------------

    def _finish(self, thread: SimThread) -> None:
        from .regions import release_shared
        thread.done = True
        rec = self._rec
        if rec is not None:
            rec.record("thread-finished", thread.name,
                       cycle=self.stats.cycles, thread=thread.name,
                       attrs={"cycles": thread.cycles})
        # a terminating thread exits all its shared regions (Section 2.2)
        for area in reversed(thread.shared_stack):
            release_shared(area, thread.name)
        thread.shared_stack.clear()

    def _fail(self, thread: SimThread, err: BaseException) -> None:
        """A simulated thread failed: stamp the diagnostic, finish the
        thread, and either record it (degrade mode) or arm fail-stop."""
        if isinstance(err, ReproError):
            if err.thread is None:
                err.thread = thread.name
            if err.cycle is None:
                err.cycle = self.stats.cycles
        rec = self._rec
        if rec is not None:
            rec.record("thread-aborted", thread.name,
                       cycle=self.stats.cycles, thread=thread.name,
                       attrs={"error": type(err).__name__,
                              "message": str(err)})
        self._finish(thread)
        # a sanitizer violation means runtime state is already corrupt:
        # degrading past it would sanitize nothing, so it stays fatal
        if (self.degrade and isinstance(err, ReproError)
                and not isinstance(err, SanitizerViolation)):
            self.diagnostics.append(err)
            self.stats.threads_aborted += 1
            return
        if self.failure is None:
            self.failure = err

    def _run_slice(self, thread: SimThread) -> None:
        stats = self.stats
        latency = stats.cycles - thread.last_scheduled
        if latency > thread.max_dispatch_latency:
            thread.max_dispatch_latency = latency
        if self._observe_latency:
            self._h_latency.labels(
                realtime="true" if thread.realtime else "false"
            ).observe(latency)
        # one resume runs the whole slice: the coroutine charges the
        # clock in place and yields once the deadline is reached
        stats.slice_end = stats.cycles + self.quantum
        try:
            try:
                next(thread.coroutine)
            finally:
                # before _finish, so thread-finished sees the final count
                self._commit(thread)
        except StopIteration:
            self._finish(thread)
            return
        except RecursionError:
            # the simulated program's call stack overflowed the host
            # interpreter's: surface it as the simulated platform's
            # StackOverflowError equivalent
            from ..errors import InterpreterError
            self._fail(thread, InterpreterError(
                f"simulated call stack overflow in thread "
                f"'{thread.name}' (deep recursion)"))
            return
        except ReproError as err:
            self._fail(thread, err)
            return
        except Exception as exc:
            # a host-level crash inside one simulated thread must not
            # abandon the whole run queue with a bare traceback: finish
            # the thread and surface a structured diagnostic instead
            self._fail(thread, ThreadCrashError(
                f"thread '{thread.name}' crashed: "
                f"{type(exc).__name__}: {exc}", cause=exc))
            return
        thread.last_scheduled = stats.cycles

    def _commit(self, thread: SimThread) -> None:
        """Fold one slice's cycles into the per-thread attribution.
        Direct charges moved ``slice_end`` along with the clock (and
        were attributed when they were made), so the cycles charged
        inside the quantum are the clock's distance past the slice's
        original deadline, plus the quantum."""
        stats = self.stats
        spent = stats.cycles - stats.slice_end + self.quantum
        if spent:
            thread.cycles += spent
            by_thread = stats.cycles_by_thread
            by_thread[thread.name] = by_thread.get(thread.name, 0) + spent

    def _shutdown(self) -> None:
        """Abort path: close every unfinished coroutine so region
        ``finally`` blocks run, shared regions are released, and thread
        counts return to zero.  Region epilogues charge cycles directly
        (they never yield), so ``close()`` cannot trip on a yield inside
        a ``finally``."""
        for thread in self.threads:
            if thread.done:
                continue
            try:
                thread.coroutine.close()
            except Exception:
                pass  # teardown is best-effort; the diagnostic is set
            self._finish(thread)

    def run(self) -> None:
        """Run until every thread finishes.  Re-raises the first simulated
        runtime failure after stopping all threads (in degrade mode,
        per-thread failures land in ``diagnostics`` instead and the
        queue keeps draining)."""
        try:
            self._run_loop()
        except BaseException:
            self._shutdown()
            raise

    def _run_loop(self) -> None:
        while True:
            if self.failure is not None:
                raise self.failure
            alive = [t for t in self.threads if not t.done]
            if not alive:
                return
            if self.stats.cycles > self.max_cycles:
                raise DeadlockError(
                    f"simulation exceeded {self.max_cycles} cycles "
                    "(runaway program?)")
            if self.checkpoint_hook is not None:
                self.checkpoint_hook()
            if self.gc_hook is not None:
                pause = self.gc_hook()
                if pause:
                    # the pause hits the global clock; real-time threads
                    # are not blocked by it (asserted via latency metrics)
                    self.stats.charge(pause, "<gc>")
                    for t in alive:
                        if t.realtime:
                            # RT threads keep running during GC: their
                            # next dispatch is not delayed by the pause
                            t.last_scheduled = self.stats.cycles
            ran_any = False
            # strict priority: real-time threads first
            for thread in [t for t in alive if t.realtime] + \
                          [t for t in alive if not t.realtime]:
                if thread.done:
                    continue
                self._run_slice(thread)
                ran_any = True
            if not ran_any:
                raise DeadlockError("no runnable threads")
