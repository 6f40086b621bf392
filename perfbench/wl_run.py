"""``run``: run time of the generated code.

The eight paper programs, at full size with seeded parameters, are
analysed, checked against the interpreter reference and compiled
during set-up.  Each timed op is one ``repro.interp.machine.execute``
of one cell: (program, requested backend, checks mode).  Cells are
visited round-robin in a seeded order; a compiled-backend cell runs
``COMPILED_BATCH`` executes per visit, timed together.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import replace
from typing import Any, Dict, List, Tuple

from . import gen
from .common import (Meter, Outcome, Spans, geomean, median, percentile,
                     typical)
from .wl_check import frontend_layers, traced_analyze

#: ``Stats.summary()`` counters reported as ``rtsj.*`` per-layer metrics
RTSJ_COUNTERS = ("cycles", "assignment_checks", "read_checks",
                 "check_cycles", "allocations", "regions_created",
                 "gc_runs")

#: backends a run can end on (``Machine.program.backend`` or interp)
BACKENDS_USED = ("interp", "py-fused", "py-faithful", "c")

#: executes per visit of a compiled-backend cell, timed as one batch:
#: such an execute takes 0.1-30 ms against the interpreter's 3-350 ms,
#: and a single 0.1 ms execute reads 1x or 2x depending on whether a
#: garbage collection of the young generation lands in it
COMPILED_BATCH = 5


def options(backend: str, dynamic: bool) -> Any:
    from repro.interp.machine import RunOptions
    return RunOptions(checks_enabled=dynamic, validate=False,
                      instrument=False, backend=backend)


def used_backend(machine: Any) -> str:
    return machine.program.backend if machine.program is not None \
        else "interp"


def fell_back(requested: str, used: str) -> bool:
    return not (used == requested or used.startswith(requested + "-"))


def fingerprint(result: Any) -> Tuple[int, str, Dict[str, Any]]:
    """What a cell must reproduce: cycles, output digest, run counters."""
    return (result.stats.cycles,
            hashlib.sha256("\n".join(result.output).encode()).hexdigest(),
            result.stats.summary())


def traced_execute(spans: Spans, op: Any, analyzed: Any, opts: Any
                   ) -> Tuple[Any, List[Tuple[str, float, bool]]]:
    """``execute`` spelled out with a span per ``Machine(...)`` and
    ``.run()``: returns the result and, per attempt, the backend that
    ran, its run seconds, and whether it bailed to a fallback."""
    from repro.interp.machine import Machine
    root = spans.begin("interp.execute", op)
    attempts = []
    while True:
        span = spans.begin("interp.machine_init", op, root)
        machine = Machine(analyzed, opts)
        spans.end(span)
        used = used_backend(machine)
        span = spans.begin(f"interp.exec.{used}", op, root)
        result = machine.run()
        secs = spans.end(span)
        attempts.append((used, secs, machine.program_bailed))
        if not machine.program_bailed:
            break
        opts = replace(machine.options,
                       backend=machine.program.fallback_backend)
    spans.end(root)
    root["rerun_s"] = sum(secs for _, secs, bailed in attempts if bailed)
    return result, attempts


def traced_lower(spans: Spans, op: Any, analyzed: Any,
                 modes: Tuple[bool, ...]) -> Any:
    """Spans around ``lower`` and, per checks mode in ``modes``, the
    fused Python emitter (which only takes programs without hazards)."""
    from repro.interp.codegen_py import fused_source
    from repro.interp.lower import lower
    span = spans.begin("interp.lower", op)
    lowered = lower(analyzed)
    spans.end(span)
    span["units"] = len(lowered.units)
    if lowered.fused_ok:
        cost = options("interp", False).cost_model
        for dynamic in modes:
            span = spans.begin("interp.emit_py", op)
            text = fused_source(lowered, dynamic, False, cost)
            spans.end(span)
            span["bytes"] = len(text)
    return lowered


class Workload:
    name = "run"

    def __init__(self, seed: int, rundir: Any, traced: bool,
                 meter: Meter) -> None:
        self.seed = seed
        self.meter = meter
        self.spans = Spans() if traced else None

    def setup(self, seconds: float) -> None:
        from repro.core.api import analyze
        from repro.interp.machine import execute
        tick = self.meter.tick
        gen.verify_pins(self.name)
        tick()
        # warm-up over a disjoint seed at the registry's fast sizes:
        # every interp and py cell once (the C backend's state is per
        # program, so warming it would only add compiler runs)
        warm = gen.run_sources(f"{gen.WARMUP_SALT}-{self.seed}", fast=True)
        for source in warm.values():
            analyzed = analyze(source)
            for backend, dynamic in gen.RUN_CELLS:
                if backend != "c":
                    execute(analyzed, options(backend, dynamic))
                    tick()
        self.analyzed: Dict[str, Any] = {}
        self.reference: Dict[Tuple[str, bool], Any] = {}
        self.failures: List[str] = []
        for name, source in gen.run_sources(self.seed).items():
            if self.spans is not None:
                analyzed = traced_analyze(self.spans, name, source)
                self._trace_codegen(name, analyzed)
            else:
                analyzed = analyze(source)
            if analyzed.errors:
                self.failures.append(f"{name}: {analyzed.error_rules()}")
                continue
            self.analyzed[name] = analyzed
            for dynamic in (False, True):
                result, _ = execute(analyzed, options("interp", dynamic))
                tick()
                ref = fingerprint(result)
                self.reference[name, dynamic] = ref
                want = gen.EXPECTED.get(name)
                if want is not None and result.output != want:
                    self.failures.append(
                        f"{name}: interpreter output {result.output} != "
                        f"EXPECTED_OUTPUT {want}")
        # compile every compiled-backend cell: the first execute lowers,
        # emits and (for c) runs the C compiler; each is checked like a
        # timed op (the interpreter cells' first execute was the
        # reference itself)
        self.cells = [(name, backend, dynamic)
                      for name in self.analyzed
                      for backend, dynamic in gen.RUN_CELLS]
        for cell in self.cells:
            if cell[1] != "interp":
                result, machine = execute(self.analyzed[cell[0]],
                                          options(*cell[1:]))
                tick()
                self._check(cell, result, used_backend(machine))
        random.Random(gen.digest([self.seed, "cells"])).shuffle(self.cells)
        tick()

    def _trace_codegen(self, name: str, analyzed: Any) -> None:
        """Spans around lowering, both emitters and the C compile."""
        from repro.interp.codegen_base import CodegenUnsupported
        from repro.interp.codegen_c import c_source, compile_c
        from repro.interp.machine import Machine
        sp = self.spans
        lowered = traced_lower(sp, name, analyzed, (False, True))
        if not lowered.fused_ok:
            return  # neither emitter compiles a program with hazards
        opts = options("interp", False)
        span = sp.begin("interp.emit_c", name)
        text = c_source(lowered, opts.cost_model)
        emit_s = sp.end(span)
        span["bytes"] = len(text)
        machine = Machine(analyzed, opts)
        span = sp.begin("interp.compile_c", name)
        try:
            compile_c(machine)
        except CodegenUnsupported as exc:
            self.failures.append(f"{name}: compile_c: {exc}")
        # compile_c emits the C text again before running cc: its own
        # time is the compiler run plus dlopen
        span["cc_s"] = max(0.0, sp.end(span) - emit_s)

    def _check(self, cell: Tuple[str, str, bool], result: Any,
               used: str) -> bool:
        name, backend, dynamic = cell
        ok = fingerprint(result) == self.reference[name, dynamic]
        if not ok:
            self.failures.append(
                f"{name} {backend}/{'dynamic' if dynamic else 'static'} "
                f"(ran {used}) diverges from the interpreter")
        return ok

    def measure(self, seconds: float, out: Outcome) -> None:
        from repro.interp.machine import execute
        for failure in self.failures:
            out.op(False, failure)
        self.failures = []
        times: Dict[Tuple[str, str, bool], List[float]] = {
            cell: [] for cell in self.cells}
        paired: Dict[Tuple[str, str, bool], List[List[float]]] = {
            cell: [[], []] for cell in self.cells}
        used_by_cell: Dict[Tuple[str, str, bool], str] = {}
        fallbacks = bails = 0
        n = 0
        busy0 = self.meter.ref
        deadline = time.perf_counter() + seconds
        visit = 0
        while time.perf_counter() < deadline:
            cell = self.cells[visit % len(self.cells)]
            # alternate, per round, which of a traced pair runs first
            traced_first = (visit // len(self.cells)) % 2
            visit += 1
            analyzed = self.analyzed[cell[0]]
            opts = options(*cell[1:])
            batch = 1 if cell[1] == "interp" else COMPILED_BATCH
            if self.spans is None:
                runs, took = self.meter.time(
                    lambda: [execute(analyzed, opts) for _ in range(batch)])
                times[cell].append(took / batch)
                ran = [(result, used_backend(machine))
                       for result, machine in runs]
            else:
                ran = []
                for _ in range(batch):
                    for traced in ((True, False) if traced_first
                                   else (False, True)):
                        if traced:
                            (result, attempts), took = self.meter.time(
                                traced_execute, self.spans, n, analyzed,
                                opts)
                            ran.append((result, attempts[-1][0]))
                            bails += len(attempts) - 1
                        else:
                            _, took = self.meter.time(execute, analyzed,
                                                      opts)
                        paired[cell][traced].append(took)
            for result, used in ran:
                ok = self._check(cell, result, used)
                out.op(ok, self.failures[-1] if not ok else "")
                fallbacks += fell_back(cell[1], used)
                used_by_cell[cell] = used
                n += 1
        self.meter.tick()
        busy = self.meter.ref - busy0
        per_used: Dict[str, int] = {}
        for cell, used in used_by_cell.items():
            per_used[f"{cell[1]}->{used}"] = per_used.get(
                f"{cell[1]}->{used}", 0) + 1
        out.notes.append(f"{n} executes over {len(self.cells)} cells; "
                         f"cells by requested->used backend: {per_used}")
        if self.spans is None:
            self._end_to_end(out, times, busy)
            return
        self._layers(out, used_by_cell, paired)
        out.put("interp.fallback_ratio", fallbacks / n if n else 0.0,
                "ratio")
        reruns = [s["rerun_s"] for s in self.spans.spans
                  if s["name"] == "interp.execute"]
        out.put("interp.rerun_ms",
                sum(reruns) * 1e3 / len(reruns) if reruns else 0.0, "ms")
        out.notes.append(f"bailed attempts: {bails}")

    def _end_to_end(self, out: Outcome, times: Dict[Any, List[float]],
                    elapsed: float) -> None:
        interp = {c: ts for c, ts in times.items() if c[1] == "interp"}
        compiled = {c: ts for c, ts in times.items() if c[1] != "interp"}
        pooled = [t for ts in interp.values() for t in ts]
        out.put("ops_per_s", (out.attempted - out.failed) / elapsed, "1/s")
        out.put("p50_ms", typical(interp) * 1e3, "ms")
        out.put("p95_ms", percentile(pooled, 0.95) * 1e3, "ms")
        out.put("hit_p50_ms", typical(compiled) * 1e3, "ms")
        out.notes.append(f"p50 over {len(interp)} interpreter cells, p95 "
                         f"over {len(pooled)} interpreter executes, "
                         f"hit_p50 over {len(compiled)} compiled cells")
        for backend in ("interp", "py", "c"):
            cells = [median(ts) for cell, ts in times.items()
                     if cell[1] == backend and ts]
            out.notes.append(f"{backend}_ms (geomean of cell medians, "
                             f"{len(cells)} cells): "
                             f"{geomean(cells) * 1e3:.4f} ms")

    def _layers(self, out: Outcome, used_by_cell: Dict[Any, str],
                paired: Dict[Any, List[List[float]]]) -> None:
        sp = self.spans
        frontend_layers(sp, out)
        selfs = sp.self_times()
        by_name: Dict[str, List[Dict[str, Any]]] = {}
        for span in sp.spans:
            by_name.setdefault(span["name"], []).append(span)
        lows = by_name.get("interp.lower", [])
        out.put("interp.lower_ms",
                median(selfs.get("interp.lower", [])) * 1e3, "ms")
        out.put("interp.lower.units",
                median([s["units"] for s in lows]), "count")
        for key, name in (("py", "interp.emit_py"), ("c", "interp.emit_c")):
            out.put(f"interp.emit_{key}_ms",
                    median(selfs.get(name, [])) * 1e3, "ms")
            out.put(f"interp.emit_{key}_bytes",
                    median([s["bytes"] for s in by_name.get(name, [])]),
                    "bytes")
        out.put("interp.cc_ms", median(
            [s["cc_s"] for s in by_name.get("interp.compile_c", [])]) * 1e3,
            "ms")
        out.put("interp.machine_init_ms",
                median(selfs.get("interp.machine_init", [])) * 1e3, "ms")
        # per backend that ran: geomean over ops of each op's run time
        for backend in BACKENDS_USED:
            out.put(f"interp.exec_ms.{backend}", geomean(
                selfs.get(f"interp.exec.{backend}", [])) * 1e3, "ms")
        ratios = [median(p[True]) / median(p[False])
                  for p in paired.values() if p[True] and p[False]]
        out.put("obs.tracing_overhead", geomean(ratios) - 1.0
                if ratios else 0.0, "ratio")
        # rtsj counters: mean per dynamic-mode execution (the reference
        # runs; every backend must reproduce them exactly)
        dyn = [ref[2] for (name, dynamic), ref in self.reference.items()
               if dynamic]
        for counter in RTSJ_COUNTERS:
            out.put(f"rtsj.{counter}",
                    sum(s[counter] for s in dyn) / len(dyn) if dyn else 0.0,
                    "count")

    def close(self) -> None:
        pass

