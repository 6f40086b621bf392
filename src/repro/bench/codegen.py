"""Differential wall-clock benchmark of the codegen backends.

Two jobs in one suite:

* **Equivalence gate** — every backend run is compared against the
  interpreter reference on the same analyzed program: simulated
  cycles, output bytes (sha256) and the full ``Stats.summary()`` must
  be identical.  Any divergence is a hard failure (exit 3 from
  ``repro bench --suite codegen``) — the backends promise
  byte-identical observable behaviour, not "roughly the same".
* **Speedup ledger** — wall time per backend, per benchmark and mode,
  plus the aggregate static-mode speedup against the *committed seed
  interpreter baseline* (the ``BENCH_interp.json`` numbers from
  before any codegen work, embedded below so the comparison is stable
  across machines re-measuring the interpreter).  ``--min-speedup``
  turns the aggregate into a gate.

Backend rows record what actually executed: a program the requested
backend cannot compile falls down the capability ladder
(c -> py -> interpreter), and the row's
``backend_used``/``fallback`` fields say so.  A host without a C
toolchain (or cffi) gets ``skipped`` C rows, never failures — CI
equivalence coverage for C lives on hosts that have one.

The C backend is checks-erased by design, so it is only measured in
static mode; dynamic-mode rows are measured for the py backend.
"""

from __future__ import annotations

import dataclasses
import hashlib
import platform
import time
from typing import Any, Dict, Iterable, List, Optional

from ..core.api import analyze
from ..interp.machine import RunOptions, execute
from .compare import (check_exact, check_missing, check_wall, collect,
                      load_payload, save_payload)
from .suite import BENCHMARKS

__all__ = ["SCHEMA", "MODES", "DEFAULT_BACKENDS", "SEED_STATIC_WALL_S",
           "measure", "compare", "format_table", "load_payload",
           "save_payload"]

SCHEMA = "repro-bench-codegen/1"

#: mode name -> checks_enabled
MODES = {"dynamic": True, "static": False}

#: backends measured by default ("c" auto-skips without a toolchain)
DEFAULT_BACKENDS = ("py", "c")

#: static-mode wall seconds of the committed seed interpreter baseline
#: (BENCH_interp.json, pre-codegen).  The >=10x acceptance target for
#: the py backend is judged against the sum of these.
SEED_STATIC_WALL_S = {
    "Array": 0.004833,
    "Barnes": 0.089309,
    "ImageRec": 0.028715,
    "Tree": 0.009460,
    "Water": 0.007830,
    "game": 0.002911,
    "http": 0.001832,
    "phone": 0.003186,
}


def _options(enabled: bool, backend: str) -> RunOptions:
    return RunOptions(checks_enabled=enabled, validate=False,
                      instrument=False, backend=backend)


def _run_best(analyzed, options: RunOptions, repeats: int):
    """Best-of-``repeats`` wall time (min: timer noise is additive)."""
    best = None
    result = machine = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result, machine = execute(
            analyzed, dataclasses.replace(options))
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result, machine


def _row(wall: float, result) -> Dict[str, Any]:
    digest = hashlib.sha256(
        "\n".join(result.output).encode()).hexdigest()
    return {
        "wall_s": round(wall, 6),
        "cycles": result.stats.cycles,
        "mcycles_per_s": round(result.stats.cycles / wall / 1e6, 3)
        if wall else 0.0,
        "output_sha256": digest,
        "steps": result.stats.steps,
    }


def measure_benchmark(name: str, backends: Iterable[str],
                      fast: bool = True, repeats: int = 3,
                      divergences: Optional[List[str]] = None
                      ) -> Dict[str, Any]:
    """One benchmark across modes and backends, with the interpreter
    reference row and per-backend equivalence verdicts."""
    bench = BENCHMARKS[name]
    analyzed = analyze(bench.source(fast=fast))
    if analyzed.errors:
        raise analyzed.errors[0]
    out: Dict[str, Any] = {}
    for mode, enabled in MODES.items():
        wall, ref, _m = _run_best(analyzed, _options(enabled, "interp"),
                                  repeats)
        rows: Dict[str, Any] = {"interp": _row(wall, ref)}
        ref_summary = ref.stats.summary()
        for backend in backends:
            if backend == "c" and enabled:
                # checks-erased by design: dynamic mode is py territory
                rows[backend] = {"skipped":
                                 "checks-erased (static mode only)"}
                continue
            wall_b, res, machine = _run_best(
                analyzed, _options(enabled, backend), repeats)
            used = (machine.program.backend
                    if machine.program is not None else "interp")
            row = _row(wall_b, res)
            row["backend_used"] = used
            if machine.codegen_fallback:
                row["fallback"] = machine.codegen_fallback
            if backend == "c" and used != "c":
                note = machine.codegen_fallback or "unsupported"
                if ("toolchain" in note or "cffi" in note
                        or "cc failed" in note):
                    # environmental, not a program property: skip
                    rows[backend] = {"skipped": note}
                    continue
            equivalent = (res.stats.cycles == ref.stats.cycles
                          and res.output == ref.output
                          and res.stats.summary() == ref_summary)
            row["equivalent"] = equivalent
            if not equivalent and divergences is not None:
                divergences.append(
                    f"{name}/{mode}/{backend}: cycles "
                    f"{ref.stats.cycles} -> {res.stats.cycles}, "
                    f"output "
                    f"{'same' if res.output == ref.output else 'DIFFERS'}")
            row["speedup_vs_interp"] = (round(wall / wall_b, 2)
                                        if wall_b else 0.0)
            rows[backend] = row
        out[mode] = rows
    return out


def measure(names: Optional[Iterable[str]] = None,
            backends: Optional[Iterable[str]] = None,
            fast: bool = True, repeats: int = 3) -> Dict[str, Any]:
    """Run the (selected) registry and return the payload."""
    selected = list(names) if names is not None else list(BENCHMARKS)
    chosen = tuple(backends) if backends else DEFAULT_BACKENDS
    divergences: List[str] = []
    results = {name: measure_benchmark(name, chosen, fast=fast,
                                       repeats=repeats,
                                       divergences=divergences)
               for name in selected}
    aggregate: Dict[str, Any] = {}
    seed_total = sum(SEED_STATIC_WALL_S[n] for n in selected
                     if n in SEED_STATIC_WALL_S)
    interp_total = sum(results[n]["static"]["interp"]["wall_s"]
                       for n in selected)
    for backend in chosen:
        rows = [results[n]["static"].get(backend) for n in selected]
        live = [r for r in rows if r and "wall_s" in r]
        if not live or len(live) != len(rows):
            # a skipped row would understate the aggregate: only report
            # aggregates over full coverage
            aggregate[backend] = {"skipped": "incomplete coverage"}
            continue
        total = sum(r["wall_s"] for r in live)
        aggregate[backend] = {
            "static_wall_s": round(total, 6),
            "speedup_vs_seed": (round(seed_total / total, 2)
                                if total and seed_total else 0.0),
            "speedup_vs_interp": (round(interp_total / total, 2)
                                  if total else 0.0),
        }
    return {
        "schema": SCHEMA,
        "fast": fast,
        "repeats": repeats,
        "python": platform.python_version(),
        "backends": list(chosen),
        "benchmarks": results,
        "seed": {"static_wall_s": dict(SEED_STATIC_WALL_S),
                 "total_static_wall_s": round(seed_total, 6)},
        "aggregate": aggregate,
        "divergences": divergences,
    }


def compare(current: Dict[str, Any], baseline: Dict[str, Any],
            threshold: float = 0.30) -> List[str]:
    """Regression check against a committed payload.

    * any recorded divergence in the *current* payload → hard failure;
    * simulated-cycle drift on any benchmark/mode/backend vs the
      baseline → hard failure (determinism break);
    * wall-clock beyond ``threshold`` slower on the interp and py rows
      → regression.  C rows are compared only when neither side
      skipped (toolchain availability is environmental).
    """
    failures: List[str] = list(current.get("divergences") or [])
    base_rows = baseline.get("benchmarks", {})
    cur_rows = current.get("benchmarks", {})
    for name, base_row in base_rows.items():
        cur_row = cur_rows.get(name)
        if cur_row is None:
            failures.append(check_missing(name))
            continue
        for mode in MODES:
            for backend, base_cell in (base_row.get(mode) or {}).items():
                cur_cell = (cur_row.get(mode) or {}).get(backend)
                if (not isinstance(base_cell, dict)
                        or "wall_s" not in base_cell):
                    continue
                if cur_cell is None or "wall_s" not in cur_cell:
                    if backend == "c":
                        continue
                    failures.append(check_missing(
                        f"{name}/{mode}/{backend}"))
                    continue
                collect(failures, check_exact(
                    f"{name}/{mode}/{backend}", "simulated cycles",
                    base_cell.get("cycles"), cur_cell.get("cycles")))
                if backend != "c":
                    collect(failures, check_wall(
                        f"{name}/{mode}/{backend}",
                        base_cell.get("wall_s") or 0.0,
                        cur_cell.get("wall_s") or 0.0, threshold))
    return failures


def check_min_speedup(payload: Dict[str, Any], backend: str,
                      minimum: float) -> List[str]:
    """The acceptance gate: aggregate static speedup vs the seed."""
    agg = (payload.get("aggregate") or {}).get(backend) or {}
    speedup = agg.get("speedup_vs_seed")
    if speedup is None:
        return [f"aggregate/{backend}: no speedup recorded "
                f"({agg.get('skipped', 'missing')})"]
    if speedup < minimum:
        return [f"aggregate/{backend}: {speedup}x vs seed baseline "
                f"is below the {minimum}x floor"]
    return []


def format_table(payload: Dict[str, Any],
                 baseline: Optional[Dict[str, Any]] = None) -> str:
    """Aligned text rendering (baseline accepted for CLI symmetry with
    the other suites; speedups here are intra-payload)."""
    del baseline
    lines = [f"{'benchmark':<10} {'mode':<8} {'backend':<8} "
             f"{'wall s':>10} {'cycles':>10} {'vs interp':>9}  note"]
    for name, row in payload.get("benchmarks", {}).items():
        for mode in MODES:
            cells = row.get(mode) or {}
            for backend in ["interp"] + list(payload.get("backends", [])):
                cell = cells.get(backend)
                if cell is None:
                    continue
                if "skipped" in cell:
                    lines.append(f"{name:<10} {mode:<8} {backend:<8} "
                                 f"{'-':>10} {'-':>10} {'-':>9}  "
                                 f"skipped: {cell['skipped']}")
                    continue
                speed = cell.get("speedup_vs_interp")
                note = cell.get("backend_used", "")
                if note == backend:
                    note = ""
                if cell.get("equivalent") is False:
                    note = (note + " DIVERGED").strip()
                lines.append(
                    f"{name:<10} {mode:<8} {backend:<8} "
                    f"{cell['wall_s']:>10.6f} {cell['cycles']:>10} "
                    f"{(f'{speed:.2f}x' if speed else '-'):>9}  {note}")
    for backend, agg in (payload.get("aggregate") or {}).items():
        if "skipped" in agg:
            lines.append(f"aggregate  static   {backend:<8} "
                         f"skipped: {agg['skipped']}")
        else:
            lines.append(
                f"aggregate  static   {backend:<8} "
                f"{agg['static_wall_s']:>10.6f} {'':>10} "
                f"{agg['speedup_vs_interp']:>8.2f}x  "
                f"{agg['speedup_vs_seed']:.2f}x vs seed")
    return "\n".join(lines)
