"""Golden preemption points: every time slice the scheduler runs.

``tests/data/slice_golden.json`` pins, per run, the log of time slices
as ``(thread, clock before, clock after, done, thread.cycles)`` — taken
by wrapping :meth:`Scheduler._run_slice` from the outside — plus the
final ``Stats.summary()`` and, for recorded runs, a digest of the
flight-record events.  Cycles alone would not catch a change that moves
a slice boundary but keeps the total: this log does, and with it the
thread interleaving and per-thread attribution.

Regenerate (only when a change is *meant* to move preemption points)::

    PYTHONPATH=src python tests/integration/test_slice_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
import shutil
import sys
from typing import Any, Dict, List

import pytest

from repro.bench.suite import BENCHMARKS
from repro.core.api import analyze
from repro.interp.machine import RunOptions, execute
from repro.obs.flightrec import FlightRecorder
from repro.rtsj.threads import Scheduler

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
GOLDEN_PATH = ROOT / "tests" / "data" / "slice_golden.json"

MODES = {"dynamic": True, "static": False}

#: the example drivers and the options their ``main()`` runs with
EXAMPLES = {
    "producer_consumer": {"quantum": 400},
    "realtime_pipeline": {"checks_enabled": False, "validate": True,
                          "gc_trigger_bytes": 8_000, "quantum": 800},
}


def _c_available() -> bool:
    if not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")):
        return False
    try:
        import cffi  # noqa: F401
    except ImportError:
        return False
    return True


def _example_source(name: str) -> str:
    text = (ROOT / "examples" / f"{name}.py").read_text()
    return re.search(r'^PROGRAM\s*=\s*r?"""(.*?)"""', text,
                     re.S | re.M).group(1)


def _cases() -> Dict[str, Dict[str, Any]]:
    """Case id -> (source, options).  Registry programs run on the
    interpreter at fast sizes with instrumentation on and off, and at
    default sizes (many more slices) uninstrumented; on the compiled
    backends (uninstrumented, where they execute); and once recorded,
    for the flight-record digest."""
    cases: Dict[str, Dict[str, Any]] = {}
    for name in sorted(BENCHMARKS):
        for mode, checks in sorted(MODES.items()):
            base = {"source": ("bench", name, True),
                    "checks_enabled": checks, "validate": False}
            for instrument in (True, False):
                tag = "instr" if instrument else "plain"
                cases[f"{name}/{mode}/interp/{tag}"] = dict(
                    base, instrument=instrument)
            cases[f"{name}/{mode}/interp/full"] = dict(
                base, source=("bench", name, False), instrument=False)
            for backend in ("py", "c"):
                cases[f"{name}/{mode}/{backend}/plain"] = dict(
                    base, instrument=False, backend=backend)
            cases[f"{name}/{mode}/interp/record"] = dict(base, record=True)
    for name, opts in EXAMPLES.items():
        example = dict(opts, source=("example", name, None))
        cases[f"{name}/interp/instr"] = example
        cases[f"{name}/interp/record"] = dict(example, record=True)
    return cases


CASES = _cases()


def _source(ref) -> str:
    kind, name, fast = ref
    if kind == "bench":
        return BENCHMARKS[name].source(fast=fast)
    return _example_source(name)


def _digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def capture(case_id: str) -> Dict[str, Any]:
    """Run one case with ``_run_slice`` wrapped; return its identity."""
    spec = dict(CASES[case_id])
    source = _source(spec.pop("source"))
    record = spec.pop("record", False)
    recorder = FlightRecorder() if record else None
    log: List[List[Any]] = []
    original = Scheduler._run_slice

    def logged(self, thread):
        before = self.stats.cycles
        try:
            original(self, thread)
        finally:
            log.append([thread.name, before, self.stats.cycles,
                        thread.done, thread.cycles])

    Scheduler._run_slice = logged
    try:
        result, machine = execute(analyze(source),
                                  RunOptions(recorder=recorder, **spec))
    finally:
        Scheduler._run_slice = original
    out: Dict[str, Any] = {
        "executed": ("interp" if machine.program is None
                     else machine.program.backend),
        "slices": len(log),
        "slice_log": _digest(log),
        "summary": _digest(result.stats.summary()),
        "cycles": result.stats.cycles,
        "cycles_by_thread": dict(result.stats.cycles_by_thread),
    }
    if record:
        header = recorder.header()
        header.pop("overhead_s")  # host seconds, not simulated state
        out["flight"] = _digest(
            [header] + [r.to_dict() for r in recorder.records()])
    return out


GOLDEN = (json.loads(GOLDEN_PATH.read_text())
          if GOLDEN_PATH.exists() else {})


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_slice_log_matches_golden(case_id):
    expected = GOLDEN[case_id]
    if expected is None or (case_id.split("/")[2] == "c"
                            and not _c_available()):
        pytest.skip("backend did not execute when the golden was made")
    assert capture(case_id) == expected


def _regenerate() -> None:
    golden = {}
    for case_id in sorted(CASES):
        got = capture(case_id)
        backend = case_id.split("/")[2]
        # a compiled case that fell back duplicates an interp case
        golden[case_id] = (None if backend in ("py", "c")
                           and got["executed"] == "interp" else got)
        print(case_id, golden[case_id] and golden[case_id]["slices"])
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n")


if __name__ == "__main__":
    sys.exit(_regenerate())
