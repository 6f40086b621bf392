"""Golden ``--trace-out`` event order: the trace is a view of the
flight record, and that view keeps the order the trace always had.

``tests/data/trace_golden.json`` holds, per run, the
``(cycle, kind, ph, thread)`` sequence of a ``repro run --trace-out``
trace as written by the separate trace event bus the simulator had
before the flight recorder became its one event store.  The projection
(:func:`repro.obs.exporters.trace_lines`) must reproduce each sequence
once the events only the recorder carries are removed: the ``policy``,
``portal-read``/``portal-write`` and ``check-elide-*`` records, and
main's ``thread-spawned`` at cycle 0.  Payloads (``subject``,
``attrs``) are the recorder's and are not compared.

The old bus is gone, so the file cannot be regenerated; a change that
is meant to move runtime events updates ``slice_golden.json``'s
flight-record digests and this file's sequences together.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Any, Dict, List, Tuple

import pytest

from repro.bench.suite import BENCHMARKS
from repro.core.api import analyze
from repro.interp.machine import RunOptions, execute
from repro.obs import spans_balanced, trace_lines

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
GOLDEN = json.loads((ROOT / "tests" / "data" / "trace_golden.json")
                    .read_text())

MODES = {"dynamic": True, "static": False}

#: the example drivers and the options their ``main()`` runs with,
#: each run in both check modes
EXAMPLES = {
    "producer_consumer": {"quantum": 400},
    "realtime_pipeline": {"validate": True, "gc_trigger_bytes": 8_000,
                          "quantum": 800},
}

#: kinds the flight recorder carries that the old trace never did
RECORDER_ONLY = {"policy", "portal-read", "portal-write",
                 "check-elide-assign", "check-elide-read"}


def _example_source(name: str) -> str:
    text = (ROOT / "examples" / f"{name}.py").read_text()
    return re.search(r'^PROGRAM\s*=\s*r?"""(.*?)"""', text,
                     re.S | re.M).group(1)


def _case(case_id: str):
    name, mode = case_id.split("/")
    if name in EXAMPLES:
        return _example_source(name), dict(EXAMPLES[name],
                                           checks_enabled=MODES[mode])
    return (BENCHMARKS[name].source(fast=True),
            {"checks_enabled": MODES[mode], "validate": False})


def _trace(case_id: str) -> Tuple[List[Dict[str, Any]], int]:
    """The run's trace lines, parsed, and its simulated cycles."""
    source, options = _case(case_id)
    analyzed = analyze(source)
    result, machine = execute(analyzed, RunOptions(record=True,
                                                   **options))
    return ([json.loads(line)
             for line in trace_lines(machine.recorder,
                                     analyzed.phase_seconds)],
            result.stats.cycles)


def test_golden_covers_every_run():
    expected = {f"{name}/{mode}"
                for name in list(BENCHMARKS) + list(EXAMPLES)
                for mode in MODES}
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("case_id", sorted(GOLDEN))
def test_projection_reproduces_trace_order(case_id):
    events, cycles = _trace(case_id)
    assert cycles == GOLDEN[case_id]["cycles"]
    assert spans_balanced(events)
    seen = [[e["cycle"], e["kind"], e["ph"], e["thread"]] for e in events
            if e["kind"] not in RECORDER_ONLY
            and not (e["kind"] == "thread-spawned" and e["cycle"] == 0
                     and e["subject"] == "main")]
    want = GOLDEN[case_id]["events"]
    assert len(seen) == len(want)
    for i, (got, exp) in enumerate(zip(seen, want)):
        assert got == exp, f"event {i}: {got} != {exp}"
