"""Execution timeline: render the machine's event log as text.

The simulator's runtime events live in one store, the flight recorder
(:class:`repro.obs.FlightRecord`), armed by ``RunOptions(record=True)``,
``repro run --record-out`` or ``--trace-out``.  This module renders it
as an aligned text timeline — the quickest way to *see* the paper's
memory model working: subregions flushing every iteration, scratch
regions dying with their phase, the collector firing while the
real-time thread's events continue undisturbed.  A run without a
recorder has no events to render.

Marks and the legend both derive from the single :data:`MARKS` table,
so adding an event kind in the obs layer means adding exactly one row
here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..rtsj.stats import Stats

#: kind -> (mark, legend description).  The single source of truth for
#: both the gutter marks and the rendered legend.
MARKS = {
    "region-created": ("+", "region created"),
    "region-destroyed": ("-", "region destroyed"),
    "region-flushed": ("~", "region flushed"),
    "region-enter": ("[", "region entered"),
    "region-exit": ("]", "region exited"),
    "alloc": (".", "allocation"),
    "check-assign": ("!", "assignment check"),
    "check-read": ("?", "read check"),
    "check-elide-assign": ("e", "assign check elided"),
    "check-elide-read": ("r", "read check elided"),
    "thread-spawned": (">", "thread spawned"),
    "thread-finished": ("<", "thread finished"),
    "thread-aborted": ("x", "thread aborted"),
    "gc": ("#", "gc run"),
    "fault-injected": ("F", "fault injected"),
    "recovery": ("R", "recovery retry"),
    "vt-spill": ("S", "VT overflow spill"),
    "portal-read": ("p", "portal read"),
    "portal-write": ("P", "portal write"),
    "policy": ("%", "policy decision"),
    "sanitizer-violation": ("V", "sanitizer violation"),
}

#: mark used for kinds missing from :data:`MARKS`
UNKNOWN_MARK = "*"


def timeline_events(stats: Stats) -> Sequence:
    """The run's flight records (empty without a recorder)."""
    recorder = stats.recorder
    return recorder.records() if recorder is not None else []


def _legend(kinds_present) -> str:
    """Legend lines derived from :data:`MARKS`, restricted to the kinds
    that actually occur (falling back to the full table when empty)."""
    rows = [(mark, desc) for kind, (mark, desc) in MARKS.items()
            if not kinds_present or kind in kinds_present]
    if any(kind not in MARKS for kind in kinds_present):
        rows.append((UNKNOWN_MARK, "other"))
    if not rows:
        rows = [(mark, desc) for mark, desc in MARKS.values()]
    cells = [f"{mark} {desc:<18}" for mark, desc in rows]
    lines = []
    for i in range(0, len(cells), 3):
        prefix = "legend: " if i == 0 else "        "
        lines.append(prefix + " ".join(cells[i:i + 3]).rstrip())
    return "\n".join(lines)


def render_timeline(stats: Stats, width: int = 60,
                    kinds: Optional[List[str]] = None) -> str:
    """Aligned text rendering of the event log.

    One line per event: cycle timestamp, the kind's mark positioned
    proportionally to time along a ``width``-column gutter, then the
    kind and subject.  ``kinds`` filters to a subset of event kinds.
    """
    events = timeline_events(stats)
    if kinds is not None:
        wanted = set(kinds)
        events = [e for e in events if e.kind in wanted]
    if not events:
        return "(no events)"
    horizon = max(stats.cycles, events[-1].cycle, 1)
    lines = []
    present = set()
    for event in events:
        present.add(event.kind)
        column = min(int(event.cycle / horizon * (width - 1)), width - 1)
        mark = MARKS.get(event.kind, (UNKNOWN_MARK, ""))[0]
        gutter = " " * column + mark + " " * (width - column - 1)
        lines.append(f"{event.cycle:>10} |{gutter}| {event.kind:<17} "
                     f"{event.subject}")
    return "\n".join(lines) + "\n" + _legend(present)


def event_counts(stats: Stats) -> dict:
    recorder = stats.recorder
    return recorder.kinds() if recorder is not None else {}


def events_between(stats: Stats, start: int,
                   end: int) -> List[Tuple[int, str, str]]:
    """``(cycle, kind, subject)`` triples inside a cycle window."""
    return [(e.cycle, e.kind, e.subject) for e in timeline_events(stats)
            if start <= e.cycle <= end]
