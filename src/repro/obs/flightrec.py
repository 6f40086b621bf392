"""The flight recorder: a bounded ring buffer of causally-linked events.

The recorder is the simulator's one runtime event store.  It answers
the production question — *when a run crashes, what were the last N
things the machine did, and why?* — and every other event view is a
projection of it: the ``repro run --trace-out`` JSON Lines trace
(:func:`repro.obs.exporters.trace_lines`), the text timeline
(:mod:`repro.tools.timeline`) and the ``repro inspect`` report.  It
keeps a fixed-capacity ring of :class:`FlightRecord` entries — region
lifecycle, allocations with owner and site, LT/VT policy decisions,
portal traffic, thread spawn/abort, GC pauses, sanitizer violations,
every dynamic check performed and every check elided by the static
path — each stamped with the simulated cycle, the emitting thread, and
a *parent-event id* so the analysis engine (:mod:`repro.obs.analyze`,
``repro inspect``) can walk cause chains.

Design rules, matching the rest of the observability layer:

* **compiled out when disabled** — a plain run carries ``recorder is
  None`` through every compiled closure; no payloads are built, no
  branches beyond a bound-local ``is not None`` test, and simulated
  cycle counts are identical with recording on or off (recording
  charges nothing to the clock);
* **bounded** — past ``capacity`` records the ring overwrites the
  oldest entries.  Aggregate counters (``kind_counts`` and the
  per-check-kind ``check_totals``) are maintained *outside* the ring,
  so the check-elimination ledger stays exact no matter how small the
  window is;
* **causal** — every record's ``parent`` is the innermost open context
  of its thread (the enclosing region entry, or the event that spawned
  the thread).  ``parent == 0`` marks a root.

The on-disk format is JSON Lines: one header object (schema tag,
capacity, totals, aggregates, caller metadata) followed by one line per
surviving record — the same shape as the chaos plane's fault schedules,
so a failed run's ``*.flight.jsonl`` sits next to its
``*.schedule.jsonl`` and ``repro inspect`` can join the two.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter as _perf
from typing import Any, Dict, IO, List, Optional, Tuple, Union

#: on-disk schema tag; bump when the record shape changes
FLIGHT_SCHEMA = "repro-flightrec/1"

#: default ring capacity — large enough to hold every event of the
#: micro-benchmarks, small enough that a runaway server loop cannot
#: exhaust host memory
DEFAULT_CAPACITY = 1 << 16

#: record kinds whose attrs carry ``cycles`` / ``cycles_saved`` and are
#: aggregated exactly (ring overwrites never lose these totals)
CHECK_KINDS = ("check-assign", "check-read",
               "check-elide-assign", "check-elide-read")

#: kinds eligible for the 1-in-N sampling tier: the per-event volume
#: producers.  Everything else (region/thread lifecycle, GC, faults) is
#: low-volume and always stored, so causal context never samples away.
HIGH_VOLUME_KINDS = frozenset(CHECK_KINDS + ("alloc",))

#: every kind the runtime emits, for schema validation and docs; the
#: analyzer tolerates unknown kinds (forward compatibility), the
#: validator only warns on them
KNOWN_KINDS = (
    "region-created", "region-enter", "region-exit",
    "region-flushed", "region-destroyed",
    "alloc", "policy", "vt-spill",
    "portal-read", "portal-write",
    "thread-spawned", "thread-finished", "thread-aborted",
    "gc", "fault-injected", "recovery", "sanitizer-violation",
) + CHECK_KINDS


@dataclass
class FlightRecord:
    """One flight-recorder entry."""

    __slots__ = ("id", "parent", "cycle", "thread", "kind", "subject",
                 "attrs")

    id: int          # 1-based, strictly increasing, survives the ring
    parent: int      # causal parent's id; 0 = root event
    cycle: int       # simulated clock at emission
    thread: str
    kind: str
    subject: str
    attrs: Optional[Dict[str, Any]]

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"id": self.id, "parent": self.parent,
                               "cycle": self.cycle, "thread": self.thread,
                               "kind": self.kind, "subject": self.subject}
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_dict(cls, data: Any) -> "FlightRecord":
        """Parse one dump line; a wrong shape raises ``ValueError``."""
        if not isinstance(data, dict):
            raise ValueError(f"record is a JSON {type(data).__name__}, "
                             f"not an object")
        attrs = data.get("attrs")
        if attrs is not None and not isinstance(attrs, dict):
            raise ValueError(f"record {data.get('id')!r} attrs is a JSON "
                             f"{type(attrs).__name__}, not an object")
        return cls(id=_int_field(data, "id"),
                   parent=_int_field(data, "parent", 0),
                   cycle=_int_field(data, "cycle"),
                   thread=str(data["thread"]), kind=str(data["kind"]),
                   subject=str(data["subject"]), attrs=attrs)


def _int_field(data: Dict[str, Any], key: str,
               default: Optional[int] = None) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"record field {key!r} must be an integer, "
                         f"got {value!r}")
    return value


class FlightRecorder:
    """The bounded, causal event log of one simulated run.

    Hot paths test ``recorder is None`` (the machine hands subsystems
    ``None`` when recording is off), so a :class:`FlightRecorder`
    instance only ever exists on runs that asked for it.  The ``enabled``
    class flag lets callers hand in a :class:`NullFlightRecorder` and
    have the machine treat it as "off".
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 sample: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"flight-recorder capacity must be positive,"
                             f" got {capacity}")
        if sample < 1:
            raise ValueError(f"flight-recorder sample stride must be "
                             f">= 1, got {sample}")
        self.capacity = capacity
        #: 1-in-N sampling stride for :data:`HIGH_VOLUME_KINDS`.  The
        #: aggregate counters below are maintained for *every* event —
        #: sampling thins only the stored window, never the ledger.
        #: Deterministic (per-kind counters, no RNG), so sampled
        #: recording stays cycle-neutral and replay-stable.
        self.sample = sample
        self._ring: List[Optional[FlightRecord]] = [None] * capacity
        #: records ever *stored* (ids run 1..total; the ring holds the
        #: newest ``min(total, capacity)``)
        self.total = 0
        #: every event seen, stored or sampled out — the exact universe
        self.events_seen = 0
        #: high-volume events skipped by the sampling stride
        self.sampled_out = 0
        #: host seconds spent inside the recording path (self-measured;
        #: exported as repro_observability_overhead_seconds)
        self.overhead_s = 0.0
        #: per-kind event counts — aggregate, never evicted or sampled
        self.kind_counts: Dict[str, int] = {}
        #: per-check-kind ``[count, cycles]`` totals (``cycles`` is the
        #: cost charged for performed checks, the cost *saved* for
        #: elided ones) — the exact input to the elimination ledger
        self.check_totals: Dict[str, List[int]] = {}
        #: per-kind counters driving the deterministic sample stride
        self._hv_seen: Dict[str, int] = {}
        #: per-thread stack of open context event ids (region entries,
        #: thread spawns) — the source of ``parent`` stamps
        self._context: Dict[str, List[int]] = {}
        self._stats: Optional[Any] = None

    # ------------------------------------------------------------------

    def bind_clock(self, stats: Any) -> None:
        """Point the recorder at the run's ``Stats`` so records emitted
        by layers without clock access (memory areas) are stamped."""
        self._stats = stats

    def _now(self) -> int:
        stats = self._stats
        return stats.cycles if stats is not None else 0

    # ------------------------------------------------------------------

    def record(self, kind: str, subject: str,
               cycle: Optional[int] = None, thread: str = "main",
               attrs: Optional[Dict[str, Any]] = None,
               parent: Optional[int] = None) -> int:
        """Append one record; returns its id (0 when sampled out).

        Aggregates (``kind_counts``, ``check_totals``) update for every
        event regardless of sampling — only ring storage is thinned."""
        start = _perf()
        self.events_seen += 1
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        if attrs is not None and kind.startswith("check-"):
            totals = self.check_totals.get(kind)
            if totals is None:
                totals = self.check_totals[kind] = [0, 0]
            totals[0] += 1
            cycles = attrs.get("cycles")
            if cycles is None:
                cycles = attrs.get("cycles_saved", 0)
            totals[1] += cycles
        if self.sample > 1 and kind in HIGH_VOLUME_KINDS:
            seen = self._hv_seen.get(kind, 0) + 1
            self._hv_seen[kind] = seen
            if seen % self.sample != 1:
                self.sampled_out += 1
                self.overhead_s += _perf() - start
                return 0
        if cycle is None:
            cycle = self._now()
        if parent is None:
            stack = self._context.get(thread)
            parent = stack[-1] if stack else 0
        eid = self.total + 1
        self.total = eid
        self._ring[(eid - 1) % self.capacity] = FlightRecord(
            eid, parent, cycle, thread, kind, subject, attrs)
        self.overhead_s += _perf() - start
        return eid

    def push(self, kind: str, subject: str,
             cycle: Optional[int] = None, thread: str = "main",
             attrs: Optional[Dict[str, Any]] = None) -> int:
        """Record an event and open it as the thread's causal context
        (region entries)."""
        eid = self.record(kind, subject, cycle, thread, attrs)
        self._context.setdefault(thread, []).append(eid)
        return eid

    def pop(self, kind: str, subject: str,
            cycle: Optional[int] = None, thread: str = "main",
            attrs: Optional[Dict[str, Any]] = None) -> int:
        """Record an event parented to the innermost open context, then
        close that context (region exits)."""
        eid = self.record(kind, subject, cycle, thread, attrs)
        stack = self._context.get(thread)
        if stack:
            stack.pop()
        return eid

    def seed(self, thread: str, parent_id: int) -> None:
        """Set a new thread's causal root (its spawn event)."""
        self._context[thread] = [parent_id]

    # ------------------------------------------------------------------

    @property
    def stored(self) -> int:
        return min(self.total, self.capacity)

    @property
    def dropped(self) -> int:
        """Records evicted by the ring (oldest-first)."""
        return max(0, self.total - self.capacity)

    def records(self) -> List[FlightRecord]:
        """The surviving window, oldest first."""
        if self.total <= self.capacity:
            return [r for r in self._ring[:self.total]]
        idx = self.total % self.capacity
        return [r for r in self._ring[idx:] + self._ring[:idx]]

    def kinds(self) -> Dict[str, int]:
        return dict(self.kind_counts)

    def header(self, meta: Optional[Dict[str, Any]] = None
               ) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema": FLIGHT_SCHEMA,
            "capacity": self.capacity,
            "total": self.total,
            "stored": self.stored,
            "dropped": self.dropped,
            "sample": self.sample,
            "events_seen": self.events_seen,
            "sampled_out": self.sampled_out,
            "overhead_s": round(self.overhead_s, 6),
            "kind_counts": dict(self.kind_counts),
            "check_totals": {k: list(v)
                             for k, v in self.check_totals.items()},
        }
        if meta:
            out["meta"] = meta
        return out


class NullFlightRecorder(FlightRecorder):
    """A recorder that records nothing; ``enabled = False`` makes the
    machine treat it as recording-off (no hooks compiled in)."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def record(self, kind: str, subject: str,
               cycle: Optional[int] = None, thread: str = "main",
               attrs: Optional[Dict[str, Any]] = None,
               parent: Optional[int] = None) -> int:
        return 0

    def push(self, kind: str, subject: str,
             cycle: Optional[int] = None, thread: str = "main",
             attrs: Optional[Dict[str, Any]] = None) -> int:
        return 0

    def pop(self, kind: str, subject: str,
            cycle: Optional[int] = None, thread: str = "main",
            attrs: Optional[Dict[str, Any]] = None) -> int:
        return 0

    def seed(self, thread: str, parent_id: int) -> None:
        pass


# ---------------------------------------------------------------------------
# persistence: JSON Lines (header object + one line per record)
# ---------------------------------------------------------------------------

def flight_lines(recorder: FlightRecorder,
                 meta: Optional[Dict[str, Any]] = None):
    """The dump as JSON Lines (no trailing newlines)."""
    yield json.dumps(recorder.header(meta), sort_keys=True)
    for record in recorder.records():
        yield json.dumps(record.to_dict(), sort_keys=True)


def dump_flight(recorder: FlightRecorder, dest: Union[str, IO[str]],
                meta: Optional[Dict[str, Any]] = None) -> int:
    """Write the flight record to a path or open file; returns the
    number of lines written (header included)."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as handle:
            return dump_flight(recorder, handle, meta)
    n = 0
    for line in flight_lines(recorder, meta):
        dest.write(line + "\n")
        n += 1
    return n


def load_flight(path: Union[str, IO[str]]
                ) -> Tuple[Dict[str, Any], List[FlightRecord]]:
    """Read a dump back: (header, records)."""
    if isinstance(path, str):
        with open(path, "r", encoding="utf-8") as handle:
            return load_flight(handle)
    lines = [line for line in path if line.strip()]
    if not lines:
        raise ValueError("empty flight record")
    header = json.loads(lines[0])
    if not isinstance(header, dict):
        raise ValueError(f"header is a JSON {type(header).__name__}, "
                         f"not an object")
    schema = header.get("schema")
    if schema != FLIGHT_SCHEMA:
        raise ValueError(f"unsupported flight-record schema {schema!r} "
                         f"(expected {FLIGHT_SCHEMA})")
    records = [FlightRecord.from_dict(json.loads(line))
               for line in lines[1:]]
    return header, records


def validate_flight(header: Dict[str, Any],
                    records: List[FlightRecord]) -> List[str]:
    """Schema and invariant checks on a loaded dump.  Returns the list
    of problems (empty = valid)."""
    problems: List[str] = []
    if header.get("schema") != FLIGHT_SCHEMA:
        problems.append(
            f"schema {header.get('schema')!r} != {FLIGHT_SCHEMA!r}")
    for key in ("kind_counts", "check_totals", "meta"):
        if not isinstance(header.get(key) or {}, dict):
            problems.append(f"header {key!r} is not an object")
    meta = header.get("meta")
    if isinstance(meta, dict) \
            and not isinstance(meta.get("summary") or {}, dict):
        problems.append("header meta 'summary' is not an object")
    totals = header.get("check_totals")
    for kind, pair in (totals.items() if isinstance(totals, dict)
                       else ()):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(v) is int for v in pair)):
            problems.append(f"header check_totals[{kind!r}] is not a "
                            f"[count, cycles] pair")
    stored = header.get("stored")
    if stored is not None and stored != len(records):
        problems.append(
            f"header claims {stored} stored records, file has "
            f"{len(records)}")
    last_id, last_cycle = 0, 0
    for record in records:
        if record.id <= last_id:
            problems.append(
                f"record ids not strictly increasing at id={record.id}")
            break
        if record.parent >= record.id:
            problems.append(
                f"record {record.id} has non-causal parent "
                f"{record.parent}")
            break
        if record.cycle < last_cycle:
            problems.append(
                f"record {record.id} travels back in time "
                f"({record.cycle} < {last_cycle})")
            break
        if not record.kind or not record.thread:
            problems.append(f"record {record.id} missing kind/thread")
            break
        last_id, last_cycle = record.id, record.cycle
    return problems
