"""Shared plumbing for the benchmark workloads: the hermetic run
directory, the in-memory span recorder, the host-speed probe, summary
statistics and the result record every workload fills in."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import tempfile
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: the checkout root (the directory holding BENCHMARK.json)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: per-run scratch directories live here, removed when the run ends
TMP_PARENT = os.path.join(ROOT, ".bench_tmp")
#: traced runs write their span files here
OUT_DIR = os.path.join(ROOT, ".bench_out")


class BenchError(Exception):
    """The benchmark cannot run (missing sources, pin mismatch,
    service did not start). The run exits non-zero without a result."""


# ---------------------------------------------------------------------------
# hermetic run directory
# ---------------------------------------------------------------------------

class RunDir:
    """A fresh scratch directory inside the checkout for one process.

    Everything the program under test writes goes below it: the C
    backend's ``REPRO_CODEGEN_DIR`` (so every run pays the same ``cc``
    cost), ``TMPDIR`` for the compiler and any temp files, and the
    service's ``--cache-dir``.
    """

    def __init__(self) -> None:
        os.makedirs(TMP_PARENT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=f"run{os.getpid()}-",
                                     dir=TMP_PARENT)
        os.environ["TMPDIR"] = self.path
        tempfile.tempdir = self.path
        os.environ["REPRO_CODEGEN_DIR"] = self.sub("codegen")

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def fresh(self, name: str) -> str:
        """A new, empty directory (removed first if it exists)."""
        path = os.path.join(self.path, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)  # only succeeds when no run is active
        except OSError:
            pass


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Spans:
    """In-memory span recorder for the traced run.

    A span is ``{name, start, end, parent, op}``; spans of one timed op
    share ``op``.  ``dump`` writes them as JSONL when the run ends.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []

    def begin(self, name: str, op: Any,
              parent: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        span = {"id": len(self.spans), "name": name, "op": op,
                "parent": parent["id"] if parent is not None else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        return span

    @staticmethod
    def end(span: Dict[str, Any]) -> float:
        span["end"] = time.perf_counter()
        return span["end"] - span["start"]

    def add(self, name: str, op: Any, parent: Optional[Dict[str, Any]],
            start: float, seconds: float) -> Dict[str, Any]:
        """Record an interval measured by the program itself (the
        frontend's ``phase_seconds``) as a closed span."""
        span = {"id": len(self.spans), "name": name, "op": op,
                "parent": parent["id"] if parent is not None else None,
                "start": start, "end": start + seconds}
        self.spans.append(span)
        return span

    def self_times(self) -> Dict[str, List[float]]:
        """Span name -> self seconds (duration minus the time direct
        children cover), one entry per span."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] = (covered.get(span["parent"], 0.0)
                                           + span["end"] - span["start"])
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
            out.setdefault(span["name"], []).append(max(0.0, own))
        return out

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

#: the duration of :func:`probe` on the reference host; every reported
#: duration is scaled to it
REF_PROBE_S = 0.0015
_PROBE_LOOPS = 20000


def probe() -> float:
    """CPU seconds a fixed pure-Python loop takes right now.  Thread CPU
    time, not wall time: time spent waiting for a CPU (behind the
    service's own processes, or for the GIL) is load, not host speed."""
    t0 = time.thread_time()
    acc = 0
    for i in range(_PROBE_LOOPS):
        acc += i * i % 7
    return time.thread_time() - t0


class Meter:
    """Durations at reference host speed.

    The shared hosts this benchmark runs on change speed by up to 60%
    for stretches of seconds to minutes (a fixed CPU loop reads 68 ms
    and 110 ms minutes apart).  Each :meth:`tick` times :func:`probe`
    and closes the interval since the previous tick; the interval is
    scaled by ``REF_PROBE_S`` over the mean of the two probes at its
    ends, so work timed on a slow stretch reads as it would on the
    reference host.  ``raw`` keeps the unscaled wall time.
    """

    def __init__(self, start: Optional[float] = None) -> None:
        self.raw = 0.0
        self.ref = 0.0
        self._end = start
        self._probe: Optional[float] = None

    def tick(self) -> float:
        """Close the interval since the last tick (or ``start``);
        returns its duration at reference speed (0.0 for the first)."""
        begin = time.perf_counter()
        speed = probe()
        end = time.perf_counter()
        seconds = 0.0
        if self._end is not None:
            raw = begin - self._end
            mean = speed if self._probe is None else (speed + self._probe) / 2
            seconds = raw * REF_PROBE_S / mean
            self.raw += raw
            self.ref += seconds
        self._end, self._probe = end, speed
        return seconds

    def time(self, fn: Any, *args: Any) -> Tuple[Any, float]:
        """``fn(*args)`` and its duration at reference speed."""
        self.tick()
        result = fn(*args)
        return result, self.tick()


class ProbeThread:
    """Samples :func:`probe` every ``period`` seconds from a daemon
    thread, for work that runs in other processes (the service, whose
    processes use every CPU).  Each CPU of a shared host slows down on
    its own, so the thread moves to the next CPU before each sample.
    Its cost is one 1.5 ms loop per period."""

    def __init__(self, period: float = 0.1) -> None:
        self.period = period
        self.samples: List[Tuple[float, float]] = []
        self._cpus = sorted(os.sched_getaffinity(0))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        turn = 0
        while not self._stop.wait(self.period):
            # pid 0 is the calling thread: only this thread moves
            os.sched_setaffinity(0, {self._cpus[turn % len(self._cpus)]})
            turn += 1
            speed = probe()
            self.samples.append((time.perf_counter(), speed))

    def scale(self, t0: float, t1: float, margin: float = 0.5) -> float:
        """Factor that brings a duration spent in ``[t0, t1]`` to
        reference speed: ``REF_PROBE_S`` over the median probe taken
        within ``margin`` seconds of the interval (the nearest probe
        when none is)."""
        near = [p for t, p in self.samples if t0 - margin <= t <= t1 + margin]
        if not near and self.samples:
            mid = (t0 + t1) / 2
            near = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return REF_PROBE_S / median(near) if near else 1.0

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def typical(by_class: Dict[Any, List[float]]) -> float:
    """Geometric mean over input classes of each class's median.

    Every workload mixes inputs of very different cost (a 5-class and a
    60-class program, an interpreter and a C execute).  A median pooled
    over such a mix lands on whichever class straddles the middle and
    jumps between neighbouring classes from run to run; the per-class
    median does not, and the geometric mean weighs a 10% change in any
    class the same."""
    return geomean(median(v) for v in by_class.values() if v)


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_hwm_mb(pid: int) -> float:
    """High-water resident set (``VmHWM``) of another process, in MiB;
    0.0 when it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (from ``/proc``)."""
    kids: List[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name may contain spaces; fields resume after ')'
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and fields[1] == str(pid):
            kids.append(int(entry))
    return kids


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: first few failure descriptions, for stderr
        self.failures: List[str] = []
        #: name -> (value, unit)
        self.metrics: Dict[str, Any] = {}
        #: extra human-readable lines (per-backend breakdowns, counts)
        self.notes: List[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
