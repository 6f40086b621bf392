"""The deterministic fault kernel shared by both chaos planes.

Well-typed programs never *fail* the RTSJ dynamic checks, but a real
system still has failure paths the type system says nothing about: LT
budgets, VT chunk pools, teardown races, and one layer up, crashed or
stuck workers and torn cache shards.  This module makes them
exercisable *deterministically* for any *target* in :data:`TARGETS`:

* a :class:`FaultPlan` names the target, the sites to perturb and a
  per-site probability, all derived from one seed;
* a :class:`FaultInjector` is consulted at each site (``fire``) and
  records every injected fault as a :class:`FaultRecord`; the ordered
  records are a *schedule*, persisted as JSON Lines;
* a :class:`ReplayInjector` re-fires a schedule bit-for-bit: the nth
  consult of a site fails iff it failed in the recorded run, and
  :func:`identity_mismatches` diffs the two runs' identities.

Determinism contract: ``fire`` keys decisions on the per-site consult
counter (under a lock: the serve pool consults from dispatcher
threads), never on wall clock.  One PRNG draw happens per consult of
an enabled site (rate > 0) while ``max_faults`` is not reached, so the
schedule is a pure function of the plan and the consult order.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import asdict, dataclass, field
from typing import (Any, Callable, Dict, IO, Iterable, List, Mapping,
                    Optional, Tuple)


@dataclass(frozen=True)
class FaultTarget:
    """What a plan can perturb: its sites (in documentation order) and
    its extra plan parameters with their defaults (the default's type
    is the parameter's type)."""

    sites: Tuple[str, ...]
    params: Mapping[str, Any]
    #: whether schedule headers carry ``target``; runtime headers
    #: predate the field, so a target-less header means runtime
    tagged: bool


TARGETS: Dict[str, FaultTarget] = {
    "runtime": FaultTarget((
        "lt_alloc",        # LT allocation denied (budget pressure)
        "vt_chunk",        # VT chunk acquisition denied (pool pressure)
        "region_enter",    # (sub)region enter denied (teardown race)
        "portal_write",    # portal store denied (teardown race)
        "thread_spawn",    # thread spawn denied (thread-table pressure)
        "gc_pause_spike",  # one GC pause multiplied by gc_spike_factor
    ), {"gc_spike_factor": 8}, tagged=False),
    # in the order the serve pool consults them per dispatch
    "serve": FaultTarget((
        "worker_crash",    # SIGKILL the worker before dispatch
        "worker_stall",    # worker sleeps stall_ms, past the watchdog
        "latency_spike",   # worker sleeps spike_ms, within the watchdog
        "pipe_write",      # parent-side pipe send fails
        "cache_corrupt",   # torn on-disk analysis-cache shard
    ), {"stall_ms": 2000.0, "spike_ms": 50.0}, tagged=True),
}

SCHEDULE_VERSION = 1


class FaultScheduleError(ValueError):
    """A schedule file that cannot be read back: unreadable, not JSON,
    an unknown version or target, or an invalid plan or record."""


def _check_rate(name: str, value: Any) -> None:
    # ``not 0 <= x <= 1`` also rejects NaN, which would otherwise fire
    # at every consult (``random() >= nan`` is always False)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0.0 <= value <= 1.0):
        raise ValueError(
            f"fault {name} must be a number in [0, 1], got {value!r}")


@dataclass(frozen=True)
class FaultPlan:
    """What to inject: a target, one seed, per-site rates, an optional
    site filter, and the target's parameters.

    ``rate`` is the default probability applied to every enabled site;
    ``rates`` overrides individual sites.  ``sites`` (when given)
    restricts injection to that subset.  ``max_faults`` caps the total
    number of injected faults per run.  ``params`` overrides the
    target's parameter defaults (runtime: ``gc_spike_factor``, the GC
    pause multiplier; serve: ``stall_ms`` / ``spike_ms``, the worker
    sleeps, which must sit above / below the pool's stall watchdog).
    """

    seed: int = 0
    rate: float = 0.0
    rates: Mapping[str, float] = field(default_factory=dict)
    sites: Optional[Tuple[str, ...]] = None
    max_faults: Optional[int] = None
    target: str = "runtime"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        spec = TARGETS.get(self.target)
        if spec is None:
            raise ValueError(f"unknown fault target {self.target!r}; "
                             f"known: {list(TARGETS)}")
        unknown = set(self.rates) - set(spec.sites)
        if self.sites is not None:
            unknown |= set(self.sites) - set(spec.sites)
        if unknown:
            raise ValueError(
                f"unknown fault site(s) {sorted(unknown)} for target "
                f"{self.target!r}; known: {list(spec.sites)}")
        extra = set(self.params) - set(spec.params)
        if extra:
            raise ValueError(
                f"unknown {self.target} plan parameter(s) "
                f"{sorted(extra)}; known: {list(spec.params)}")
        _check_rate("rate", self.rate)
        for site, value in self.rates.items():
            _check_rate(f"rate for {site}", value)
        if self.max_faults is not None and (
                isinstance(self.max_faults, bool)
                or not isinstance(self.max_faults, int)
                or self.max_faults < 0):
            raise ValueError(f"max_faults must be an int >= 0 or None, "
                             f"got {self.max_faults!r}")
        object.__setattr__(self, "params",
                           {**spec.params, **self.params})

    @property
    def site_names(self) -> Tuple[str, ...]:
        """Every site of this plan's target."""
        return TARGETS[self.target].sites

    def rate_for(self, site: str) -> float:
        if self.sites is not None and site not in self.sites:
            return 0.0
        return float(self.rates.get(site, self.rate))

    def to_dict(self) -> Dict[str, Any]:
        """The header form; the target travels beside it, not in it."""
        return {
            "seed": self.seed,
            "rate": self.rate,
            "rates": dict(self.rates),
            "sites": list(self.sites) if self.sites is not None else None,
            "max_faults": self.max_faults,
            **self.params,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any],
                  target: str = "runtime") -> "FaultPlan":
        spec = TARGETS[target]
        sites = data.get("sites")
        return cls(seed=int(data.get("seed", 0)),
                   rate=float(data.get("rate", 0.0)),
                   rates=dict(data.get("rates") or {}),
                   sites=tuple(sites) if sites is not None else None,
                   max_faults=data.get("max_faults"),
                   target=target,
                   params={name: type(default)(data.get(name, default))
                           for name, default in spec.params.items()})


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault: the ``seq``-th consult of ``site`` fired."""

    index: int          # global injection order (0-based)
    site: str
    seq: int            # per-site consult number the fault fired at
    detail: str = ""    # site-specific context (area name, worker, ...)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRecord":
        return cls(index=int(data["index"]), site=str(data["site"]),
                   seq=int(data["seq"]),
                   detail=str(data.get("detail", "")))


def fault_key(records: Iterable[FaultRecord]) -> List[Tuple[str, int]]:
    """The replay-comparable identity of a schedule: ``(site, seq)`` in
    injection order.  ``detail`` strings are diagnostics, not identity."""
    return [(r.site, r.seq) for r in records]


class FaultInjector:
    """Seeded random injector; every decision is recorded.

    ``on_fire`` (optional) is called with each new record after it is
    appended; the Machine installs one that keeps ``Stats`` and the
    flight recorder in step with the schedule.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._rates = {s: plan.rate_for(s) for s in plan.site_names}
        self._lock = threading.Lock()
        self.site_counts: Dict[str, int] = {s: 0 for s in plan.site_names}
        self.injected: List[FaultRecord] = []
        self.on_fire: Optional[Callable[[FaultRecord], None]] = None

    def _decide(self, site: str, seq: int) -> bool:
        rate = self._rates[site]
        if rate <= 0.0:
            return False
        if (self.plan.max_faults is not None
                and len(self.injected) >= self.plan.max_faults):
            return False
        return self._rng.random() < rate

    def fire(self, site: str, detail: str = "") -> bool:
        """Consult the injector at ``site``; True means inject a fault
        here.  Always advances the per-site consult counter so recorded
        and replayed runs stay aligned."""
        with self._lock:
            seq = self.site_counts[site]
            self.site_counts[site] = seq + 1
            if not self._decide(site, seq):
                return False
            record = FaultRecord(index=len(self.injected), site=site,
                                 seq=seq, detail=detail)
            self.injected.append(record)
        if self.on_fire is not None:
            self.on_fire(record)
        return True

    def counts(self) -> Dict[str, int]:
        """Injected faults per site (not consults)."""
        out = {s: 0 for s in self.plan.site_names}
        with self._lock:
            for record in self.injected:
                out[record.site] += 1
        return out


class ReplayInjector(FaultInjector):
    """Re-fires a recorded schedule exactly: the nth consult of a site
    fails iff the recorded run's nth consult of that site failed."""

    def __init__(self, records: Iterable[FaultRecord],
                 plan: Optional[FaultPlan] = None) -> None:
        super().__init__(plan or FaultPlan())
        self._fire_at = {(r.site, r.seq) for r in records}

    def _decide(self, site: str, seq: int) -> bool:
        return (site, seq) in self._fire_at


# ---------------------------------------------------------------------------
# schedule persistence (JSON Lines: one header object, one line per fault)
# ---------------------------------------------------------------------------

def write_schedule(handle: IO[str], plan: FaultPlan,
                   records: Iterable[FaultRecord],
                   meta: Optional[Dict[str, Any]] = None) -> None:
    header: Dict[str, Any] = {"version": SCHEDULE_VERSION,
                              "plan": plan.to_dict()}
    if TARGETS[plan.target].tagged:
        header["target"] = plan.target
    if meta:
        header["meta"] = meta
    handle.write(json.dumps(header, sort_keys=True) + "\n")
    for record in records:
        handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


def save_schedule(path: str, plan: FaultPlan,
                  records: Iterable[FaultRecord],
                  meta: Optional[Dict[str, Any]] = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        write_schedule(handle, plan, records, meta)


def load_schedule(path: str, target: Optional[str] = None
                  ) -> Tuple[FaultPlan, List[FaultRecord], Dict[str, Any]]:
    """Read a schedule file back: (plan, records, meta).  The plan
    carries the file's target; ``target`` (when given) is the only one
    accepted.  Every problem raises :class:`FaultScheduleError`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        if not lines:
            raise ValueError("empty fault schedule")
        header = json.loads(lines[0])
        version = header.get("version")
        if version != SCHEDULE_VERSION:
            raise ValueError(f"unsupported schedule version {version!r} "
                             f"(expected {SCHEDULE_VERSION})")
        found = header.get("target") or "runtime"
        if found not in TARGETS:
            raise ValueError(f"unknown target {found!r}; known: "
                             f"{list(TARGETS)}")
        if target is not None and found != target:
            raise ValueError(f"a {found} schedule, not a {target} one")
        plan = FaultPlan.from_dict(header.get("plan", {}), found)
        records = [FaultRecord.from_dict(json.loads(line))
                   for line in lines[1:]]
        foreign = [r.site for r in records if r.site not in plan.site_names]
        if foreign:
            raise ValueError(f"not {found} fault site(s): {foreign}")
        return plan, records, dict(header.get("meta") or {})
    except (OSError, ValueError, TypeError, KeyError,
            AttributeError) as err:
        raise FaultScheduleError(f"{path}: {err}") from err


def identity_mismatches(recorded: Mapping[str, Any],
                        replayed: Mapping[str, Any]) -> List[str]:
    """Diff a replay's identity against the recorded one, key by key
    over the recorded keys.  Both sides are compared in their JSON form
    (a persisted identity holds lists where a live one holds tuples).
    Returns one line per mismatch; empty means bit-for-bit."""
    want_all, have_all = (json.loads(json.dumps(side, sort_keys=True))
                          for side in (recorded, replayed))
    out: List[str] = []
    for key, want in want_all.items():
        have = have_all.get(key)
        if want == have:
            continue
        if isinstance(want, list) and isinstance(have, list):
            first = next((i for i, (a, b) in enumerate(zip(want, have))
                          if a != b), None)
            line = (f"{key}: recorded {len(want)} item(s), "
                    f"replayed {len(have)}")
            if first is not None:
                line += (f"; first at index {first}: "
                         f"{want[first]!r} != {have[first]!r}")
            out.append(line)
        else:
            out.append(f"{key}: recorded {want!r} != replayed {have!r}")
    return out
