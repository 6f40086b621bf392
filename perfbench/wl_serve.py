"""``serve``: the service under miss-heavy traffic.

A ``repro serve --port 0`` subprocess runs with its default
configuration (plus a fresh ``--cache-dir``).  A closed loop drives it
over two keep-alive connections from this process, each working
through its own seeded request list.  Most requests are the first
sight of a program (``/v1/run`` static and dynamic, ``/v1/analyze``, a
few ``/v1/inspect``); a fixed share repeat an earlier request of the
same connection and are answered by the result cache.

The traced run drives two services for half the time each: the
default one, then one restarted with ``--trace-sample 1 --trace-out``;
the service layers are read from that dump through ``repro trace
--json`` and from ``/metrics`` deltas.  The ``lang``/``core``/
``interp``/``rtsj`` layers are measured in this process, with spans,
while computing the reference results for the same programs.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import gen
from .common import (SRC, BenchError, Meter, Outcome, ProbeThread, Spans,
                     child_pids, median, percentile, proc_hwm_mb, typical)

#: connections of the closed loop (the host's core count)
CONNECTIONS = 2
#: upper bound on the request rate the lists are sized for, req/s
MAX_RATE = 120.0
#: requests per block of one connection's list
BLOCK = len(gen.SERVE_BLOCK) + gen.SERVE_REPEATS
#: trace-ring size for the traced service: larger than any run sends
TRACE_CAPACITY = 100000
#: ``peak_rss_mb`` is read when this many timed replies have arrived.
#: The workers grow with every first-sight program they see, so a read
#: at the end of the phase would measure throughput as much as memory;
#: a 30 s phase here serves about 2000
RSS_AT_REPLIES = 1000

COUNTERS = {"analyses": "repro_serve_analyses_total",
            "hits": "repro_serve_result_cache_hits_total",
            "coalesced": "repro_serve_coalesced_total",
            "shed": "repro_serve_shed_total",
            "restarts": "repro_serve_worker_restarts_total"}


def metric_sum(text: str, family: str) -> float:
    """Sum of every sample of one metric family in exposition text."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        if head == family or head.startswith(family + "{"):
            total += float(value)
    return total


class Client:
    """One keep-alive connection with Nagle disabled."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=60)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY,
                                  1)

    def post(self, request: Dict[str, Any]
             ) -> Tuple[int, Dict[str, Any], str]:
        body = json.dumps({"program": request["source"],
                           "mode": request["mode"],
                           "backend": request["backend"]})
        self.conn.request("POST", f"/v1/{request['endpoint']}", body=body,
                          headers={"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        data = resp.read()
        trace_id = resp.getheader("X-Repro-Trace-Id") or ""
        try:
            payload = json.loads(data)
        except ValueError:
            payload = {"error": data[:200].decode("utf-8", "replace")}
        return resp.status, payload, trace_id

    def get(self, path: str) -> str:
        self.conn.request("GET", path)
        return self.conn.getresponse().read().decode("utf-8")

    def close(self) -> None:
        self.conn.close()


class Service:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, rundir: Any, label: str, extra: List[str]) -> None:
        self.label = label
        log = os.path.join(rundir.path, f"{label}.stdout")
        self.stdout = open(log, "w+", encoding="utf-8")
        self.stderr = open(os.path.join(rundir.path, f"{label}.stderr"),
                           "w", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=SRC)
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--cache-dir", rundir.fresh(f"{label}-cache")] + extra
        self.proc = subprocess.Popen(cmd, stdout=self.stdout,
                                     stderr=self.stderr, env=env,
                                     cwd=rundir.path)
        self.workers: List[int] = []
        self.port = self._wait_ready(log)

    def _wait_ready(self, log: str) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with open(log, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("REPRO-SERVE-READY"):
                        fields = dict(f.split("=", 1)
                                      for f in line.split()[1:])
                        self.workers = child_pids(self.proc.pid)
                        return int(fields["port"])
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise BenchError(f"{self.label}: service did not become ready")

    def peak_rss_mb(self) -> float:
        """High-water RSS of the service process plus its workers."""
        pids = [self.proc.pid] + child_pids(self.proc.pid)
        return sum(proc_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        """SIGTERM (the graceful path that reaps the pool and writes
        ``--trace-out``), then wait; kill whatever is left."""
        pids = child_pids(self.proc.pid) + self.workers
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        for pid in set(pids):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.stdout.close()
        self.stderr.close()


def drive(port: int, lists: List[List[Dict[str, Any]]],
          seconds: Optional[float],
          on_count: Optional[Tuple[int, Callable[[], None]]] = None
          ) -> List[List[Dict[str, Any]]]:
    """The closed loop: one thread per connection, each sending its
    next request when the previous reply has arrived, until its list
    ends or ``seconds`` pass.  Returns one record per request sent.
    ``on_count=(n, fn)`` calls ``fn`` once, when the n-th reply of all
    connections together has arrived."""
    records: List[List[Dict[str, Any]]] = [[] for _ in lists]
    errors: List[BaseException] = []
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    done = [0]
    lock = threading.Lock()

    def loop(idx: int) -> None:
        client = Client(port)
        try:
            for i, request in enumerate(lists[idx]):
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                t0 = time.perf_counter()
                status, body, trace_id = client.post(request)
                records[idx].append({"index": i, "t0": t0,
                                     "latency": time.perf_counter() - t0,
                                     "status": status, "body": body,
                                     "trace": trace_id})
                if on_count is not None:
                    with lock:
                        done[0] += 1
                        now = done[0] == on_count[0]
                    if now:
                        on_count[1]()
        except BaseException as err:  # reported after join
            errors.append(err)
        finally:
            client.close()

    threads = [threading.Thread(target=loop, args=(i,))
               for i in range(len(lists))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=(seconds or 60) + 120)
        if thread.is_alive():
            raise BenchError("a client connection did not finish")
    if errors:
        raise BenchError(f"client connection failed: {errors[0]!r}")
    return records


def counters(port: int) -> Dict[str, float]:
    client = Client(port)
    try:
        text = client.get("/metrics")
    finally:
        client.close()
    return {key: metric_sum(text, family)
            for key, family in COUNTERS.items()}


def body_digest(body: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()


class Workload:
    name = "serve"

    def __init__(self, seed: int, rundir: Any, traced: bool,
                 meter: Meter) -> None:
        self.seed = seed
        self.rundir = rundir
        self.traced = traced
        self.meter = meter
        self.service: Optional[Service] = None
        self.spans: Optional[Spans] = None

    def setup(self, seconds: float) -> None:
        gen.verify_pins(self.name)
        self.meter.tick()
        blocks = int(seconds * MAX_RATE / CONNECTIONS / BLOCK) + 2
        self.lists = [gen.serve_requests(self.seed, conn, blocks)
                      for conn in range(CONNECTIONS)]
        self.warm = [gen.serve_requests(
            f"{gen.WARMUP_SALT}-{self.seed}", conn, 1)
            for conn in range(CONNECTIONS)]
        self.meter.tick()
        self.service = self._start("serve", [])
        self.meter.tick()

    def _start(self, label: str, extra: List[str]) -> Service:
        """Start a service and warm both workers with a disjoint-seed
        pass (one block per connection, run to completion)."""
        service = Service(self.rundir, label, extra)
        try:
            for per in drive(service.port, self.warm, None):
                for rec in per:
                    if rec["status"] != 200:
                        raise BenchError(f"warm-up request failed: "
                                         f"{rec['status']} {rec['body']}")
        except BaseException:
            service.stop()
            raise
        return service

    def _phase(self, service: Service, seconds: float, out: Outcome
               ) -> Tuple[List[List[Dict[str, Any]]], float,
                          Dict[str, float], float]:
        """One timed closed-loop phase: the records, the busy time, the
        counter deltas and the service's peak RSS.  Each record gains
        ``ref``, its latency at reference host speed (from probes
        sampled by a thread of this process while the phase runs).  The
        busy time is the mean over connections of their summed ``ref``
        latencies: a closed-loop connection is always waiting for a
        reply, so this is the phase's length at reference speed."""
        before = counters(service.port)
        rss: List[float] = []
        probes = ProbeThread()
        try:
            t0 = time.perf_counter()
            records = drive(service.port, self.lists, seconds, (
                RSS_AT_REPLIES, lambda: rss.append(service.peak_rss_mb())))
            t1 = time.perf_counter()
        finally:
            probes.close()
        after = counters(service.port)
        if not rss and not self.traced:
            out.notes.append(f"fewer than {RSS_AT_REPLIES} replies: "
                             f"peak_rss_mb read at the end of the phase")
            rss.append(service.peak_rss_mb())
        for recs in records:
            for rec in recs:
                rec["ref"] = rec["latency"] * probes.scale(
                    rec["t0"], rec["t0"] + rec["latency"])
        busy = sum(rec["ref"] for recs in records
                   for rec in recs) / len(records)
        out.notes.append(f"reference time / wall time over the phase: "
                         f"{busy / (t1 - t0):.4f}")
        return (records, busy,
                {k: after[k] - before[k] for k in after},
                rss[0] if rss else 0.0)

    def measure(self, seconds: float, out: Outcome) -> None:
        if not self.traced:
            records, elapsed, delta, rss = self._phase(self.service,
                                                       seconds, out)
            self._stop()
            stats = self._verify(records, delta, out, None)
            out.put("ops_per_s", (out.attempted - out.failed) / elapsed,
                    "1/s")
            pooled = [t for ts in stats["first"].values() for t in ts]
            out.put("p50_ms", typical(stats["first"]) * 1e3, "ms")
            out.put("p95_ms", percentile(pooled, 0.95) * 1e3, "ms")
            out.put("hit_p50_ms", typical(stats["repeat"]) * 1e3, "ms")
            out.put("peak_rss_mb", rss, "MiB")
            out.notes.append(
                f"p50 over {len(stats['first'])} request classes, p95 over "
                f"{len(pooled)} first-sight requests, hit_p50 over "
                f"{len(stats['repeat'])} classes of repeats")
            return
        # untraced half, then the traced service for the other half
        plain, _, plain_delta, _ = self._phase(self.service, seconds / 2,
                                               out)
        self._stop()
        dump = os.path.join(self.rundir.path, "serve-traces.jsonl")
        self.service = self._start("serve-traced", [
            "--trace-sample", "1", "--trace-capacity", str(TRACE_CAPACITY),
            "--trace-out", dump])
        records, _, delta, _ = self._phase(self.service, seconds / 2, out)
        self._stop()
        spans = self.spans = Spans()
        plain_stats = self._verify(plain, plain_delta, out, None)
        stats = self._verify(records, delta, out, spans)
        self._layers(out, records, delta, stats, spans, dump)
        out.put("obs.tracing_overhead",
                typical(stats["first"]) / typical(plain_stats["first"]) - 1.0,
                "ratio")

    def _stop(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None

    # -- correctness ------------------------------------------------------

    def _verify(self, records: List[List[Dict[str, Any]]],
                delta: Dict[str, float], out: Outcome,
                spans: Optional[Spans]) -> Dict[str, Any]:
        """Check every reply against an in-process reference (first
        sight) or against the reply it repeats; cross-check the
        first-sight count with the service's own counters."""
        #: reference-speed latencies by (endpoint, program, mode)
        first: Dict[Tuple[str, str, str], List[float]] = {}
        repeat: Dict[Tuple[str, str, str], List[float]] = {}
        used: Dict[str, int] = {}
        fallbacks = runs = 0
        per_dynamic: List[Dict[str, Any]] = []
        reference: Dict[Tuple[str, str, str], Any] = {}
        seen: Dict[Tuple[int, int], str] = {}
        for conn, recs in enumerate(records):
            for rec in recs:
                request = self.lists[conn][rec["index"]]
                body = rec["body"]
                what = (f"conn {conn} #{rec['index']} {request['endpoint']}"
                        f" {request['program']} {request['mode']}")
                if rec["status"] != 200:
                    out.op(False, f"{what}: status {rec['status']} "
                                  f"{body.get('error')}")
                    continue
                klass = (request["endpoint"], request["program"],
                         request["mode"])
                if request["repeat_of"] is not None:
                    repeat.setdefault(klass, []).append(rec["ref"])
                    orig = seen.get((conn, request["repeat_of"]))
                    out.op(orig == body_digest(body),
                           f"{what}: repeat differs from its original")
                    continue
                first.setdefault(klass, []).append(rec["ref"])
                seen[conn, rec["index"]] = body_digest(body)
                if request["endpoint"] == "analyze":
                    ok = (body.get("well_typed") is True
                          and body.get("errors") == []
                          and body.get("classes") == request["classes"])
                    out.op(ok, f"{what}: verdict differs")
                    continue
                runs += 1
                backend_used = str(body.get("backend_used"))
                used[backend_used] = used.get(backend_used, 0) + 1
                fallbacks += not (backend_used == request["backend"]
                                  or backend_used.startswith(
                                      request["backend"] + "-"))
                key = (gen.untagged(request["source"]), request["mode"],
                       request["backend"])
                if key not in reference:
                    reference[key] = self._reference(key, spans, what,
                                                     per_dynamic)
                want = reference[key]
                if want is None:
                    out.op(False, f"{what}: reference run failed")
                    continue
                got = {k: body.get(k) for k in want}
                out.op(got == want, f"{what}: served {got} != {want}")
        # the generator's own first-sight count must match the
        # service's: every first sight reached a worker's analysis,
        # every repeat was a result-cache hit
        n_first = sum(len(ts) for ts in first.values())
        n_repeat = sum(len(ts) for ts in repeat.values())
        for key, count in (("analyses", n_first), ("hits", n_repeat)):
            if int(delta[key]) != count:
                out.fail(f"/metrics {COUNTERS[key]} moved by "
                         f"{int(delta[key])}, the request list says "
                         f"{count}")
        out.notes.append(f"first-sight {n_first} = analyses delta "
                         f"{int(delta['analyses'])}; repeats "
                         f"{n_repeat} = result-cache-hit delta "
                         f"{int(delta['hits'])}; backend_used {used}")
        return {"first": first, "repeat": repeat, "runs": runs,
                "fallbacks": fallbacks, "dynamic": per_dynamic}

    @staticmethod
    def _reference(key: Tuple[str, str, str], spans: Optional[Spans],
                   what: str, dynamic: List[Dict[str, Any]]
                   ) -> Optional[Dict[str, Any]]:
        """In-process result for one (untagged program, mode, backend);
        with ``spans``, each layer call is recorded."""
        from repro.core.api import analyze
        from repro.errors import ReproError
        from repro.interp.machine import execute
        from .wl_check import traced_analyze
        from .wl_run import options, traced_execute, traced_lower
        source, mode, backend = key
        opts = options(backend, mode == "dynamic")
        try:
            if spans is None:
                analyzed = analyze(source)
            else:
                analyzed = traced_analyze(spans, what, source)
        except ReproError:
            return None
        if analyzed.errors:
            return None
        if spans is None:
            result = execute(analyzed, opts)[0]
        else:
            traced_lower(spans, what, analyzed, (opts.checks_enabled,))
            result, _ = traced_execute(spans, what, analyzed, opts)
        if mode == "dynamic":
            dynamic.append(result.stats.summary())
        return {"cycles": result.stats.cycles,
                "output_sha256": hashlib.sha256(
                    "\n".join(result.output).encode()).hexdigest()}

    # -- per-layer --------------------------------------------------------

    def _layers(self, out: Outcome, records: List[List[Dict[str, Any]]],
                delta: Dict[str, float], stats: Dict[str, Any],
                spans: Spans, dump: str) -> None:
        from .wl_check import frontend_layers
        from .wl_run import BACKENDS_USED, RTSJ_COUNTERS
        from .common import geomean
        frontend_layers(spans, out)
        selfs = spans.self_times()
        by_name: Dict[str, List[Dict[str, Any]]] = {}
        for span in spans.spans:
            by_name.setdefault(span["name"], []).append(span)
        out.put("interp.lower_ms",
                median(selfs.get("interp.lower", [])) * 1e3, "ms")
        out.put("interp.lower.units", median(
            [s["units"] for s in by_name.get("interp.lower", [])]), "count")
        out.put("interp.emit_py_ms",
                median(selfs.get("interp.emit_py", [])) * 1e3, "ms")
        out.put("interp.emit_py_bytes", median(
            [s["bytes"] for s in by_name.get("interp.emit_py", [])]),
            "bytes")
        out.put("interp.machine_init_ms",
                median(selfs.get("interp.machine_init", [])) * 1e3, "ms")
        for backend in BACKENDS_USED:
            out.put(f"interp.exec_ms.{backend}", geomean(
                selfs.get(f"interp.exec.{backend}", [])) * 1e3, "ms")
        runs = stats["runs"]
        out.put("interp.fallback_ratio",
                stats["fallbacks"] / runs if runs else 0.0, "ratio")
        reruns = [s.get("rerun_s", 0.0)
                  for s in by_name.get("interp.execute", [])]
        out.put("interp.rerun_ms",
                sum(reruns) * 1e3 / len(reruns) if reruns else 0.0, "ms")
        dyn = stats["dynamic"]
        for counter in RTSJ_COUNTERS:
            out.put(f"rtsj.{counter}",
                    sum(s[counter] for s in dyn) / len(dyn) if dyn else 0.0,
                    "count")
        sent = sum(len(r) for r in records)
        out.put("serve.first_sight",
                sum(len(ts) for ts in stats["first"].values()), "count")
        out.put("serve.result_cache_hits", delta["hits"], "count")
        out.put("serve.hit_ratio", delta["hits"] / sent if sent else 0.0,
                "ratio")
        out.put("serve.analyses", delta["analyses"], "count")
        out.put("serve.coalesced", delta["coalesced"], "count")
        out.put("serve.shed", delta["shed"], "count")
        out.put("serve.worker_restarts", delta["restarts"], "count")
        self._trace_layers(out, records, dump)

    def _trace_layers(self, out: Outcome,
                      records: List[List[Dict[str, Any]]],
                      dump: str) -> None:
        """Service self times from the retained traces of the timed
        requests, aggregated by ``repro trace --json``.  Its table is a
        mean over all traces; a span only misses and first sights
        reach is rescaled to a mean over the traces that contain it."""
        wanted = {rec["trace"] for recs in records for rec in recs}
        lines = []
        with open(dump, encoding="utf-8") as handle:
            header = handle.readline()
            for line in handle:
                if json.loads(line).get("trace") in wanted:
                    lines.append(line)
        timed = os.path.join(self.rundir.path, "serve-traces-timed.jsonl")
        head = json.loads(header)
        head["count"] = len(lines)
        with open(timed, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(head, sort_keys=True) + "\n")
            handle.writelines(lines)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "--json", timed],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC), cwd=self.rundir.path,
            timeout=120, check=False)
        if proc.returncode != 0:
            out.fail(f"repro trace exited {proc.returncode}: "
                     f"{proc.stderr.decode()[-300:]}")
        report = json.loads(proc.stdout or b"{}")
        traces = report.get("traces", 0)
        containing: Dict[str, int] = {}
        for line in lines:
            for name in {s["name"] for s in json.loads(line)["spans"]}:
                containing[name] = containing.get(name, 0) + 1
        rows = {row["span"]: row["mean_ms"]
                for row in report.get("overall", {}).get("rows", [])}
        out.notes.append(f"repro trace: {traces} timed traces of "
                         f"{len(wanted)} requests")
        for span, metric in (("admission", "serve.admission_ms"),
                             ("queue-wait", "serve.queue_wait_ms"),
                             ("dispatch", "serve.dispatch_ms"),
                             ("batch-wait", "serve.batch_wait_ms"),
                             ("analyze", "serve.worker_analyze_ms"),
                             ("execute", "serve.worker_execute_ms"),
                             ("serialize", "serve.worker_serialize_ms")):
            n = containing.get(span, 0)
            out.put(metric, rows.get(span, 0.0) * traces / n if n else 0.0,
                    "ms")

    def close(self) -> None:
        self._stop()
