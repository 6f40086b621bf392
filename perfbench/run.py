"""Repository benchmark: ``check``, ``run`` and ``serve`` workloads.

Run from the checkout root::

    python3 perfbench/run.py --workload check --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (spans around each layer's public calls, the service's own
trace dump and ``/metrics`` deltas) and writes its spans to
``.bench_out/``.  Metric names and units are those of BENCHMARK.json.
The last line of standard output is the JSON result; the lines above
it are the same metrics as a table, plus per-workload notes.

Durations are reported at reference host speed (see ``Meter`` in
``common.py``); the notes give the wall-clock figures beside them.
The program under test is imported from ``src/`` of this checkout; the
run exits 1 without a result when that is missing.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (the set-up clock starts first)
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: extra set-up measurements per run, each in a fresh process
SETUP_SAMPLES = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("check", "run", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and make sure the
    ``repro`` imported is the one in it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources at {src}; run "
                         f"from a full checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from "
                         f"{repro.__file__}, not {src}")


def setup_samples(args: argparse.Namespace) -> list:
    """Set-up time of fresh processes that only set up, one at a time."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--setup-only"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
            timeout=150, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed: "
                               f"{proc.stderr.decode()[-500:]}")
        samples.append(json.loads(
            proc.stdout.decode().strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    import_program()
    from perfbench import wl_check, wl_run, wl_serve
    from perfbench.common import BenchError, Meter, Outcome, RunDir, \
        median, peak_rss_mb
    module = {"check": wl_check, "run": wl_run, "serve": wl_serve}[
        args.workload]
    meter = Meter(start=T_START)
    rundir = RunDir()
    workload = module.Workload(args.seed, rundir, bool(args.trace), meter)
    try:
        try:
            workload.setup(args.seconds)
        except BenchError as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 3
        meter.tick()
        setup_s = meter.ref
        raw_setup_s = meter.raw
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        out = Outcome()
        try:
            workload.measure(args.seconds, out)
        except BenchError as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 3
        if meter.raw:
            out.notes.append(f"reference time / wall time over the run: "
                             f"{meter.ref / meter.raw:.4f}")
        if not args.trace:
            if "peak_rss_mb" not in out.metrics:
                out.put("peak_rss_mb", peak_rss_mb(), "MiB")
            samples = [setup_s] + setup_samples(args)
            out.put("setup_s", median(samples), "s")
            out.notes.append("setup_s samples: "
                             + ", ".join(f"{s:.3f}" for s in samples)
                             + f" (this process: {raw_setup_s:.3f} s "
                               f"wall)")
    finally:
        workload.close()
        rundir.close()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name == "error_rate":
            out.put(name, out.error_rate, entry["unit"])
        elif name not in out.metrics:
            if not args.trace:
                raise RuntimeError(f"{args.workload} did not measure {name}")
            # a layer this workload never calls: nothing was spent there
            out.put(name, 0.0, entry["unit"])
        value, unit = out.metrics[name]
        if unit != entry["unit"]:
            raise RuntimeError(f"{name}: unit {unit} != {entry['unit']}")
        metrics[name] = {"value": value, "unit": unit}
    if args.trace:
        from perfbench.common import OUT_DIR
        path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                     f".spans.jsonl")
        spans = getattr(workload, "spans", None)
        if spans is not None:
            spans.dump(path)
            out.notes.append(f"spans written to {path}")
    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}, "
          f"{args.seconds:g} s timed)")
    for name, item in metrics.items():
        print(f"  {name:<28} {item['value']:>14.4f} {item['unit']}")
    print(f"  {'error_rate':<28} {out.error_rate:>14.4f} ratio "
          f"({out.failed} of {out.attempted} ops failed)")
    for note in out.notes:
        print(f"  # {note}")
    for failure in out.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": out.failed == 0,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
