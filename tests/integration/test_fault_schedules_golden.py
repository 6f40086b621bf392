"""Golden fault schedules, recorded by the code as it stood before the
runtime and serve fault planes merged into one kernel
(:mod:`repro.faults`).  They pin the schedule format: each runtime
schedule must replay with zero mismatches and re-record byte for byte,
a target-less (legacy) header must load as runtime, and the serve
header must round-trip byte for byte.  See
``tests/data/fault_schedules_golden/README.md`` for how they were made.
"""

import json
from pathlib import Path

import pytest

from repro.chaos import replay_schedule, run_chaos
from repro.faults import load_schedule, save_schedule
from repro.serve.chaos import default_plan

GOLDEN = (Path(__file__).resolve().parent.parent / "data"
          / "fault_schedules_golden")
RUNTIME = sorted(GOLDEN.glob("*_py-seed*.schedule.jsonl"))
SERVE = GOLDEN / "serve-seed0.schedule.jsonl"


def test_golden_set_is_complete():
    assert len(RUNTIME) == 4  # 2 examples x 2 seeds
    assert SERVE.exists()


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: p.name)
class TestRuntimeGolden:

    def test_replays_with_zero_mismatches(self, path):
        result = replay_schedule(str(path))
        assert result["mismatches"] == []
        assert result["ok"]
        assert result["outcome"].faults  # every golden run injected

    def test_rerecording_is_byte_identical(self, path, tmp_path):
        plan, _records, meta = load_schedule(str(path))
        report = run_chaos(
            [(meta["program"], meta["source"])], seeds=[plan.seed],
            rate=plan.rate, rates=dict(plan.rates), sites=plan.sites,
            gc_spike_factor=plan.params["gc_spike_factor"],
            max_cycles=meta["max_cycles"], verify=False,
            schedule_dir=str(tmp_path))
        written = Path(report["results"][0]["schedule"])
        assert written.name == path.name
        assert written.read_bytes() == path.read_bytes()

    def test_legacy_header_loads_as_runtime(self, path):
        header = json.loads(path.read_text().splitlines()[0])
        assert "target" not in header
        plan, records, _meta = load_schedule(str(path))
        assert plan.target == "runtime"
        assert [r.site for r in records]


def test_serve_header_round_trips_byte_for_byte(tmp_path):
    plan, records, meta = load_schedule(str(SERVE))
    assert plan.target == "serve"
    assert plan == default_plan(0)
    again = tmp_path / SERVE.name
    save_schedule(str(again), plan, records, meta)
    assert again.read_bytes() == SERVE.read_bytes()
