"""Integration tests for the chaos campaign driver and the ``repro
chaos`` CLI: outcome taxonomy, deterministic replay, schedule
persistence, and exit codes."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.chaos import (replay_schedule, run_chaos, run_one,
                         verify_replay)
from repro.cli import main
from repro.faults import FaultPlan, load_schedule, save_schedule

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from conftest import (PRODUCER_CONSUMER_SOURCE, TSTACK_SOURCE,  # noqa: E402
                      assert_well_typed)


GOLDEN = (Path(__file__).resolve().parent.parent / "data"
          / "fault_schedules_golden")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestRunOne:
    def test_no_faults_is_clean(self):
        outcome = run_one(TSTACK_SOURCE, FaultPlan(seed=0, rate=0.0),
                          label="tstack")
        assert outcome.status == "clean"
        assert outcome.ok
        assert outcome.faults == []
        assert outcome.cycles > 0

    def test_faulty_run_is_recovered_or_diagnosed(self):
        outcome = run_one(TSTACK_SOURCE, FaultPlan(seed=3, rate=0.5),
                          label="tstack")
        assert outcome.status in ("recovered", "diagnosed")
        assert outcome.ok
        if outcome.status == "diagnosed":
            assert outcome.error is not None
            assert outcome.error["type"]

    def test_fault_count_matches_stats(self):
        outcome = run_one(TSTACK_SOURCE, FaultPlan(seed=5, rate=0.3),
                          label="tstack")
        assert outcome.summary["faults_injected"] == len(outcome.faults)

    def test_same_plan_same_identity(self):
        plan = FaultPlan(seed=17, rate=0.25)
        first = run_one(TSTACK_SOURCE, plan, label="tstack")
        second = run_one(TSTACK_SOURCE, plan, label="tstack")
        assert first.identity() == second.identity()


class TestVerifyReplay:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_replay_matches_recording(self, seed):
        analyzed = assert_well_typed(TSTACK_SOURCE)
        plan = FaultPlan(seed=seed, rate=0.3)
        baseline = run_one(analyzed, plan, label="tstack")
        assert verify_replay(analyzed, plan, baseline) == []

    def test_replay_of_threaded_program_matches(self):
        analyzed = assert_well_typed(PRODUCER_CONSUMER_SOURCE)
        plan = FaultPlan(seed=2, rate=0.05)
        baseline = run_one(analyzed, plan, label="pc")
        assert verify_replay(analyzed, plan, baseline) == []


class TestCampaign:
    def test_campaign_report_and_schedules(self, tmp_path):
        schedule_dir = str(tmp_path / "schedules")
        import os
        os.makedirs(schedule_dir)
        report = run_chaos([("tstack", TSTACK_SOURCE)], seeds=[0, 1, 2],
                           rate=0.2, schedule_dir=schedule_dir)
        assert report["ok"], report["failures"]
        assert report["runs"] == 3
        assert sum(report["statuses"].values()) == 3
        for entry in report["results"]:
            assert entry["replay_ok"]
            assert Path(entry["schedule"]).exists()

    def test_persisted_schedule_replays_standalone(self, tmp_path):
        schedule_dir = str(tmp_path)
        report = run_chaos([("tstack", TSTACK_SOURCE)], seeds=[4],
                           rate=0.4, verify=False,
                           schedule_dir=schedule_dir)
        path = report["results"][0]["schedule"]
        result = replay_schedule(path)
        assert result["ok"], result["mismatches"]
        assert result["outcome"].status == \
            report["results"][0]["status"]

    def test_schedule_without_source_needs_explicit_program(
            self, tmp_path):
        path = str(tmp_path / "bare.schedule.jsonl")
        save_schedule(path, FaultPlan(seed=0, rate=0.0), [])
        with pytest.raises(ValueError, match="no program source"):
            replay_schedule(path)
        # an explicitly passed program fills the gap
        result = replay_schedule(path, source=TSTACK_SOURCE)
        assert result["ok"]

    def test_schedule_meta_identifies_the_run(self, tmp_path):
        report = run_chaos([("tstack", TSTACK_SOURCE)], seeds=[6],
                           rate=0.3, verify=False,
                           schedule_dir=str(tmp_path))
        plan, records, meta = load_schedule(
            report["results"][0]["schedule"])
        assert plan.seed == 6
        assert meta["program"] == "tstack"
        assert meta["source"] == TSTACK_SOURCE
        assert len(records) == report["results"][0]["faults"]


class TestChaosCli:
    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "prog.rtj"
        path.write_text(TSTACK_SOURCE)
        return str(path)

    def test_campaign_exit_zero(self, program_file):
        code, out, err = run_cli("chaos", program_file, "--seeds", "2",
                                 "--rate", "0.2")
        assert code == 0
        assert "2 runs:" in err

    def test_json_report(self, program_file):
        code, out, _err = run_cli("chaos", program_file, "--seeds", "1",
                                  "--rate", "0.1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["ok"]
        assert report["runs"] == 1

    def test_unknown_site_rejected(self, program_file):
        code, _out, err = run_cli("chaos", program_file, "--sites",
                                  "bogus")
        assert code == 1
        assert "unknown fault site" in err

    def test_schedule_out_and_replay(self, program_file, tmp_path):
        sched_dir = str(tmp_path / "schedules")
        code, _out, _err = run_cli(
            "chaos", program_file, "--seeds", "1", "--seed-base", "3",
            "--rate", "0.4", "--schedule-out", sched_dir)
        assert code == 0
        schedules = list(Path(sched_dir).glob("*.schedule.jsonl"))
        assert len(schedules) == 1
        code, out, _err = run_cli("chaos", "--replay",
                                  str(schedules[0]))
        assert code == 0
        assert "replayed" in out and "status=" in out

    @pytest.mark.parametrize("text", [
        "not json at all\n",
        '{"version": 1, "plan": {"rate": "x"}}\n',
        '{"version": 1, "plan": {"max_faults": -1}}\n',
        '{"version": 1, "target": "moon", "plan": {}}\n',
        '{"version": 1, "plan": {}}\n'
        '{"index": 0, "site": "worker_crash", "seq": 0}\n',
        '{"version": 1, "plan": {}, "meta": {}}\n',
    ], ids=["not-json", "rate-x", "max-faults", "unknown-target",
            "foreign-site", "no-source"])
    def test_corrupt_schedule_replay_exits_1(self, tmp_path, text):
        path = tmp_path / "corrupt.schedule.jsonl"
        path.write_text(text)
        code, out, err = run_cli("chaos", "--replay", str(path))
        assert code == 1
        assert err.startswith("invalid fault schedule: ")
        assert out == ""

    @pytest.mark.parametrize("golden,field", [
        ("producer_consumer_py-seed0", "max_cycles"),
        ("producer_consumer_py-seed0", "identity"),
        ("serve-seed0", "requests"),
        ("serve-seed0", "workers"),
        ("serve-seed0", "identity"),
    ])
    def test_malformed_meta_replay_exits_1(self, tmp_path, golden,
                                           field):
        lines = (GOLDEN / f"{golden}.schedule.jsonl").read_text() \
            .splitlines(keepends=True)
        header = json.loads(lines[0])
        assert field in header["meta"]
        bad = (["lots", True, 0, -1, 2.0, None] if field != "identity"
               else ["lots", [], 7, None])
        for value in bad:
            header["meta"][field] = value
            path = tmp_path / f"{golden}.schedule.jsonl"
            path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
            code, out, err = run_cli("chaos", "--replay", str(path))
            assert code == 1, value
            assert err.startswith("invalid fault schedule: "), err
            assert f"meta.{field}" in err
            assert out == ""

    def test_missing_schedule_replay_exits_1(self, tmp_path):
        code, _out, err = run_cli("chaos", "--replay",
                                  str(tmp_path / "absent.jsonl"))
        assert code == 1
        assert "invalid fault schedule:" in err

    @pytest.mark.parametrize("value", ["nan", "-0.1", "1.5", "often"])
    def test_out_of_range_rate_rejected(self, program_file, value):
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["chaos", program_file, "--rate", value])
        assert exc.value.code == 2
        assert "--rate" in err.getvalue()

    @pytest.mark.parametrize("flag,value", [
        ("--fault-rate", "nan"), ("--fault-rate", "1.01"),
        ("--fault-rate", "-1"), ("--max-faults", "-1")])
    def test_serve_rejects_bad_fault_plan(self, flag, value):
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["serve", flag, value])
        assert exc.value.code == 2
        assert flag in err.getvalue()

    def test_serve_fault_rate_one_is_valid(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["serve", "--fault-rate", "1.0", "--max-faults", "1"])
        assert args.fault_rate == 1.0
        assert args.max_faults == 1

    def test_driver_script_without_embedded_program_is_skipped(
            self, tmp_path):
        script = tmp_path / "driver.py"
        script.write_text("print('no embedded program here')\n")
        code, _out, err = run_cli("chaos", str(script), "--seeds", "1")
        assert "skipping" in err
        assert code != 0  # empty corpus is an error, not a silent pass
