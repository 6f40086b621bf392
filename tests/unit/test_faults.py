"""Unit tests for the deterministic fault kernel (:mod:`repro.faults`)
on its runtime target, plus the runtime's recovery policy."""

from __future__ import annotations

import pytest

from repro.faults import (TARGETS, FaultInjector, FaultPlan, FaultRecord,
                          FaultScheduleError, ReplayInjector, fault_key,
                          identity_mismatches, load_schedule,
                          save_schedule)
from repro.interp.machine import RecoveryPolicy

FAULT_SITES = TARGETS["runtime"].sites


class TestFaultPlan:
    def test_unknown_site_in_rates_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(rates={"bogus_site": 0.5})

    def test_unknown_site_in_filter_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(sites=("lt_alloc", "nope"))

    def test_rate_for_respects_filter_and_overrides(self):
        plan = FaultPlan(rate=0.1, rates={"vt_chunk": 0.9},
                         sites=("lt_alloc", "vt_chunk"))
        assert plan.rate_for("lt_alloc") == 0.1
        assert plan.rate_for("vt_chunk") == 0.9
        # filtered out entirely
        assert plan.rate_for("gc_pause_spike") == 0.0

    @pytest.mark.parametrize("rate", [float("nan"), -0.1, 1.5,
                                      float("inf"), "0.5", True])
    def test_invalid_rate_rejected(self, rate):
        # NaN used to fire at every consult (random() >= nan is False)
        with pytest.raises(ValueError, match=r"must be a number in \[0, 1\]"):
            FaultPlan(rate=rate)

    @pytest.mark.parametrize("rate", [float("nan"), 2.0, -1])
    def test_invalid_site_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="rate for vt_chunk"):
            FaultPlan(rates={"vt_chunk": rate})

    @pytest.mark.parametrize("cap", [-1, 2.5, True, "3"])
    def test_invalid_max_faults_rejected(self, cap):
        with pytest.raises(ValueError, match="max_faults"):
            FaultPlan(max_faults=cap)

    @pytest.mark.parametrize("rate,cap", [(0.0, 0), (1.0, None), (1, 5)])
    def test_boundary_values_accepted(self, rate, cap):
        plan = FaultPlan(rate=rate, max_faults=cap)
        assert plan.rate == rate and plan.max_faults == cap

    @pytest.mark.parametrize("data", [{"rate": "x"}, {"rate": "nan"},
                                      {"rates": {"lt_alloc": 7}},
                                      {"max_faults": -2}])
    def test_from_dict_validates(self, data):
        with pytest.raises(ValueError):
            FaultPlan.from_dict(data)

    def test_nan_rate_never_reaches_an_injector(self):
        with pytest.raises(ValueError):
            FaultInjector(FaultPlan(seed=0, rate=float("nan")))

    def test_unknown_target_and_param_rejected(self):
        with pytest.raises(ValueError, match="unknown fault target"):
            FaultPlan(target="moon")
        with pytest.raises(ValueError, match="plan parameter"):
            FaultPlan(params={"stall_ms": 1.0})

    def test_params_fill_target_defaults(self):
        assert FaultPlan().params == {"gc_spike_factor": 8}
        assert FaultPlan(target="serve").params == \
            {"stall_ms": 2000.0, "spike_ms": 50.0}

    def test_to_dict_writes_only_the_targets_keys(self):
        assert set(FaultPlan().to_dict()) == {
            "seed", "rate", "rates", "sites", "max_faults",
            "gc_spike_factor"}
        assert set(FaultPlan(target="serve").to_dict()) == {
            "seed", "rate", "rates", "sites", "max_faults", "stall_ms",
            "spike_ms"}

    def test_dict_roundtrip(self):
        plan = FaultPlan(seed=7, rate=0.25, rates={"lt_alloc": 1.0},
                         sites=("lt_alloc",), max_faults=3,
                         params={"gc_spike_factor": 16})
        assert FaultPlan.from_dict(plan.to_dict()) == plan


def _drive(injector, consults=200):
    """Consult every site round-robin ``consults`` times; returns the
    schedule."""
    for i in range(consults):
        for site in FAULT_SITES:
            injector.fire(site, f"consult-{i}")
    return list(injector.injected)


class TestFaultInjector:
    def test_same_plan_same_schedule(self):
        plan = FaultPlan(seed=42, rate=0.1)
        first = _drive(FaultInjector(plan))
        second = _drive(FaultInjector(plan))
        assert fault_key(first) == fault_key(second)
        assert first  # a 10% rate over 1200 consults injects something

    def test_different_seed_different_schedule(self):
        a = _drive(FaultInjector(FaultPlan(seed=1, rate=0.1)))
        b = _drive(FaultInjector(FaultPlan(seed=2, rate=0.1)))
        assert fault_key(a) != fault_key(b)

    def test_zero_rate_never_fires_but_counts_consults(self):
        injector = FaultInjector(FaultPlan(seed=3, rate=0.0))
        assert not _drive(injector)
        assert injector.site_counts["lt_alloc"] == 200

    def test_disabled_site_does_not_perturb_enabled_ones(self):
        # the PRNG draws only at enabled sites, so enabling an extra
        # site must not reshuffle decisions taken at the others
        base = FaultPlan(seed=5, rate=0.2, sites=("lt_alloc",))
        wider = FaultPlan(seed=5, rate=0.2,
                          sites=("lt_alloc", "vt_chunk"))

        def lt_only(plan):
            injector = FaultInjector(plan)
            for i in range(100):
                injector.fire("lt_alloc", "")
            return fault_key(injector.injected)

        assert lt_only(base) == lt_only(wider)

    def test_max_faults_caps_schedule(self):
        injector = FaultInjector(FaultPlan(seed=0, rate=1.0,
                                           max_faults=4))
        _drive(injector, consults=10)
        assert len(injector.injected) == 4

    def test_records_carry_site_seq_and_detail(self):
        injector = FaultInjector(FaultPlan(seed=0, rate=1.0,
                                           sites=("vt_chunk",)))
        injector.fire("lt_alloc", "ignored")
        assert injector.fire("vt_chunk", "regionA")
        record = injector.injected[0]
        assert record.site == "vt_chunk"
        assert record.seq == 0
        assert record.detail == "regionA"
        assert record.index == 0


class TestReplayInjector:
    def test_refires_exactly_the_recorded_schedule(self):
        plan = FaultPlan(seed=11, rate=0.15)
        recorded = _drive(FaultInjector(plan))
        replay = ReplayInjector(recorded, plan)
        replayed = _drive(replay)
        assert fault_key(replayed) == fault_key(recorded)

    def test_no_randomness_involved(self):
        records = [FaultRecord(index=0, site="lt_alloc", seq=2)]
        replay = ReplayInjector(records)
        assert not replay.fire("lt_alloc")   # seq 0
        assert not replay.fire("lt_alloc")   # seq 1
        assert replay.fire("lt_alloc")       # seq 2: the recorded one
        assert not replay.fire("lt_alloc")   # seq 3


class TestRecoveryPolicy:
    def test_backoff_is_exponential(self):
        policy = RecoveryPolicy(backoff_base=64)
        assert [policy.backoff_cycles(i) for i in range(4)] == \
            [64, 128, 256, 512]

    def test_backoff_shift_is_clamped(self):
        policy = RecoveryPolicy(backoff_base=1)
        assert policy.backoff_cycles(100) == 1 << 16


class TestSchedulePersistence:
    def test_roundtrip(self, tmp_path):
        plan = FaultPlan(seed=9, rate=0.5, sites=("lt_alloc",))
        records = _drive(FaultInjector(plan), consults=20)
        path = str(tmp_path / "run.schedule.jsonl")
        save_schedule(path, plan, records,
                      meta={"program": "demo", "source": "x"})
        loaded_plan, loaded_records, meta = load_schedule(path)
        assert loaded_plan == plan
        assert loaded_records == records
        assert meta["program"] == "demo"
        assert meta["source"] == "x"

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"version": 99, "plan": {}}\n')
        with pytest.raises(ValueError, match="unsupported schedule"):
            load_schedule(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty fault schedule"):
            load_schedule(str(path))

    @pytest.mark.parametrize("text", [
        "not json\n",
        "[1, 2]\n",
        '{"version": 1, "plan": {"rate": "x"}}\n',
        '{"version": 1, "plan": {"rate": NaN}}\n',
        '{"version": 1, "plan": []}\n',
        '{"version": 1, "plan": {}}\n{"site": "lt_alloc"}\n',
        '{"version": 1, "plan": {}}\n'
        '{"index": 0, "site": "worker_crash", "seq": 0}\n',
        '{"version": 1, "target": "moon", "plan": {}}\n',
    ])
    def test_corrupt_files_raise_one_typed_error(self, tmp_path, text):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        with pytest.raises(FaultScheduleError, match="bad.jsonl"):
            load_schedule(str(path))

    def test_missing_file_is_a_typed_error(self, tmp_path):
        with pytest.raises(FaultScheduleError):
            load_schedule(str(tmp_path / "absent.jsonl"))

    def test_expected_target_is_enforced(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        save_schedule(path, FaultPlan(target="serve"), [])
        assert load_schedule(path)[0].target == "serve"
        with pytest.raises(FaultScheduleError,
                           match="serve schedule, not a runtime one"):
            load_schedule(path, target="runtime")


class TestIdentityMismatches:
    def test_tuples_and_lists_compare_equal(self):
        live = {"faults": [("lt_alloc", 3)], "cycles": 10}
        persisted = {"faults": [["lt_alloc", 3]], "cycles": 10}
        assert identity_mismatches(persisted, live) == []

    def test_scalar_mismatch_names_both_values(self):
        assert identity_mismatches({"cycles": 10}, {"cycles": 11}) == \
            ["cycles: recorded 10 != replayed 11"]

    def test_list_mismatch_reports_lengths_and_first_index(self):
        lines = identity_mismatches({"statuses": [200, 599]},
                                    {"statuses": [200, 200, 200]})
        assert lines == ["statuses: recorded 2 item(s), replayed 3; "
                         "first at index 1: 599 != 200"]

    def test_only_recorded_keys_are_compared(self):
        assert identity_mismatches({"cycles": 1},
                                   {"cycles": 1, "extra": 2}) == []
