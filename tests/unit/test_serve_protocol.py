"""Unit coverage for the serve wire shapes and quota admission.

The job fingerprint is the correctness keystone of the whole serving
stack: coalescing and memoization are only *exact* because every knob
that can change an observable result is part of the key.  These tests
pin that contract, the request validator's complaints, and the
token-bucket arithmetic (including the ``Retry-After`` value and the
bounded tenant table's overflow bucket).
"""

from __future__ import annotations

import pytest

from repro.serve.protocol import (ENDPOINTS, MAX_DEADLINE_MS, MODES, Job,
                                  JobOutcome, error_body, job_fingerprint,
                                  program_sha, validate_request)
from repro.serve.quota import QuotaTable, TokenBucket

SOURCE = "class C<Owner o> { int x; }\n{ print(1); }\n"


class TestContentAddresses:

    def test_program_sha_is_a_stable_content_address(self):
        assert program_sha(SOURCE) == program_sha(SOURCE)
        assert program_sha(SOURCE) != program_sha(SOURCE + " ")
        assert len(program_sha(SOURCE)) == 64

    def test_fingerprint_covers_every_result_knob(self):
        sha = program_sha(SOURCE)
        base = job_fingerprint("run", sha, "static", "py")
        assert base == job_fingerprint("run", sha, "static", "py")
        # each knob that can alter the observable result changes the key
        assert base != job_fingerprint("analyze", sha, "static", "py")
        assert base != job_fingerprint("run", program_sha("x" + SOURCE),
                                       "static", "py")
        assert base != job_fingerprint("run", sha, "dynamic", "py")
        assert base != job_fingerprint("run", sha, "static", "interp")

    def test_job_round_trips_over_the_wire(self):
        sha = program_sha(SOURCE)
        job = Job(endpoint="run", source=SOURCE, source_sha=sha,
                  fingerprint=job_fingerprint("run", sha, "static",
                                              "py"),
                  deadline=12.5)
        wire = job.to_wire()
        assert wire["endpoint"] in ENDPOINTS
        assert wire["source"] == SOURCE
        assert wire["deadline"] == 12.5
        assert Job(**wire) == job


class TestValidateRequest:

    def test_well_formed_request_passes(self):
        assert validate_request({"program": SOURCE}) is None
        assert validate_request({"program": SOURCE, "mode": "dynamic",
                                 "backend": "interp",
                                 "deadline_ms": 250,
                                 "tenant": "alice"}) is None

    @pytest.mark.parametrize("payload, fragment", [
        ([SOURCE], "JSON object"),
        ({}, "missing 'program'"),
        ({"program": "   "}, "missing 'program'"),
        ({"program": 7}, "missing 'program'"),
        ({"program": SOURCE, "mode": "fast"}, "mode must be"),
        ({"program": SOURCE, "backend": "jvm"}, "backend must be"),
        ({"program": SOURCE, "deadline_ms": 0}, "deadline_ms"),
        ({"program": SOURCE, "deadline_ms": -5}, "deadline_ms"),
        ({"program": SOURCE, "deadline_ms": "soon"}, "deadline_ms"),
        ({"program": SOURCE, "tenant": ""}, "tenant"),
        ({"program": SOURCE, "deadline_ms": 1e15}, "deadline_ms"),
        ({"program": SOURCE, "deadline_ms": float("inf")}, "deadline_ms"),
        ({"program": SOURCE, "deadline_ms": float("nan")}, "deadline_ms"),
        ({"program": SOURCE, "deadline_ms": True}, "deadline_ms"),
        ({"program": SOURCE, "deadline_ms": MAX_DEADLINE_MS + 1},
         "deadline_ms"),
    ])
    def test_malformed_requests_are_named(self, payload, fragment):
        complaint = validate_request(payload)
        assert complaint is not None and fragment in complaint

    def test_deadline_range_is_inclusive_of_the_maximum(self):
        for deadline_ms in (0.0001, 1, MAX_DEADLINE_MS,
                            float(MAX_DEADLINE_MS)):
            assert validate_request({"program": SOURCE,
                                     "deadline_ms": deadline_ms}) is None

    def test_backends_are_the_ladder(self):
        from repro.interp.codegen_py import BACKEND_CHOICES
        assert BACKEND_CHOICES == ("interp", "py", "c")
        for backend in BACKEND_CHOICES:
            assert validate_request({"program": SOURCE,
                                     "backend": backend}) is None
        assert "backend must be" in validate_request(
            {"program": SOURCE, "backend": "py-fused"})

    def test_modes_are_the_machine_modes(self):
        assert MODES == ("static", "dynamic")


class TestOutcome:

    def test_ok_tracks_the_2xx_range(self):
        assert JobOutcome(200).ok
        assert JobOutcome(204).ok
        assert not JobOutcome(422).ok
        assert not JobOutcome(500).ok

    def test_error_body_shape(self):
        body = error_body("nope", retry_after_s=2.0)
        assert body == {"ok": False, "error": "nope",
                        "retry_after_s": 2.0}


class TestTokenBucket:

    def test_burst_admits_then_denies(self):
        bucket = TokenBucket(rate=1.0, burst=2.0, now=0.0)
        assert bucket.allow(now=0.0) == (True, 0.0)
        assert bucket.allow(now=0.0) == (True, 0.0)
        ok, wait = bucket.allow(now=0.0)
        assert not ok
        # the wait is exactly the next token's arrival
        assert wait == pytest.approx(1.0)

    def test_refill_is_metered_by_rate(self):
        bucket = TokenBucket(rate=2.0, burst=1.0, now=0.0)
        assert bucket.allow(now=0.0)[0]
        assert not bucket.allow(now=0.1)[0]   # only 0.2 tokens back
        assert bucket.allow(now=0.5)[0]       # a full token refilled
        # refill never exceeds the burst capacity
        bucket2 = TokenBucket(rate=10.0, burst=1.0, now=0.0)
        assert bucket2.allow(now=100.0)[0]
        assert not bucket2.allow(now=100.0)[0]

    def test_zero_rate_means_wait_forever(self):
        bucket = TokenBucket(rate=0.0, burst=1.0, now=0.0)
        assert bucket.allow(now=0.0)[0]
        ok, wait = bucket.allow(now=1e9)
        assert not ok and wait == float("inf")


class TestQuotaTable:

    def test_disabled_table_admits_everything(self):
        table = QuotaTable(rate=0.0)
        assert not table.enabled
        for _ in range(100):
            assert table.allow("anyone") == (True, 0.0)
        assert table.tenants() == 0  # no buckets materialized

    def test_tenants_are_metered_independently(self):
        table = QuotaTable(rate=0.001, burst=1.0)
        assert table.allow("alice")[0]
        ok, wait = table.allow("alice")
        assert not ok and wait > 0
        # bob's bucket is untouched by alice's exhaustion
        assert table.allow("bob")[0]
        assert table.tenants() == 2

    def test_overflow_bucket_bounds_the_table(self):
        table = QuotaTable(rate=0.001, burst=1.0, max_tenants=2)
        assert table.allow("a")[0]
        assert table.allow("b")[0]
        # past the cap, unknown tenants share one overflow bucket:
        # "c" takes its only token, so "d" is denied without ever
        # getting a bucket of its own
        assert table.allow("c")[0]
        assert not table.allow("d")[0]
        assert table.tenants() == 3  # a, b, <other>
