"""Tests for shared utilities: units, rng, ids, errors."""

from __future__ import annotations

import pytest

from repro.common import errors
from repro.common.ids import short_hash
from repro.common.rng import RngFactory, derive_seed
from repro.common.units import (
    GIB,
    KIB,
    MIB,
    gbps,
    mbps,
    minutes,
    ms,
    seconds,
    tps,
)


class TestUnits:
    def test_time_helpers(self):
        assert ms(250) == 0.25
        assert seconds(3) == 3.0
        assert minutes(2) == 120.0

    def test_size_helpers(self):
        assert KIB == 1024
        assert KIB * 1024 == MIB
        assert MIB * 1024 == GIB

    def test_rate_helpers(self):
        assert mbps(8) == 1e6          # 8 Mbps = 1 MB/s
        assert gbps(8) == 1e9
        assert tps(100) == 100.0


class TestRng:
    def test_same_stream_name_same_sequence(self):
        factory = RngFactory(42)
        a = factory.stream("x").random(5)
        b = factory.stream("x").random(5)
        assert list(a) == list(b)

    def test_different_names_differ(self):
        factory = RngFactory(42)
        a = factory.stream("x").random(5)
        b = factory.stream("y").random(5)
        assert list(a) != list(b)

    def test_different_seeds_differ(self):
        a = RngFactory(1).stream("x").random(5)
        b = RngFactory(2).stream("x").random(5)
        assert list(a) != list(b)

    def test_child_namespaces(self):
        factory = RngFactory(42)
        child = factory.child("chain", "quorum")
        a = child.stream("jitter").random(3)
        b = RngFactory(42).child("chain", "quorum").stream("jitter").random(3)
        assert list(a) == list(b)

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")


class TestIds:
    def test_short_hash_deterministic(self):
        assert short_hash("a", 1) == short_hash("a", 1)
        assert short_hash("a", 1) != short_hash("a", 2)

    def test_short_hash_length(self):
        assert len(short_hash("x", length=8)) == 8

class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if (isinstance(obj, type) and issubclass(obj, Exception)
                    and obj is not errors.ReproError):
                assert issubclass(obj, errors.ReproError), name

    def test_budget_exceeded_is_vm_error(self):
        assert issubclass(errors.BudgetExceededError, errors.VMError)

    def test_sender_quota_is_mempool_full(self):
        assert issubclass(errors.SenderQuotaError, errors.MempoolFullError)

    def test_spec_error_is_configuration_error(self):
        assert issubclass(errors.SpecError, errors.ConfigurationError)
