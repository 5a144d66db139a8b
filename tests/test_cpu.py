"""Affinity-aware CPU detection (containers/CI pin processes to cores)."""

from __future__ import annotations

import os

from repro.cpu import available_cpu_count
from repro.engine.multiprocess import (
    MapStep,
    MultiprocessEngine,
    default_process_count,
)


class TestAvailableCpuCount:
    def test_positive_on_this_host(self):
        assert available_cpu_count() >= 1

    def test_honors_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert available_cpu_count() == 3

    def test_affinity_narrower_than_cpu_count_wins(self, monkeypatch):
        # The cgroup/affinity mask must take precedence over the
        # machine-wide count — this is the container over-subscription
        # bug: os.cpu_count() says 64, the runner granted 2.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert available_cpu_count() == 2

    def test_falls_back_without_affinity_support(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert available_cpu_count() == 6

    def test_never_returns_zero(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set())
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_cpu_count() == 1


class TestConsumers:
    def test_engine_process_count_uses_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(os, "cpu_count", lambda: 128)
        assert default_process_count() == 4

    def test_engine_runs_in_process_on_one_granted_cpu(self, monkeypatch):
        # An engine left to pick its own process count opens no pool
        # when the affinity mask grants one core, however many the
        # machine has.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        monkeypatch.setattr(os, "cpu_count", lambda: 128)
        result = MultiprocessEngine().run_pipeline(
            list(range(3000)), [MapStep(_keyed)]
        )
        assert result.fallback_code == "REP302"
        assert sorted(result.pairs) == sorted(_keyed(r)[0] for r in range(3000))


def _keyed(record):
    return [(record % 3, record)]
