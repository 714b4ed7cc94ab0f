"""Unit tests for the per-worker memory manager (resource governance)."""

import pytest

from repro.engine.memory import MemoryConfig, MemoryManager
from repro.engine.metrics import CostModel, MetricsRegistry
from repro.errors import MemoryBudgetExceededError


def make_manager(num_workers=2, **config_kwargs):
    metrics = MetricsRegistry()
    manager = MemoryManager(num_workers, MemoryConfig(**config_kwargs),
                            metrics, CostModel())
    return manager, metrics


class TestMemoryConfig:
    def test_defaults_unbounded(self):
        config = MemoryConfig()
        assert config.worker_budget_bytes is None

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_rejects_nonpositive_budget(self, bad):
        with pytest.raises(ValueError, match="worker_budget_bytes"):
            MemoryConfig(worker_budget_bytes=bad)


class TestCharging:
    def test_charge_tracks_resident_per_worker(self):
        manager, _ = make_manager()
        manager.charge("state", "path", 0, 0, 100)
        manager.charge("state", "path", 1, 1, 40)
        assert manager.resident_bytes(0) == 100
        assert manager.resident_bytes(1) == 40
        assert manager.resident_bytes() == 140

    def test_recharge_resizes_in_place(self):
        manager, _ = make_manager()
        manager.charge("state", "path", 0, 0, 100)
        manager.charge("state", "path", 0, 0, 250)
        assert manager.resident_bytes(0) == 250

    def test_recharge_rehomes_bytes_after_worker_move(self):
        manager, _ = make_manager()
        manager.charge("state", "path", 0, 0, 100)
        manager.charge("state", "path", 0, 1, 100)
        assert manager.resident_bytes(0) == 0
        assert manager.resident_bytes(1) == 100

    def test_high_water_counter_is_running_max(self):
        manager, metrics = make_manager()
        manager.charge("state", "path", 0, 0, 100)
        manager.charge("shuffle", "x0", 0, 0, 50)
        manager.release("shuffle", "x0", 0)
        manager.charge("shuffle", "x1", 0, 0, 20)
        assert manager.high_water_bytes(0) == 150
        assert metrics.get("memory_hwm_bytes_w0") == 150

    def test_touch_unknown_key_is_noop(self):
        manager, _ = make_manager()
        manager.touch("state", "never-charged", 3)
        assert manager.resident_bytes() == 0


class TestRelease:
    def test_release_group_frees_all_partitions(self):
        manager, _ = make_manager()
        manager.charge("shuffle", "x0", 0, 0, 10)
        manager.charge("shuffle", "x0", 1, 1, 20)
        manager.charge("shuffle", "x1", 0, 0, 30)
        manager.release_group("shuffle", "x0")
        assert manager.resident_bytes() == 30

    def test_release_all_clears_everything(self):
        manager, _ = make_manager()
        manager.charge("state", "a", 0, 0, 10)
        manager.charge("base", "1", 1, 1, 20)
        manager.release_all()
        assert manager.resident_bytes() == 0
        assert manager.spilled_bytes() == 0

    def test_release_spilled_segment(self):
        manager, _ = make_manager(worker_budget_bytes=100)
        manager.charge("state", "a", 0, 0, 80)
        manager.charge("state", "b", 0, 0, 80)  # spills "a"
        assert manager.spilled_bytes(0) == 80
        manager.release("state", "a", 0)
        assert manager.spilled_bytes(0) == 0


class TestSpill:
    def test_spill_evicts_least_recently_touched(self):
        manager, metrics = make_manager(worker_budget_bytes=250)
        manager.charge("state", "cold", 0, 0, 100)
        manager.charge("state", "warm", 0, 0, 100)
        manager.touch("state", "cold", 0)  # now "warm" is coldest
        manager.charge("state", "hot", 0, 0, 100)  # forces one spill
        assert metrics.get("spill_events") == 1
        assert manager.spilled_bytes(0) == 100
        # The un-touched segment was the victim: touching it reads it
        # back (unspill) and in turn evicts another victim.
        before = metrics.get("unspill_events")
        manager.touch("state", "warm", 0)
        assert metrics.get("unspill_events") == before + 1

    def test_spill_charges_simulated_disk_time(self):
        manager, metrics = make_manager(worker_budget_bytes=100)
        manager.charge("state", "a", 0, 0, 80)
        t0 = metrics.sim_time
        manager.charge("state", "b", 0, 0, 80)
        assert metrics.sim_time > t0
        assert metrics.get("spill_bytes") == 80
        assert metrics.get("spill_seconds") > 0

    def test_charged_segment_never_its_own_victim(self):
        manager, metrics = make_manager(worker_budget_bytes=100)
        manager.charge("state", "a", 0, 0, 60)
        manager.charge("state", "b", 0, 0, 90)  # a spills, b stays
        assert manager.resident_bytes(0) == 90
        assert metrics.get("spill_events") == 1

    def test_unspillable_segments_stay_resident(self):
        manager, _ = make_manager(worker_budget_bytes=100)
        manager.charge("state", "pinned", 0, 0, 60, spillable=False)
        with pytest.raises(MemoryBudgetExceededError):
            manager.charge("state", "b", 0, 0, 90)

    def test_workers_isolated(self):
        manager, metrics = make_manager(worker_budget_bytes=100)
        manager.charge("state", "a", 0, 0, 90)
        manager.charge("state", "b", 1, 1, 90)
        assert metrics.get("spill_events") == 0


class TestHardBudget:
    def test_oversized_working_set_raises(self):
        manager, _ = make_manager(worker_budget_bytes=50)
        with pytest.raises(MemoryBudgetExceededError) as info:
            manager.charge("state", "huge", 0, 0, 200)
        error = info.value
        assert error.worker == 0
        assert error.requested_bytes == 200
        assert error.budget_bytes == 50
        assert "spill" in str(error)

    def test_reset_budget_restores_configured(self):
        manager, _ = make_manager(worker_budget_bytes=500)
        manager.set_budget(10, soft=True)
        manager.reset_budget()
        assert manager.budget_bytes == 500
        assert not manager.soft


class TestSoftBudget:
    def test_apply_pressure_spills_but_never_raises(self):
        manager, metrics = make_manager()
        manager.charge("state", "a", 0, 0, 100)
        manager.charge("state", "b", 0, 0, 100)
        budget = manager.apply_pressure(0.4)
        assert budget == 80
        assert manager.soft
        assert metrics.get("memory_pressure_events") == 1
        assert metrics.get("spill_events") >= 1
        # Even a working set larger than the soft budget degrades
        # (overflow counter) instead of raising.
        manager.charge("state", "big", 0, 0, 500)
        assert metrics.get("memory_budget_overflows") >= 1


class TestIterationHighWater:
    def test_begin_iteration_resets_to_current_resident(self):
        manager, _ = make_manager()
        manager.charge("state", "a", 0, 0, 100)
        manager.charge("shuffle", "x0", 0, 0, 300)
        manager.release_group("shuffle", "x0")
        manager.begin_iteration()
        manager.charge("shuffle", "x1", 0, 0, 50)
        hwm = manager.iteration_high_water()
        assert hwm[0] == 150  # not the 400 peak of the previous iteration
