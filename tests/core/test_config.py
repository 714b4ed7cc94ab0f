"""Unit tests for ExecutionConfig."""

import pytest

from repro.core.config import DEFAULT_CONFIG, ExecutionConfig


class TestConfig:
    def test_defaults_match_paper_reference_setup(self):
        # Section 8: shuffle-hash join, optimized DSN, stage combination,
        # code generation.
        assert DEFAULT_CONFIG.evaluation == "dsn"
        assert DEFAULT_CONFIG.join_strategy == "shuffle_hash"
        assert DEFAULT_CONFIG.stage_combination
        assert DEFAULT_CONFIG.codegen
        assert DEFAULT_CONFIG.partial_aggregation
        assert DEFAULT_CONFIG.use_setrdd

    def test_but_returns_modified_copy(self):
        changed = DEFAULT_CONFIG.but(codegen=False)
        assert not changed.codegen
        assert DEFAULT_CONFIG.codegen  # original untouched

    def test_invalid_evaluation_rejected(self):
        with pytest.raises(ValueError, match="evaluation"):
            ExecutionConfig(evaluation="bogus")

    def test_invalid_join_strategy_rejected(self):
        with pytest.raises(ValueError, match="join strategy"):
            ExecutionConfig(join_strategy="bogus")


class TestProcessConfig:
    """The supervision knobs refuse values that would reap every healthy
    worker or fail every task, instead of degrading the run silently."""

    def test_defaults_validate(self):
        from repro.engine.backend import ProcessConfig
        from repro.engine.backend.base import HEARTBEAT_INTERVAL_S

        config = ProcessConfig()
        assert config.liveness_timeout > HEARTBEAT_INTERVAL_S
        assert config.task_deadline_s > 0

    @pytest.mark.parametrize("field, value", [
        ("liveness_timeout", -1.0),
        ("liveness_timeout", 0.0),
        ("liveness_timeout", 0.05),  # equal to the heartbeat interval
        ("task_deadline_s", -5.0),
        ("task_deadline_s", 0.0),
    ])
    def test_rejects_values_that_break_supervision(self, field, value):
        from repro.engine.backend import ProcessConfig

        with pytest.raises(ValueError, match=field):
            ProcessConfig(**{field: value})
