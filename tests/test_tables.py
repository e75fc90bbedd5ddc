import numpy as np
import pytest

from aoi_guard import (
    AgentClassSpec,
    LossMatrix,
    MarkovSource,
    ValidationError,
    build_tables,
    loss_01,
    stationary_distribution,
)
from aoi_guard.markov import SafetyMap

from conftest import identity_safety_map, random_primitive_source
from oracles import enumerate_tables, optimal_estimate


class TestBuildTables:
    def test_chain_a_entries(self, chain_a_class):
        pen, est = build_tables(chain_a_class, 10)
        assert pen.values[1, 0] == pytest.approx(0.1)
        assert est[1, 0] == 0
        assert pen.values[2, 0] == pytest.approx(0.17)
        assert pen.values[1, 1] == pytest.approx(0.2)

    def test_frozen_source_never_pays(self):
        frozen = MarkovSource(np.eye(4))
        cls = AgentClassSpec(frozen, identity_safety_map(4), loss_01(4))
        pen, _ = build_tables(cls, 50)
        assert pen.values.max() == 0.0

    def test_saturates_at_stationary_entropy(self, chain_a_class):
        pen, _ = build_tables(chain_a_class, 250)
        # pi = (2/3, 1/3); zero-one entropy there is min(1/3, 2/3)
        assert pen.values[250] == pytest.approx([1 / 3, 1 / 3], abs=1e-6)

    def test_matches_pointwise_definition(self, chain_a_class):
        pen, est = build_tables(chain_a_class, 12)
        for delta in (1, 3, 12):
            for x in (0, 1):
                row = np.linalg.matrix_power(chain_a_class.source.transition, delta)[x]
                dist = np.bincount(chain_a_class.safety.assignment, weights=row, minlength=2)
                label, risk = optimal_estimate(dist, chain_a_class.loss)
                assert est[delta, x] == label
                assert pen.values[delta, x] == pytest.approx(risk, abs=1e-12)

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            nx = int(rng.integers(2, 7))
            ny = int(rng.integers(1, 5))
            src = random_primitive_source(rng, nx)
            safety = SafetyMap(ny, rng.integers(0, ny, size=nx)) if ny > 1 else SafetyMap(1, np.zeros(nx, int))
            loss = LossMatrix(rng.uniform(0, 3, size=(ny, ny)))
            cls = AgentClassSpec(src, safety, loss)
            pen, est = build_tables(cls, 10)
            q_ref, f_ref = enumerate_tables(src.transition, safety.assignment, loss.entries, 10)
            assert np.abs(pen.values - q_ref).max() < 1e-12
            assert (est == f_ref).all()

    def test_loss_scaling_scales_q_not_f(self, chain_a):
        base = AgentClassSpec(chain_a, identity_safety_map(2), loss_01(2))
        scaled = AgentClassSpec(chain_a, identity_safety_map(2), LossMatrix(7.5 * loss_01(2).entries))
        pen_b, est_b = build_tables(base, 40)
        pen_s, est_s = build_tables(scaled, 40)
        assert np.abs(pen_s.values - 7.5 * pen_b.values).max() < 1e-12
        assert (est_s == est_b).all()

    def test_average_penalty_never_decreases_with_age(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            nx = int(rng.integers(2, 7))
            src = random_primitive_source(rng, nx)
            cls = AgentClassSpec(src, identity_safety_map(nx), loss_01(nx))
            pen, _ = build_tables(cls, 100)
            pi = stationary_distribution(src)
            avg = pen.values[1:] @ pi
            assert (np.diff(avg) >= -1e-10).all()

    def test_rejects_bad_bound(self, chain_a_class):
        with pytest.raises(ValidationError):
            build_tables(chain_a_class, 0)

    def test_table_lookup_range(self, chain_a_class):
        # Rows are ages 0..delta_bound; the last one is the bound itself.
        pen, est = build_tables(chain_a_class, 5)
        assert pen.values.shape == est.shape == (6, 2)
        assert pen.values[5] == pytest.approx(build_tables(chain_a_class, 9)[0].values[5])


class TestAgentClassSpec:
    def test_rejects_mismatched_shapes(self, chain_a):
        with pytest.raises(ValidationError):
            AgentClassSpec(chain_a, identity_safety_map(3), loss_01(3))
        with pytest.raises(ValidationError):
            AgentClassSpec(chain_a, identity_safety_map(2), loss_01(3))

    def test_rejects_bad_success_prob(self, chain_a):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValidationError):
                AgentClassSpec(chain_a, identity_safety_map(2), loss_01(2), success_prob=bad)

    def test_rejects_empty_class(self, chain_a):
        with pytest.raises(ValidationError):
            AgentClassSpec(chain_a, identity_safety_map(2), loss_01(2), member_count=0)
