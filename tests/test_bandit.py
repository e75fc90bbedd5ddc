import numpy as np
import pytest

from aoi_guard import (
    AgentClassSpec,
    ConvergenceError,
    MarkovSource,
    ValidationError,
    build_tables,
    dual_ascent,
    dual_lower_bound,
    dual_update,
    identity_safety_map,
    loss_01,
    relative_value_iteration,
    stationary_distribution,
)
from aoi_guard.markov import stack_padded
from conftest import CHAIN_A_MATRIX, random_primitive_source
from oracles import rvi_fixed_sweeps

# Frozen from the straight-line 200-sweep oracle in oracles.py (chain A,
# identity safety, 0-1 loss, p=0.95, lambda=0.05, delta_bound=40). The
# oracle output is unchanged at 2000 sweeps.
GOLDEN_ALPHA_3_0 = 0.07822329550000007
GOLDEN_AVG_COST = 0.1881685


def solve_chain_a(p=0.95, lam=0.05, delta_bound=40, tol=1e-9):
    src = MarkovSource(CHAIN_A_MATRIX, delta_bound=delta_bound, name="chain_a")
    cls = AgentClassSpec(src, identity_safety_map(2), loss_01(2), success_prob=p)
    pen, _ = build_tables(cls, delta_bound)
    return relative_value_iteration(pen, src, p, lam, tol=tol), pen, src


class TestRelativeValueIteration:
    def test_golden_gain_value(self):
        sol, _, _ = solve_chain_a()
        assert sol.gain[3, 0] == pytest.approx(GOLDEN_ALPHA_3_0, abs=1e-6)
        assert sol.avg_cost == pytest.approx(GOLDEN_AVG_COST, abs=1e-6)

    def test_oracle_agreement_on_full_tables(self):
        sol, pen, src = solve_chain_a()
        h_ref, qp_ref, qa_ref, g_ref = rvi_fixed_sweeps(pen.values, src.transition, 0.95, 0.05, 40)
        assert sol.avg_cost == pytest.approx(g_ref, abs=1e-7)
        assert np.abs(sol.q_passive[1:] - qp_ref[1:]).max() < 1e-6
        assert np.abs(sol.q_active[1:] - qa_ref[1:]).max() < 1e-6

    def test_closed_form_always_send(self):
        # p=1 and lambda=0: transmit every slot, age pinned at 1, so the cost
        # averages q(1, .) over the stationary law (2/3, 1/3).
        sol, _, _ = solve_chain_a(p=1.0, lam=0.0)
        assert sol.avg_cost == pytest.approx(2 / 3 * 0.1 + 1 / 3 * 0.2, abs=1e-8)

    def test_frozen_source_is_free_and_passive(self):
        frozen = MarkovSource(np.eye(3), delta_bound=30, name="frozen")
        cls = AgentClassSpec(frozen, identity_safety_map(3), loss_01(3))
        pen, _ = build_tables(cls, 30)
        for lam in (0.1, 1.0):
            sol = relative_value_iteration(pen, frozen, 0.9, lam)
            assert sol.avg_cost == pytest.approx(0.0, abs=1e-9)
            assert np.abs(sol.gain[1:] + lam).max() < 1e-9  # alpha = -lambda everywhere

    def test_reference_state_pinned_to_zero(self):
        sol, _, _ = solve_chain_a()
        assert sol.h[1, 0] == 0.0

    def test_bellman_residual(self):
        sol, _, _ = solve_chain_a(tol=1e-9)
        residual = np.abs(np.minimum(sol.q_passive[1:], sol.q_active[1:]) - sol.h[1:]).max()
        assert residual < 10 * 1e-9

    def test_gain_is_exact_table_difference(self):
        sol, _, _ = solve_chain_a()
        assert (sol.gain[1:] == (sol.q_passive - sol.q_active)[1:]).all()

    def test_validation(self):
        sol, pen, src = solve_chain_a()
        with pytest.raises(ValidationError):
            relative_value_iteration(pen, src, 0.95, -0.1)
        with pytest.raises(ValidationError):
            relative_value_iteration(pen, src, 0.95, 0.0, tol=0.0)

    def test_convergence_error_carries_span(self):
        sol, pen, src = solve_chain_a()
        with pytest.raises(ConvergenceError) as err:
            relative_value_iteration(pen, src, 0.95, 0.05, tol=1e-12, max_iters=3)
        assert err.value.residual is not None and err.value.residual > 0

    def test_short_truncation_cannot_beat_saturation_gap(self):
        # At a high price the greedy policy goes fully passive for some
        # observations, so the aged-out self-loop states form separate
        # recurrent classes whose average costs differ by the penalty
        # saturation gap. The span cannot fall below that gap, which for
        # chain A at bound 40 is 0.7^40 ~ 6e-7; the solver must say so
        # rather than return a bogus table.
        src = MarkovSource(CHAIN_A_MATRIX, delta_bound=40, name="chain_a")
        cls = AgentClassSpec(src, identity_safety_map(2), loss_01(2), success_prob=0.9)
        pen, _ = build_tables(cls, 40)
        with pytest.raises(ConvergenceError) as err:
            relative_value_iteration(pen, src, 0.9, 1.0, max_iters=5000)
        assert err.value.residual == pytest.approx(0.7 ** 40, rel=0.05)

    def test_default_truncation_closes_the_gap(self):
        # Same price, default bound: the gap is below machine precision.
        src = MarkovSource(CHAIN_A_MATRIX, delta_bound=250, name="chain_a")
        cls = AgentClassSpec(src, identity_safety_map(2), loss_01(2), success_prob=0.9)
        pen, _ = build_tables(cls, 250)
        sol = relative_value_iteration(pen, src, 0.9, 1.0)
        assert sol.span < 1e-9

    def test_avg_cost_monotone_and_active_set_shrinks_in_price(self):
        warm = None
        prev_cost = -np.inf
        prev_active = None
        src = MarkovSource(CHAIN_A_MATRIX, delta_bound=60, name="chain_a")
        cls = AgentClassSpec(src, identity_safety_map(2), loss_01(2), success_prob=0.95)
        pen, _ = build_tables(cls, 60)
        for lam in np.arange(0.0, 2.01, 0.1):
            sol = relative_value_iteration(pen, src, 0.95, float(lam), h_init=warm)
            warm = sol.h
            assert sol.avg_cost >= prev_cost - 1e-9
            active = set(map(tuple, np.argwhere(sol.gain[1:] > 0)))
            if prev_active is not None:
                assert active <= prev_active
            prev_cost, prev_active = sol.avg_cost, active

    def test_always_send_at_zero_price(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            nx = int(rng.integers(2, 6))
            src = random_primitive_source(rng, nx, delta_bound=80)
            cls = AgentClassSpec(src, identity_safety_map(nx), loss_01(nx), success_prob=float(rng.uniform(0.3, 1.0)))
            pen, _ = build_tables(cls, 80)
            sol = relative_value_iteration(pen, src, cls.success_prob, 0.0, tol=1e-11)
            assert sol.gain[1:].min() >= -1e-9


class TestGainIndex:
    def test_lookup_matches_table(self):
        # The simulator reads gains at (class, age, observation) from one
        # padded stack of every class's table.
        sol, _, _ = solve_chain_a()
        wide = np.arange(41 * 3, dtype=float).reshape(41, 3)
        stack = stack_padded([np.nan_to_num(sol.gain, nan=0.0), wide], 0.0)
        assert stack[0, 3, 0] == sol.gain[3, 0]
        assert (stack[0, 1:, :2] == sol.gain[1:]).all()
        assert (stack[1] == wide).all()


class TestDualUpdate:
    def test_spec_arithmetic(self):
        assert dual_update(0.4, 0.1, 5.2, 4) == pytest.approx(0.52)

    def test_projection_to_zero(self):
        assert dual_update(0.05, 0.1, 3.0, 4) == 0.0


class TestDualAscent:
    def test_unconstrained_when_channels_match_agents(self, chain_a):
        cls = AgentClassSpec(chain_a, identity_safety_map(2), loss_01(2), 0.95, member_count=3)
        lam, trace, sols = dual_ascent([cls], channels=3, eval_horizon=2000, outer_iters=10, rng=1)
        assert lam == 0.0
        assert trace.converged
        assert trace.iterations[0][2] == pytest.approx(3.0)

    def test_trace_lambdas_nonnegative_and_rate_in_band(self, chain_a):
        cls = AgentClassSpec(chain_a, identity_safety_map(2), loss_01(2), 0.95, member_count=6)
        lam, trace, sols = dual_ascent(
            [cls], channels=1, beta=0.05, eval_horizon=4000, outer_iters=25, rng=2, delta_bound=100
        )
        assert all(l >= 0.0 for _, l, _ in trace.iterations)
        assert lam >= 0.0
        assert trace.converged
        _, lam_acc, rate_acc = trace.iterations[-1]
        assert lam_acc == lam
        assert abs(rate_acc - 1.0) <= 0.05

    def test_solutions_match_final_price(self, chain_a):
        cls = AgentClassSpec(chain_a, identity_safety_map(2), loss_01(2), 0.95, member_count=6)
        lam, _, sols = dual_ascent(
            [cls], channels=1, beta=0.05, eval_horizon=4000, outer_iters=25, rng=2, delta_bound=100
        )
        assert sols[0].lam == lam

    def test_lower_bound_below_always_send_cost(self, chain_a):
        # One agent, one channel: always-send is optimal and feasible, so the
        # dual bound cannot exceed its long-run cost.
        cls = AgentClassSpec(chain_a, identity_safety_map(2), loss_01(2), 1.0, member_count=1)
        lam, _, sols = dual_ascent([cls], channels=1, eval_horizon=2000, outer_iters=5, rng=0, delta_bound=60)
        bound = dual_lower_bound(sols, [cls], 1)
        pi = stationary_distribution(chain_a)
        always_send = pi[0] * 0.1 + pi[1] * 0.2
        assert bound <= always_send + 1e-6

    def test_validation(self, chain_a):
        cls = AgentClassSpec(chain_a, identity_safety_map(2), loss_01(2))
        with pytest.raises(ValidationError):
            dual_ascent([], channels=1)
        with pytest.raises(ValidationError):
            dual_ascent([cls], channels=1, beta=0.0)
