import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from aoi_guard import (
    AgentClassSpec,
    ConvergenceError,
    MarkovSource,
    ValidationError,
    banded_safety_map,
    build_tables,
    dual_ascent,
    dual_lower_bound,
    identity_safety_map,
    loss_01,
    loss_safety_example,
    policy_iteration,
    stationary_distribution,
)
from aoi_guard import bandit
from aoi_guard.bandit import LumpedClass, relaxed_rate
from aoi_guard.config import _grid2d_matrix
from aoi_guard.markov import SafetyMap, lumpable_partition, stack_padded
from conftest import CHAIN_A_MATRIX, make_grid_classes, random_primitive_source
from oracles import relaxed_rate_oracle, rvi_fixed_sweeps

# Frozen from the straight-line 200-sweep oracle in oracles.py (chain A,
# identity safety, 0-1 loss, p=0.95, lambda=0.05, delta_bound=40). The
# oracle output is unchanged at 2000 sweeps.
GOLDEN_ALPHA_3_0 = 0.07822329550000007
GOLDEN_AVG_COST = 0.1881685


def solve_chain_a(p=0.95, lam=0.05, delta_bound=40):
    src = MarkovSource(CHAIN_A_MATRIX, delta_bound=delta_bound, name="chain_a")
    cls = AgentClassSpec(src, identity_safety_map(2), loss_01(2), success_prob=p)
    pen, _ = build_tables(cls, delta_bound)
    return policy_iteration(pen, src, p, lam), pen, src


def bellman_residual(sol, pen, src, success_prob, observations=slice(None)):
    """Max |h - min(passive, active)| over ages 1..D and the given observations, from matrix powers."""
    q, h, g, lam, db = pen.values, sol.h, sol.avg_cost, sol.lam, sol.delta_bound
    worst = 0.0
    for delta in range(1, db + 1):
        up = h[min(delta + 1, db)]
        reset = np.linalg.matrix_power(src.transition, delta) @ h[1]
        passive = q[delta] - g + up
        active = q[delta] - g + lam + (1.0 - success_prob) * up + success_prob * reset
        worst = max(worst, float(np.abs(np.minimum(passive, active) - h[delta])[observations].max()))
    return worst


class TestRelativeValueIteration:
    """The class MDP solve, `policy_iteration`, against values pinned from value iteration."""

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
            sol = policy_iteration(pen, frozen, 0.9, lam)
            assert sol.avg_cost == pytest.approx(0.0, abs=1e-9)
            assert np.abs(sol.gain[1:] + lam).max() < 1e-9  # alpha = -lambda everywhere

    def test_reference_state_pinned_to_zero(self):
        sol, _, _ = solve_chain_a()
        assert sol.h[1, 0] == 0.0

    def test_bellman_residual(self):
        sol, pen, src = solve_chain_a()
        residual = np.abs(np.minimum(sol.q_passive[1:], sol.q_active[1:]) - sol.h[1:]).max()
        assert residual == sol.residual <= 1e-12
        assert bellman_residual(sol, pen, src, 0.95) < 1e-12

    def test_gain_is_exact_table_difference(self):
        sol, _, _ = solve_chain_a()
        assert (sol.gain[1:] == (sol.q_passive - sol.q_active)[1:]).all()

    def test_validation(self):
        sol, pen, src = solve_chain_a()
        with pytest.raises(ValidationError):
            policy_iteration(pen, src, 0.95, -0.1)
        for success in (0.0, 1.5):
            with pytest.raises(ValidationError):
                policy_iteration(pen, src, success, 0.05)
        with pytest.raises(ValidationError):
            policy_iteration(pen, MarkovSource(np.eye(3), delta_bound=40), 0.95, 0.05)

    def test_convergence_error_carries_span(self):
        # Two closed copies of chain A at bound 3: each copy renews into
        # itself, so phase 1 cannot evaluate, and at price 0 holding the
        # least saturated penalty forever is far from optimal. The error
        # carries that Bellman residual.
        two = np.kron(np.eye(2), np.array(CHAIN_A_MATRIX))
        src = MarkovSource(two, delta_bound=3, name="two_copies")
        cls = AgentClassSpec(src, identity_safety_map(4), loss_01(4), success_prob=0.9)
        pen, _ = build_tables(cls, 3)
        with pytest.raises(ConvergenceError, match="more than one stationary law") as err:
            policy_iteration(pen, src, 0.9, 0.0)
        assert err.value.residual is not None and err.value.residual > 1e-9

    def test_short_truncation_holds_at_least_saturated_penalty(self):
        # At a high price and bound 40 the greedy policy holds an aged-out
        # observation forever, so the aged-out self-loops form recurrent
        # classes whose costs differ by the saturation gap 0.7^40 ~ 6e-7.
        # Holding the cheapest one is optimal: g is exactly the least
        # saturated penalty and the tables satisfy the optimality equation.
        src = MarkovSource(CHAIN_A_MATRIX, delta_bound=40, name="chain_a")
        cls = AgentClassSpec(src, identity_safety_map(2), loss_01(2), success_prob=0.9)
        pen, _ = build_tables(cls, 40)
        for lam in (0.5, 1.0, 2.0):
            sol = policy_iteration(pen, src, 0.9, lam)
            assert sol.avg_cost == pen.values[40].min()
            assert sol.residual <= 1e-12
            assert bellman_residual(sol, pen, src, 0.9) <= 1e-12
            assert relaxed_rate(sol.active_mask(), src, 0.9) == 0.0

    def test_default_truncation_closes_the_gap(self):
        # Same price, default bound: the gap is below machine precision.
        src = MarkovSource(CHAIN_A_MATRIX, delta_bound=250, name="chain_a")
        cls = AgentClassSpec(src, identity_safety_map(2), loss_01(2), success_prob=0.9)
        pen, _ = build_tables(cls, 250)
        sol = policy_iteration(pen, src, 0.9, 1.0)
        assert sol.residual < 1e-9

    def test_avg_cost_monotone_and_active_set_shrinks_in_price(self):
        warm = None
        prev_cost = -np.inf
        prev_active = None
        src = MarkovSource(CHAIN_A_MATRIX, delta_bound=60, name="chain_a")
        cls = AgentClassSpec(src, identity_safety_map(2), loss_01(2), success_prob=0.95)
        pen, _ = build_tables(cls, 60)
        for lam in np.arange(0.0, 2.01, 0.1):
            sol = policy_iteration(pen, src, 0.95, float(lam), warm)
            warm = sol.active_mask()
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
            sol = policy_iteration(pen, src, cls.success_prob, 0.0)
            assert sol.gain[1:].min() >= -1e-9

    def test_warm_start_reaches_the_cold_solution(self):
        src = MarkovSource(CHAIN_A_MATRIX, delta_bound=60, name="chain_a")
        cls = AgentClassSpec(src, identity_safety_map(2), loss_01(2), success_prob=0.95)
        pen, _ = build_tables(cls, 60)
        nowhere = np.zeros((61, 2), dtype=bool)
        for lam in (0.0, 0.3, 1.0):
            cold = policy_iteration(pen, src, 0.95, lam)
            for start in (nowhere, cold.active_mask(), policy_iteration(pen, src, 0.95, 2.0).active_mask()):
                warm = policy_iteration(pen, src, 0.95, lam, start)
                assert (warm.active_mask() == cold.active_mask()).all()
                assert abs(warm.avg_cost - cold.avg_cost) < 1e-12
                assert np.nanmax(np.abs(warm.gain - cold.gain)) < 1e-9
        # Below the hold price, a start from the solution evaluates it and
        # stops; at lambda = 1 phase 2 starts afresh from the all-passive mask.
        for lam in (0.0, 0.3):
            cold = policy_iteration(pen, src, 0.95, lam)
            assert cold.avg_cost < pen.values[60].min()
            assert policy_iteration(pen, src, 0.95, lam, cold.active_mask()).iterations == 1

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_converged_value_iteration(self, data):
        src, _, _ = data.draw(masked_sources())
        nx, db = src.state_count, src.delta_bound
        success = data.draw(st.floats(0.05, 1.0))
        lam = data.draw(st.floats(0.0, 2.0))
        cls = AgentClassSpec(src, identity_safety_map(nx), loss_01(nx), success_prob=success)
        pen, _ = build_tables(cls, db)
        sol = policy_iteration(pen, src, success, lam)
        assert sol.residual <= 1e-9 and bellman_residual(sol, pen, src, success) <= 1e-9
        h_ref, qp_ref, qa_ref, g_ref = rvi_fixed_sweeps(
            pen.values, src.transition, success, lam, db, sweeps=2000, damping=0.8, tol=1e-13
        )
        # Value iteration converges only as fast as its policy's chain
        # mixes: one that holds an observation at the bound, reached once in
        # many cycles, can need millions of sweeps. The residual above
        # certifies those draws; the rest must match the converged oracle.
        converged = np.abs(np.minimum(qp_ref, qa_ref) - h_ref)[1:].max() <= 1e-12
        event(f"value iteration converged: {converged}")
        if converged:
            assert abs(sol.avg_cost - g_ref) <= 1e-9
            assert np.abs(sol.gain[1:] - (qp_ref - qa_ref)[1:]).max() <= 1e-9

    def test_degenerate_chains_solve(self):
        # Frozen and deterministic chains hold their observation at zero
        # penalty; the pair chain at bound 2 with p = 1 sends every slot at
        # price 0 (average cost 2/15) and holds observation 0 at q(2, 0) = 0.17
        # once sending costs more. The periodic chain alternates between
        # {0, 1} and {2, 3}, so a send at age 2 never leaves its side: an
        # agent on the far side must send at age 1 to reach observation 1,
        # whose q(2, 1) = 0.32 is the least.
        bipartite = [[0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.3, 0.7], [0.6, 0.4, 0.0, 0.0], [0.2, 0.8, 0.0, 0.0]]
        cases = (
            (np.eye(3), 30, 0.9, ((0.0, 0.0), (0.5, 0.0))),
            ([[0.0, 1.0], [1.0, 0.0]], 10, 1.0, ((0.0, 0.0), (0.5, 0.0))),
            (CHAIN_A_MATRIX, 2, 1.0, ((0.0, 2 / 15), (0.5, 0.17))),
            (bipartite, 2, 1.0, ((0.5, 0.32),)),
        )
        for matrix, db, success, expected in cases:
            src = MarkovSource(matrix, delta_bound=db, name="degenerate")
            nx = src.state_count
            pen, _ = build_tables(AgentClassSpec(src, identity_safety_map(nx), loss_01(nx), success), db)
            for lam, cost in expected:
                sol = policy_iteration(pen, src, success, lam)
                assert sol.avg_cost == pytest.approx(cost, abs=1e-12)
                assert sol.residual <= 1e-12 and bellman_residual(sol, pen, src, success) <= 1e-12

    def test_hold_is_chosen_among_recurrent_observations(self):
        # Observation 0 is transient: no delivery draws it, yet its
        # saturated penalty q(2, 0) = 0 is the least. Holding it is open only
        # to an agent that starts on it, so the class's average cost is the
        # least recurrent hold, q(2, 2) = 0.2475, as long-horizon value
        # iteration gives from every recurrent state. At (2, 0) the one-g
        # equation cannot hold: passive beats the table there by exactly g,
        # and the gain keeps that agent passive.
        src = MarkovSource([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.45, 0.55]], delta_bound=2, name="transient")
        pen, _ = build_tables(AgentClassSpec(src, SafetyMap(2, np.array([1, 1, 0])), loss_01(2), 1.0), 2)
        assert pen.values[2].tolist() == pytest.approx([0.0, 0.45, 0.2475], abs=1e-15)
        sol = policy_iteration(pen, src, 1.0, 0.3)
        assert sol.avg_cost == pytest.approx(0.2475, abs=1e-12)
        assert sol.residual <= 1e-9
        recurrent = np.array([False, True, True])
        assert bellman_residual(sol, pen, src, 1.0, recurrent) <= 1e-12
        assert sol.q_passive[2, 0] - sol.h[2, 0] == pytest.approx(-0.2475, abs=1e-12)
        assert sol.gain[2, 0] < 0.0 and not sol.active_mask()[2, 0]
        assert relaxed_rate(sol.active_mask(), src, 1.0) == 0.0


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


class TestDualAscent:
    def test_unconstrained_when_channels_match_agents(self, chain_a):
        cls = AgentClassSpec(chain_a, identity_safety_map(2), loss_01(2), 0.95, member_count=3)
        pen, _ = build_tables(cls, chain_a.delta_bound)
        lam, trace, sols = dual_ascent([cls], [pen], channels=3)
        assert lam == 0.0
        assert trace.converged
        assert trace.iterations[0][2] == pytest.approx(3.0)

    def test_class_solves_go_through_the_traced_name(self, chain_a, monkeypatch):
        # perfbench times each class solve by wrapping this module attribute.
        prices = []

        def counted(*args):
            prices.append(args[3])
            return policy_iteration(*args)

        monkeypatch.setattr(bandit, "relative_value_iteration", counted)
        cls = AgentClassSpec(chain_a, identity_safety_map(2), loss_01(2), 0.95, member_count=4)
        _, trace, _ = dual_ascent([cls], [build_tables(cls, 60)[0]], channels=1)
        assert prices == [lam for _, lam, _ in trace.iterations] and len(prices) > 1

    def test_trace_lambdas_nonnegative_and_rate_in_band(self, chain_a):
        cls = AgentClassSpec(chain_a, identity_safety_map(2), loss_01(2), 0.95, member_count=6)
        pen, _ = build_tables(cls, 100)
        lam, trace, sols = dual_ascent([cls], [pen], channels=1)
        assert all(l >= 0.0 for _, l, _ in trace.iterations)
        assert lam >= 0.0
        assert trace.converged
        _, lam_acc, rate_acc = trace.iterations[-1]
        assert lam_acc == lam
        assert abs(rate_acc - 1.0) <= 0.05

    def test_solutions_match_final_price(self, chain_a):
        cls = AgentClassSpec(chain_a, identity_safety_map(2), loss_01(2), 0.95, member_count=6)
        pen, _ = build_tables(cls, 100)
        lam, _, sols = dual_ascent([cls], [pen], channels=1)
        assert sols[0].lam == lam

    def test_lower_bound_below_always_send_cost(self, chain_a):
        # One agent, one channel: always-send is optimal and feasible, so the
        # dual bound cannot exceed its long-run cost.
        cls = AgentClassSpec(chain_a, identity_safety_map(2), loss_01(2), 1.0, member_count=1)
        pen, _ = build_tables(cls, 60)
        lam, _, sols = dual_ascent([cls], [pen], channels=1)
        bound = dual_lower_bound(sols, [cls], 1)
        pi = stationary_distribution(chain_a)
        always_send = pi[0] * 0.1 + pi[1] * 0.2
        assert bound <= always_send + 1e-6

    def test_validation(self, chain_a):
        cls = AgentClassSpec(chain_a, identity_safety_map(2), loss_01(2))
        pen, _ = build_tables(cls, 40)
        with pytest.raises(ValidationError):
            dual_ascent([], [], channels=1)
        with pytest.raises(ValidationError):
            dual_ascent([cls], [], channels=1)
        with pytest.raises(ValidationError):
            dual_ascent([cls, cls], [pen, build_tables(cls, 41)[0]], channels=1)


@st.composite
def masked_sources(draw):
    """A positive (hence primitive) source, a price-free mask active at age D, and p."""
    nx = draw(st.integers(1, 5))
    db = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(st.floats(0.05, 1.0), min_size=nx, max_size=nx), min_size=nx, max_size=nx))
    p = np.array(rows)
    p /= p.sum(axis=1, keepdims=True)
    cells = draw(st.lists(st.booleans(), min_size=(db - 1) * nx, max_size=(db - 1) * nx))
    mask = np.zeros((db + 1, nx), dtype=bool)
    mask[1:db] = np.array(cells, dtype=bool).reshape(db - 1, nx)
    mask[db] = True
    success = draw(st.floats(0.01, 1.0))
    return MarkovSource(p, delta_bound=db), mask, success


def chain_a_masks(lam_grid, delta_bound=60):
    """Greedy masks of chain A's class MDP (p = 0.95) along a price grid."""
    src = MarkovSource(CHAIN_A_MATRIX, delta_bound=delta_bound, name="chain_a")
    cls = AgentClassSpec(src, identity_safety_map(2), loss_01(2), 0.95)
    pen, _ = build_tables(cls, delta_bound)
    warm, masks = None, []
    for lam in lam_grid:
        sol = policy_iteration(pen, src, 0.95, float(lam), warm)
        warm = sol.active_mask()
        masks.append(warm)
    return src, masks


class TestRelaxedRate:
    @settings(max_examples=200, deadline=None)
    @given(masked_sources())
    def test_matches_explicit_chain_oracle(self, case):
        src, mask, success = case
        got = relaxed_rate(mask, src, success)
        assert abs(got - relaxed_rate_oracle(mask, src.transition, success)) <= 1e-10

    def test_all_passive_is_zero(self):
        src = random_primitive_source(np.random.default_rng(5), 4, delta_bound=20)
        assert relaxed_rate(np.zeros((21, 4), dtype=bool), src, 0.8) == 0.0

    def test_all_active_is_one(self):
        src = random_primitive_source(np.random.default_rng(6), 4, delta_bound=20)
        mask = np.ones((21, 4), dtype=bool)
        mask[0] = False
        for success in (0.3, 1.0):
            assert relaxed_rate(mask, src, success) == pytest.approx(1.0, abs=1e-12)

    def test_observation_held_forever_gives_zero(self):
        # Observation 0 is never sent, and the primitive source keeps
        # delivering fresh 0s, so every agent ends up holding one forever.
        src = random_primitive_source(np.random.default_rng(7), 4, delta_bound=20)
        mask = np.ones((21, 4), dtype=bool)
        mask[0] = False
        mask[:, 0] = False
        assert relaxed_rate(mask, src, 0.9) == 0.0
        mask[20, 0] = True  # sent once the age saturates: no longer held
        assert relaxed_rate(mask, src, 0.9) == pytest.approx(relaxed_rate_oracle(mask, src.transition, 0.9), abs=1e-10)

    def test_frozen_chains_are_zero(self):
        for frozen, labels in ((np.eye(3), [0, 1, 2]), (np.eye(3), [0, 0, 1]), (np.eye(2), [0, 1])):
            src = MarkovSource(frozen, delta_bound=30, name="frozen")
            cls = AgentClassSpec(src, SafetyMap(max(labels) + 1, np.array(labels)), loss_01(max(labels) + 1), 0.9)
            pen, _ = build_tables(cls, 30)
            lumped = LumpedClass.of(cls, pen)
            for lam in (0.0, 0.5):
                sol = policy_iteration(lumped.penalty, lumped.source, 0.9, lam)
                assert relaxed_rate(sol.active_mask(), lumped.source, 0.9) == 0.0

    def test_ambiguous_long_run_raises(self):
        # A frozen agent that sends observation 0 keeps renewing into 0, one
        # that holds 1 never sends: the rate depends on where it starts.
        frozen = MarkovSource(np.eye(2), delta_bound=10, name="frozen")
        mask = np.zeros((11, 2), dtype=bool)
        mask[1:, 0] = True
        with pytest.raises(ConvergenceError, match="frozen"):
            relaxed_rate(mask, frozen, 0.9)
        mask[1:, 1] = True
        with pytest.raises(ConvergenceError):
            relaxed_rate(mask, frozen, 0.9)

    def test_non_increasing_in_price_on_chain_a(self):
        lam_grid = np.linspace(0.0, 0.6, 41)
        src, masks = chain_a_masks(lam_grid)
        rates = [relaxed_rate(m, src, 0.95) for m in masks]
        assert rates[0] == pytest.approx(1.0) and rates[-1] < 0.5
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_non_increasing_in_price_on_fast_grid_class(self):
        cls = make_grid_classes((1, 1), delta_bound=60)[0]
        pen, _ = build_tables(cls, 60)
        warm, rates = None, []
        for lam in np.linspace(0.0, 4.0, 33):
            sol = policy_iteration(pen, cls.source, 0.95, float(lam), warm)
            warm = sol.active_mask()
            rates.append(relaxed_rate(warm, cls.source, 0.95))
        assert rates[0] > rates[-1] > 0.0
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))


def unlumped(monkeypatch):
    """Make dual_ascent solve every class on its original source, as a reference."""

    def identity(spec, penalty):
        return LumpedClass(spec.source, penalty, np.arange(spec.source.state_count))

    monkeypatch.setattr(LumpedClass, "of", staticmethod(identity))


class TestLumpedQuotient:
    def test_grid_walk_lifts_onto_unlumped_solve(self):
        rows, cols = 6, 6
        src = MarkovSource(_grid2d_matrix(rows, cols, 0.2, 0.2, 0.2, 0.2), delta_bound=40, name="grid6")
        safety = SafetyMap(3, np.repeat(banded_safety_map(rows, (2, 4)).assignment, cols))
        cls = AgentClassSpec(src, safety, loss_safety_example(), success_prob=0.95)
        pen, _ = build_tables(cls, 40)
        lumped = LumpedClass.of(cls, pen)
        assert lumped.source.state_count == rows
        for lam in (0.05, 0.5):
            full = policy_iteration(pen, src, 0.95, lam)
            lifted = lumped.lift(policy_iteration(lumped.penalty, lumped.source, 0.95, lam))
            assert np.nanmax(np.abs(lifted.gain - full.gain)) < 1e-10
            assert abs(lifted.avg_cost - full.avg_cost) < 1e-10
            assert (lifted.active_mask() == full.active_mask()).all()
            assert 0 < full.active_mask().sum() < rows * cols * 40
            assert lifted.iterations == full.iterations
            assert lifted.h.shape == full.h.shape and not lifted.gain.flags.writeable

    def test_row_chain_search_is_bit_identical(self, monkeypatch):
        classes = make_grid_classes((10, 10), delta_bound=40)
        for c in classes:
            assert (lumpable_partition(c.source.transition, c.safety.assignment) == np.arange(20)).all()
        pens = [build_tables(c, 40)[0] for c in classes]
        args = dict(channels=3)
        lam, trace, sols = dual_ascent(list(classes), pens, **args)
        unlumped(monkeypatch)
        lam_ref, trace_ref, sols_ref = dual_ascent(list(classes), pens, **args)
        assert lam == lam_ref and trace.iterations == trace_ref.iterations
        assert trace.converged == trace_ref.converged
        for sol, ref in zip(sols, sols_ref):
            assert np.array_equal(sol.gain, ref.gain, equal_nan=True)
            assert np.array_equal(sol.h, ref.h) and sol.avg_cost == ref.avg_cost

    def test_frozen_chain_collapses_onto_labels(self, monkeypatch):
        frozen = MarkovSource(np.eye(3), delta_bound=30, name="frozen")
        cls = AgentClassSpec(frozen, SafetyMap(2, np.array([0, 0, 1])), loss_01(2), 0.9, member_count=3)
        pen, _ = build_tables(cls, 30)
        lumped = LumpedClass.of(cls, pen)
        assert lumped.block.tolist() == [0, 0, 1]
        assert (lumped.source.transition == np.eye(2)).all()
        sol = lumped.lift(policy_iteration(lumped.penalty, lumped.source, 0.9, 0.5))
        assert sol.avg_cost == pytest.approx(0.0, abs=1e-9)
        assert np.abs(sol.gain[1:] + 0.5).max() < 1e-9
        args = dict(channels=1)
        got = dual_ascent([cls], [pen], **args)
        unlumped(monkeypatch)
        ref = dual_ascent([cls], [pen], **args)
        assert got[0] == ref[0] and got[1].iterations == ref[1].iterations
        assert got[1].converged == ref[1].converged
        assert np.array_equal(got[2][0].gain, ref[2][0].gain, equal_nan=True)

    def test_single_label_lumps_to_one_state(self):
        # Row 0 of this source sums to 1 + ulp: the one-block quotient must
        # still be a valid chain.
        src = random_primitive_source(np.random.default_rng(2), 5, delta_bound=30)
        assert src.transition[0].sum() > 1.0
        cls = AgentClassSpec(src, SafetyMap(1, np.zeros(5, dtype=int)), loss_01(1), 0.9)
        pen, _ = build_tables(cls, 30)
        lumped = LumpedClass.of(cls, pen)
        assert lumped.source.transition.tolist() == [[1.0]]
        sol = lumped.lift(policy_iteration(lumped.penalty, lumped.source, 0.9, 0.2))
        assert sol.gain.shape == (31, 5) and np.abs(sol.gain[1:] + 0.2).max() < 1e-12
