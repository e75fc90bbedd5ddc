import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from aoi_guard import (
    AgentClassSpec,
    ConvergenceError,
    MarkovSource,
    PenaltyTable,
    ValidationError,
    banded_safety_map,
    build_grid_walk,
    build_tables,
    dual_ascent,
    dual_lower_bound,
    loss_01,
    loss_safety_example,
    policy_iteration,
    stationary_distribution,
)
from aoi_guard import bandit
from aoi_guard.bandit import LumpedClass, relaxed_rate
from aoi_guard.markov import SafetyMap, lumpable_partition, recurrent_states, stack_padded
from conftest import CHAIN_A_MATRIX, identity_safety_map, make_grid_classes, random_primitive_source
from oracles import evaluate_policy_loop, relaxed_lp_value, relaxed_rate_oracle, renewal_sums_loop, rvi_fixed_sweeps

# Frozen from the straight-line 200-sweep oracle in oracles.py (chain A,
# identity safety, 0-1 loss, p=0.95, lambda=0.05, delta_bound=40). The
# oracle output is unchanged at 2000 sweeps.
GOLDEN_ALPHA_3_0 = 0.07822329550000007
GOLDEN_AVG_COST = 0.1881685


def solve_chain_a(p=0.95, lam=0.05, delta_bound=40):
    src = MarkovSource(CHAIN_A_MATRIX, name="chain_a")
    cls = AgentClassSpec(src, identity_safety_map(2), loss_01(2), success_prob=p)
    pen, _ = build_tables(cls, delta_bound)
    return policy_iteration(pen, src, p, lam), pen, src


def bellman_residual(sol, pen, src, success_prob, observations=slice(None)):
    """Max |h - min(passive, active)| over ages 1..D and the given observations, from matrix powers."""
    q, h, g, lam = pen.values, sol.h, sol.avg_cost, sol.lam
    db = q.shape[0] - 1
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
        frozen = MarkovSource(np.eye(3), name="frozen")
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
            policy_iteration(pen, MarkovSource(np.eye(3)), 0.95, 0.05)

    def test_convergence_error_carries_span(self):
        # Two closed copies of chain A at bound 3: each copy renews into
        # itself, so phase 1 cannot evaluate, and at price 0 holding the
        # least saturated penalty forever is far from optimal. The error
        # carries that Bellman residual.
        two = np.kron(np.eye(2), np.array(CHAIN_A_MATRIX))
        src = MarkovSource(two, name="two_copies")
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
        src = MarkovSource(CHAIN_A_MATRIX, name="chain_a")
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
        src = MarkovSource(CHAIN_A_MATRIX, name="chain_a")
        cls = AgentClassSpec(src, identity_safety_map(2), loss_01(2), success_prob=0.9)
        pen, _ = build_tables(cls, 250)
        sol = policy_iteration(pen, src, 0.9, 1.0)
        assert sol.residual < 1e-9

    def test_avg_cost_monotone_and_active_set_shrinks_in_price(self):
        warm = None
        prev_cost = -np.inf
        prev_active = None
        src = MarkovSource(CHAIN_A_MATRIX, name="chain_a")
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
            src = random_primitive_source(rng, nx)
            cls = AgentClassSpec(src, identity_safety_map(nx), loss_01(nx), success_prob=float(rng.uniform(0.3, 1.0)))
            pen, _ = build_tables(cls, 80)
            sol = policy_iteration(pen, src, cls.success_prob, 0.0)
            assert sol.gain[1:].min() >= -1e-9

    def test_warm_start_reaches_the_cold_solution(self):
        src = MarkovSource(CHAIN_A_MATRIX, name="chain_a")
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
        src, mask, _ = data.draw(masked_sources())
        nx, db = src.state_count, mask.shape[0] - 1
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
            src = MarkovSource(matrix, name="degenerate")
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
        src = MarkovSource([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.45, 0.55]], name="transient")
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
        pen, _ = build_tables(cls, 250)
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

    def test_penalty_table_must_cover_its_class(self, chain_a_class):
        # One column for a 2-state class: the class is named, not an index error.
        with pytest.raises(ValidationError, match="class chain_a: penalty table has 1 columns for 2 states"):
            dual_ascent([chain_a_class], [PenaltyTable(np.zeros((5, 1)))], 1)


def stop_reason(trace, channels):
    """How a returned search stopped, read from its last probe."""
    _, lam, rate = trace.iterations[-1]
    if abs(rate - channels) <= bandit.RATE_BAND * channels:
        return "band"
    return "slack" if lam == 0.0 else "breakpoint"


@st.composite
def positive_systems(draw):
    """One or two classes on positive sources (|X| <= 4), one age bound D <= 30, and a budget."""
    db = draw(st.integers(1, 30))
    classes = []
    for _ in range(draw(st.integers(1, 2))):
        nx = draw(st.integers(2, 4))
        rows = draw(st.lists(st.lists(st.floats(0.05, 1.0), min_size=nx, max_size=nx), min_size=nx, max_size=nx))
        p = np.array(rows)
        p /= p.sum(axis=1, keepdims=True)
        classes.append(AgentClassSpec(MarkovSource(p), identity_safety_map(nx), loss_01(nx),
                                      draw(st.floats(0.05, 1.0)), draw(st.integers(1, 4))))
    channels = draw(st.integers(1, sum(c.member_count for c in classes)))
    return classes, [build_tables(c, db)[0] for c in classes], channels


class TestDualCertificates:
    """The search's bound against the occupation-measure LP of the relaxation.

    Weak duality puts every bound at or below the LP value. At a breakpoint
    the price maximizes the dual function, and at a slack stop the budget
    does not bind, so there the bound is the LP value.
    """

    def assert_certified(self, classes, pens, channels):
        _, trace, sols = dual_ascent(classes, pens, channels)
        bound = dual_lower_bound(sols, classes, channels)
        lp = relaxed_lp_value(classes, pens, channels)
        reason = stop_reason(trace, channels)
        assert trace.converged and bound <= lp * (1.0 + 1e-8)
        if reason != "band":
            assert abs(bound - lp) <= 1e-8 * abs(lp)
        return reason, len(trace.iterations)

    @settings(max_examples=40, deadline=None)
    @given(positive_systems())
    def test_bound_meets_lp_on_positive_sources(self, system):
        reason, _ = self.assert_certified(*system)
        event(f"stop: {reason}")

    @pytest.mark.parametrize("channels,reason", [(2, "band"), (4, "band"), (6, "slack")])
    def test_grid20_classes(self, channels, reason):
        classes = list(make_grid_classes())
        pens = [build_tables(c, 60)[0] for c in classes]
        assert self.assert_certified(classes, pens, channels)[0] == reason

    @pytest.mark.parametrize("rows,success,delta_bound", [
        ([[0.3990410011764109, 0.0511016666267199, 0.13246018489272535, 0.4173971473041438],
          [0.3639006607048563, 0.3070467319028537, 0.2296307828048233, 0.09942182458746668],
          [0.1802557476165491, 0.36790489200773885, 0.22919438761815336, 0.2226449727575586],
          [0.2581779903130467, 0.2322512035900399, 0.26042631935755495, 0.24914448673935846]], 0.99, 11),
        ([[0.35540316321167853, 0.2793756796944372, 0.29866161861859675, 0.06655953847528752],
          [0.3197737684424133, 0.05050769121239962, 0.41326259541926635, 0.21645594492592074],
          [0.5514034589018615, 0.10846820116923253, 0.07513815023184565, 0.2649901896970603],
          [0.15328995716203647, 0.43804204728839086, 0.35345445694818745, 0.05521353860138519]], 0.99609375, 14),
    ])
    def test_average_cost_tied_with_the_least_saturated_penalty(self, rows, success, delta_bound):
        # Near the price where holding at the age bound starts to pay, phase
        # 1's average cost equals q_min up to rounding. Switching to phase 2
        # on that tie left a Bellman residual of 1.8e-3 on the first source and
        # a singular shortest path on the second.
        cls = AgentClassSpec(MarkovSource(rows), identity_safety_map(4), loss_01(4), success, 2)
        self.assert_certified([cls], [build_tables(cls, delta_bound)[0]], 1)

    def test_two_agent_breakpoint(self):
        # The CLI tests' two-agent, one-channel pair config: no price puts
        # its rate in the band, and the search stops at the breakpoint.
        cls = AgentClassSpec(MarkovSource(CHAIN_A_MATRIX), identity_safety_map(2), loss_01(2), 0.9, 2)
        reason, probes = self.assert_certified([cls], [build_tables(cls, 250)[0]], 1)
        assert reason == "breakpoint" and probes <= 8


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
    return MarkovSource(p), mask, success


def chain_a_masks(lam_grid, delta_bound=60):
    """Greedy masks of chain A's class MDP (p = 0.95) along a price grid."""
    src = MarkovSource(CHAIN_A_MATRIX, name="chain_a")
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
        src = random_primitive_source(np.random.default_rng(5), 4)
        assert relaxed_rate(np.zeros((21, 4), dtype=bool), src, 0.8) == 0.0

    def test_all_active_is_one(self):
        src = random_primitive_source(np.random.default_rng(6), 4)
        mask = np.ones((21, 4), dtype=bool)
        mask[0] = False
        for success in (0.3, 1.0):
            assert relaxed_rate(mask, src, success) == pytest.approx(1.0, abs=1e-12)

    def test_observation_held_forever_gives_zero(self):
        # Observation 0 is never sent, and the primitive source keeps
        # delivering fresh 0s, so every agent ends up holding one forever.
        src = random_primitive_source(np.random.default_rng(7), 4)
        mask = np.ones((21, 4), dtype=bool)
        mask[0] = False
        mask[:, 0] = False
        assert relaxed_rate(mask, src, 0.9) == 0.0
        mask[20, 0] = True  # sent once the age saturates: no longer held
        assert relaxed_rate(mask, src, 0.9) == pytest.approx(relaxed_rate_oracle(mask, src.transition, 0.9), abs=1e-10)

    def test_frozen_chains_are_zero(self):
        for frozen, labels in ((np.eye(3), [0, 1, 2]), (np.eye(3), [0, 0, 1]), (np.eye(2), [0, 1])):
            src = MarkovSource(frozen, name="frozen")
            cls = AgentClassSpec(src, SafetyMap(max(labels) + 1, np.array(labels)), loss_01(max(labels) + 1), 0.9)
            pen, _ = build_tables(cls, 30)
            lumped = LumpedClass.of(cls, pen)
            for lam in (0.0, 0.5):
                sol = policy_iteration(lumped.penalty, lumped.source, 0.9, lam)
                assert relaxed_rate(sol.active_mask(), lumped.source, 0.9) == 0.0

    def test_ambiguous_long_run_raises(self):
        # A frozen agent that sends observation 0 keeps renewing into 0, one
        # that holds 1 never sends: the rate depends on where it starts.
        frozen = MarkovSource(np.eye(2), name="frozen")
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
        cls = make_grid_classes((1, 1))[0]
        pen, _ = build_tables(cls, 60)
        warm, rates = None, []
        for lam in np.linspace(0.0, 4.0, 33):
            sol = policy_iteration(pen, cls.source, 0.95, float(lam), warm)
            warm = sol.active_mask()
            rates.append(relaxed_rate(warm, cls.source, 0.95))
        assert rates[0] > rates[-1] > 0.0
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))


def greedy(q_passive, q_active):
    mask = q_passive - q_active > bandit.GAIN_TIE_EPS
    mask[0] = False
    return mask


def assert_matches_loops(mask, q, src, success, lam):
    """The stack's renewal sums and mask evaluation against the per-age loops of the oracle."""
    recurrent = recurrent_states(src.transition)
    q_min = float(q[-1, recurrent].min())
    powers = bandit.power_stack(src.transition, mask.shape[0] - 1)
    got = bandit.renewal_sums(mask, powers, success, q)
    want = renewal_sums_loop(mask, src, success, q)
    evaluated = bandit.evaluate_policy(mask, q, powers, success, lam, q_min)
    reference = evaluate_policy_loop(mask, q, src, success, lam, q_min)
    assert (evaluated is None) == (reference is None)
    if evaluated is not None:
        got, want = got + evaluated, want + reference
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= value_tol(b)
    if evaluated is not None:
        # The checks above bound the gain q_passive - q_active of both sides
        # to within `band` of each other, so a cell that close to the tie
        # threshold may fall on either side of it; every other cell must agree.
        band = value_tol(reference[2]) + value_tol(reference[3])
        near = [np.abs(side[2] - side[3] - bandit.GAIN_TIE_EPS) <= band for side in (evaluated, reference)]
        got_mask, want_mask = greedy(*evaluated[2:]), greedy(*reference[2:])
        resolved = ~near[0] & ~near[1]
        assert np.array_equal(got_mask[resolved], want_mask[resolved])
        assert (near[0] & near[1])[got_mask != want_mask].all()
    return evaluated


def value_tol(reference):
    return 1e-12 * max(1.0, float(np.abs(reference).max()))


@st.composite
def priced_masks(draw):
    """A `masked_sources` case with a penalty table in [0, 1] and a price in [0, 2].

    Drawn with `hold`, the observation with the least q(D, x) is held at age
    D: a phase-2 mask of policy iteration.
    """
    src, mask, success = draw(masked_sources())
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=mask.size, max_size=mask.size))
    q = np.array(cells).reshape(mask.shape)
    hold = draw(st.booleans())
    if hold:
        mask[-1, np.argmin(q[-1])] = False
    return src, mask, success, q, draw(st.floats(0.0, 2.0)), hold


class TestPowerStack:
    """The per-class P^delta stack and the age-vectorized sums that read it."""

    @settings(max_examples=200, deadline=None)
    @given(priced_masks())
    def test_matches_per_age_loops(self, case):
        src, mask, success, q, lam, hold = case
        evaluated = assert_matches_loops(mask, q, src, success, lam)
        assert hold or evaluated is not None
        event(f"hold: {hold}, singular: {evaluated is None}")

    def test_gain_on_the_tie_threshold(self):
        # Shrunk from a hypothesis draw: q(D, 1) = GAIN_TIE_EPS puts gains on
        # the threshold, where the stack and the loops round to opposite
        # sides of it (-1.7e-15 against +8.3e-17) and one greedy cell flips.
        rows = [[1, 1, 1, 1, 1], [1, 1, 1, 1, 1], [1, 2, 2, 2, 2], [1, 2, 2, 2, 1], [1, 4, 4, 4, 4]]
        src = MarkovSource(np.array(rows) / np.sum(rows, axis=1, keepdims=True))
        mask = np.zeros((9, 5), dtype=bool)
        mask[8, 1:] = True  # only age D active, x = 0 held
        q = np.zeros((9, 5))
        q[8, 1] = bandit.GAIN_TIE_EPS
        assert assert_matches_loops(mask, q, src, 0.5, 1.0) is not None

    def test_tiny_reach_at_near_certain_delivery(self):
        # Two sends at p = 0.99999 leave reach 1e-10 at the held age D, so
        # the terminal value is about -1e10; the loops' reach must keep its
        # digits for the values to agree to 1e-12 of that.
        mask = np.zeros((10, 1), dtype=bool)
        mask[7:9] = True
        assert assert_matches_loops(mask, np.zeros((10, 1)), MarkovSource(np.ones((1, 1))), 0.99999, 1.0) is not None

    def test_grid20_classes_at_the_default_bound(self):
        for cls in make_grid_classes():
            pen, _ = build_tables(cls, 250)
            sol = policy_iteration(pen, cls.source, cls.success_prob, 3.0)
            for mask in (sol.active_mask(), np.ones_like(sol.active_mask())):
                assert_matches_loops(mask, pen.values, cls.source, cls.success_prob, 3.0)

    def test_stack_is_the_repeated_product(self):
        src = random_primitive_source(np.random.default_rng(3), 4)
        powers = bandit.power_stack(src.transition, 9)
        assert powers.shape == (10, 4, 4) and not powers.flags.writeable
        assert (powers[0] == np.eye(4)).all() and (powers[1] == src.transition).all()
        power = src.transition
        for d in range(2, 10):
            power = power @ src.transition
            assert (powers[d] == power).all()

    def test_dual_search_builds_one_stack_per_class(self, monkeypatch):
        builds, build = [], bandit.power_stack

        def counted(transition, delta_bound):
            builds.append(delta_bound)
            return build(transition, delta_bound)

        monkeypatch.setattr(bandit, "power_stack", counted)
        classes = list(make_grid_classes())
        _, trace, _ = dual_ascent(classes, [build_tables(c, 250)[0] for c in classes], channels=2)
        assert [lam for _, lam, _ in trace.iterations] == [0.0, 1.0, 3.0]
        assert builds == [250, 250]


def unlumped(monkeypatch):
    """Make dual_ascent solve every class on its original source, as a reference."""

    def identity(spec, penalty):
        return LumpedClass(spec.source, penalty, np.arange(spec.source.state_count))

    monkeypatch.setattr(LumpedClass, "of", staticmethod(identity))


class TestLumpedQuotient:
    def test_grid_walk_lifts_onto_unlumped_solve(self):
        rows, cols = 6, 6
        src = build_grid_walk(rows, cols, 0.2, 0.2, 0.2, 0.2, name="grid6")
        safety = banded_safety_map(rows, (2, 4), cols)
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
        classes = make_grid_classes((10, 10))
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
        frozen = MarkovSource(np.eye(3), name="frozen")
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
        src = random_primitive_source(np.random.default_rng(2), 5)
        assert src.transition[0].sum() > 1.0
        cls = AgentClassSpec(src, SafetyMap(1, np.zeros(5, dtype=int)), loss_01(1), 0.9)
        pen, _ = build_tables(cls, 30)
        lumped = LumpedClass.of(cls, pen)
        assert lumped.source.transition.tolist() == [[1.0]]
        sol = lumped.lift(policy_iteration(lumped.penalty, lumped.source, 0.9, 0.2))
        assert sol.gain.shape == (31, 5) and np.abs(sol.gain[1:] + 0.2).max() < 1e-12
