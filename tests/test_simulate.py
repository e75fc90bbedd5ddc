import numpy as np
import pytest

import aoi_guard.simulate as simulate
from aoi_guard import (
    AgentClassSpec,
    MarkovSource,
    SimConfig,
    ValidationError,
    identity_safety_map,
    loss_01,
    run_paired,
    run_simulation,
    run_sweep,
    dual_lower_bound,
    solve_system,
)
from aoi_guard.simulate import CSV_HEADER, _World, config_at, records_to_csv, records_to_json

from conftest import CHAIN_A_MATRIX, make_grid_classes


def chain_a_config(**kw):
    src = MarkovSource(CHAIN_A_MATRIX, delta_bound=100, name="chain_a")
    cls = AgentClassSpec(src, identity_safety_map(2), loss_01(2),
                         success_prob=kw.pop("success_prob", 1.0), member_count=kw.pop("members", 1))
    defaults = dict(channels=1, slots=20_000, seed=5, policy="mgf", delta_bound=100)
    defaults.update(kw)
    return SimConfig((cls,), **defaults)


class TestAdvanceAoi:
    """Age recursion: reset on a delivered pull, grow by one otherwise."""

    def test_delivered_pull_resets(self):
        # One agent pulled every slot over a reliable channel.
        rec = run_simulation(chain_a_config(policy="randomized", slots=500))
        assert rec.agent_mean_aoi == (1.0,)

    def test_erased_pull_grows(self):
        # Pulled every slot; the age after slot t is 1 if slot t-1's packet
        # survived the channel and one more than before otherwise.
        cfg = chain_a_config(policy="randomized", success_prob=0.6, slots=3000, warmup=0)
        rec = run_simulation(cfg)
        ok = _World(cfg, cfg.seed).channel_ok[:, 0]
        age, total = 1, 1
        for t in range(1, cfg.slots):
            age = 1 if ok[t - 1] else age + 1
            total += age
        assert rec.agent_mean_aoi == (total / cfg.slots,)
        assert rec.mean_aoi > 1.2

    def test_idle_grows(self):
        # Two reliable agents, one channel, MAF: each is pulled every other
        # slot, so from slot 1 on each age alternates 1, 2.
        rec = run_simulation(chain_a_config(members=2, policy="maf", slots=401, warmup=1))
        assert rec.agent_mean_aoi == (1.5, 1.5)


class TestRunSimulation:
    def test_frozen_world_is_free_for_every_policy(self):
        frozen = MarkovSource(np.eye(3), delta_bound=50, name="frozen")
        cls = AgentClassSpec(frozen, identity_safety_map(3), loss_01(3), 0.9, 4)
        cfg = SimConfig((cls,), channels=2, slots=4000, seed=2, policy="mgf", delta_bound=50)
        system = solve_system(cfg, with_gains=True)
        for rec in run_paired(cfg, ["mgf", "maf", "randomized", "random_queue"], system, 2):
            assert rec.normalized_penalty == 0.0

    def test_chain_a_matches_bandit_closed_form(self):
        cfg = chain_a_config(slots=200_000)
        rec = run_simulation(cfg)
        assert rec.normalized_penalty == pytest.approx(2 / 15, abs=0.004)

    def test_reliable_always_pulled_agent_has_unit_age(self):
        rec = run_simulation(chain_a_config())
        assert rec.mean_aoi == 1.0
        assert rec.activation_rate == 1.0

    def test_bit_for_bit_reproducibility(self):
        cfg = chain_a_config(success_prob=0.7, slots=5000)
        system = solve_system(cfg)
        assert run_simulation(cfg, system) == run_simulation(cfg, system)

    def test_budget_respected(self):
        classes = make_grid_classes((3, 3), delta_bound=60)
        cfg = SimConfig(classes, channels=2, slots=3000, seed=7, policy="maf", delta_bound=60)
        rec = run_simulation(cfg)
        assert rec.activation_rate <= 2.0

    def test_over_budget_selection_is_an_internal_error(self, monkeypatch):
        # The channel check is a raise, not an assert, so python -O keeps it.
        monkeypatch.setattr(simulate, "top_ids", lambda values, budget: np.arange(budget + 1))
        with pytest.raises(RuntimeError, match="1 channels"):
            run_simulation(chain_a_config(members=3, policy="maf", slots=100))

    def test_mgf_without_solutions_is_an_error(self):
        cfg = chain_a_config()
        tables_only = solve_system(cfg, with_gains=False)
        with pytest.raises(ValidationError, match="gain"):
            run_simulation(cfg, tables_only)

    def test_erasures_slow_the_resets(self):
        lossy = run_simulation(chain_a_config(success_prob=0.5, policy="maf", slots=30_000))
        clean = run_simulation(chain_a_config(policy="maf", slots=30_000))
        assert lossy.deliveries < clean.deliveries
        assert lossy.mean_aoi > clean.mean_aoi

    def test_queue_policy_serves_stale_packets(self):
        classes = make_grid_classes((2, 2), delta_bound=60)
        cfg = SimConfig(classes, channels=1, slots=8000, seed=3, policy="randomized", delta_bound=60)
        system = solve_system(cfg)
        fresh, stale = run_paired(cfg, ["randomized", "random_queue"], system, 3)
        assert stale.mean_aoi > fresh.mean_aoi
        assert stale.normalized_penalty > fresh.normalized_penalty

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            chain_a_config(channels=0)
        with pytest.raises(ValidationError):
            chain_a_config(policy="noop")
        with pytest.raises(ValidationError):
            chain_a_config(slots=100, warmup=100)

    def test_heterogeneous_state_counts(self):
        # Classes whose chains differ in size must pad cleanly end to end.
        small = AgentClassSpec(
            MarkovSource(CHAIN_A_MATRIX, delta_bound=50, name="small"),
            identity_safety_map(2), loss_01(2), 0.9, 2, name="small",
        )
        big_p = np.full((5, 5), 0.2)
        big = AgentClassSpec(
            MarkovSource(big_p, delta_bound=50, name="big"),
            identity_safety_map(5), loss_01(5), 0.8, 3, name="big",
        )
        cfg = SimConfig((small, big), channels=2, slots=4000, seed=13, policy="mgf", delta_bound=50)
        system = solve_system(cfg, with_gains=True)
        for rec in run_paired(cfg, ["mgf", "maf", "randomized", "random_queue"], system, 13):
            assert rec.activation_rate <= 2.0
            assert np.isfinite(rec.normalized_penalty)

    def test_decoupled_system_matches_per_agent_optimum(self):
        # M = N with reliable channels: every agent can transmit every slot,
        # so MGF attains the sum of the single-agent optima (0.1333 each).
        cfg = chain_a_config(members=3, channels=3, slots=60_000)
        rec = run_simulation(cfg)
        assert rec.normalized_penalty == pytest.approx(2 / 15, abs=0.01)
        assert rec.activation_rate == pytest.approx(3.0)


class TestRunSweep:
    def test_record_grid_shape_and_pairing(self):
        classes = make_grid_classes((2, 2), delta_bound=40)
        cfg = SimConfig(classes, channels=1, slots=2000, seed=11, policy="maf", delta_bound=40)
        records = run_sweep(cfg, "channels", [1, 2], policies=["maf", "randomized"], replications=3)
        assert len(records) == 2 * 2 * 3
        seeds = {r.seed for r in records}
        assert seeds == {11, 12, 13}
        for value in (1, 2):
            per_policy = {
                p: [r.seed for r in records if r.channels == value and r.policy == p]
                for p in ("maf", "randomized")
            }
            assert per_policy["maf"] == per_policy["randomized"]

    def test_scale_axis_multiplies_population_and_channels(self):
        classes = make_grid_classes((2, 2), delta_bound=40)
        cfg = SimConfig(classes, channels=1, slots=2000, seed=1, policy="maf", delta_bound=40)
        point = config_at(cfg, "scale", 4)
        assert point.agent_count == 16
        assert point.channels == 4

    def test_agents_axis_splits_proportionally(self):
        classes = make_grid_classes((2, 2), delta_bound=40)
        cfg = SimConfig(classes, channels=1, slots=2000, seed=1, policy="maf", delta_bound=40)
        point = config_at(cfg, "agents", 10)
        assert [c.member_count for c in point.classes] == [5, 5]

    def test_rejects_more_channels_than_agents(self):
        classes = make_grid_classes((2, 2), delta_bound=40)
        cfg = SimConfig(classes, channels=1, slots=2000, seed=1, policy="maf", delta_bound=40)
        with pytest.raises(ValidationError):
            run_sweep(cfg, "channels", [5], policies=["maf"])

    def test_rejects_unknown_axis(self):
        cfg = chain_a_config()
        with pytest.raises(ValidationError):
            run_sweep(cfg, "speed", [1], policies=["maf"])


class TestScaleInvariance:
    def test_relaxed_price_and_bound_per_agent_do_not_depend_on_scale(self):
        # N = 3r fast-class agents share M = r channels. The relaxed problem
        # of one agent does not depend on r, so the search visits the same
        # prices (here through bisection) and the bound per agent is equal.
        base = SimConfig(make_grid_classes((3, 1), delta_bound=60)[:1], channels=1, slots=1000,
                         seed=1, policy="mgf", delta_bound=60)
        found = set()
        for r in (1, 2, 4):
            point = config_at(base, "scale", r)
            system = solve_system(point, with_gains=True)
            bound = dual_lower_bound(list(system.solutions), list(point.classes), point.channels)
            found.add((system.trace.converged, tuple(lam for _, lam, _ in system.trace.iterations),
                       bound / point.agent_count))
        assert len(found) == 1
        converged, lams, _ = found.pop()
        assert converged and len(lams) > 3 and lams[-1] == 0.34375


class TestRecordSerialization:
    def test_csv_header_and_row_layout(self):
        rec = run_simulation(chain_a_config(slots=2000))
        text = records_to_csv([rec])
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "mgf"
        assert fields[1:6] == ["1", "1", "1", "5", "2000"]

    def test_json_mirrors_csv_fields(self):
        rec = run_simulation(chain_a_config(slots=2000))
        (obj,) = records_to_json([rec])
        assert obj["policy"] == "mgf"
        assert obj["N"] == 1 and obj["M"] == 1 and obj["r"] == 1
        assert obj["normalized_penalty"] == rec.normalized_penalty
