import hashlib
import json
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

import aoi_guard.simulate as simulate
from aoi_guard import (
    AgentClassSpec,
    MarkovSource,
    SimConfig,
    ValidationError,
    loss_01,
    run_paired,
    run_sweep,
    dual_lower_bound,
    solve_system,
)
from aoi_guard.cli import _report
from aoi_guard.config import RunManifest, load_config
from aoi_guard.policies import POLICY_KEYS
from aoi_guard.simulate import SolvedSystem, config_at
from aoi_guard.tables import build_tables

from conftest import CHAIN_A_MATRIX, identity_safety_map, make_grid_classes
from oracles import ReferenceWorld, _uniform_subset, reference_records


def chain_a_config(**kw):
    src = MarkovSource(CHAIN_A_MATRIX, name="chain_a")
    cls = AgentClassSpec(src, identity_safety_map(2), loss_01(2),
                         success_prob=kw.pop("success_prob", 1.0), member_count=kw.pop("members", 1))
    defaults = dict(channels=1, slots=20_000, seed=5, delta_bound=100)
    defaults.update(kw)
    return SimConfig((cls,), **defaults)


def run_one(cfg, policy="mgf", system=None):
    """One policy's record on the config's seed; solves the tables (and MGF's gains) if not given."""
    if system is None:
        system = solve_system(cfg, with_gains=policy == "mgf")
    return run_paired(cfg, [policy], system, cfg.seed)[0]


class TestAdvanceAoi:
    """Age recursion: reset on a delivered pull, grow by one otherwise."""

    def test_delivered_pull_resets(self):
        # One agent pulled every slot over a reliable channel.
        rec = run_one(chain_a_config(slots=500), "randomized")
        assert rec.agent_mean_aoi == (1.0,)

    def test_erased_pull_grows(self):
        # Pulled every slot; the age after slot t is 1 if slot t-1's packet
        # survived the channel and one more than before otherwise.
        cfg = chain_a_config(success_prob=0.6, slots=3000, warmup=0)
        rec = run_one(cfg, "randomized")
        ok = ReferenceWorld(cfg, cfg.seed).channel_ok[:, 0]
        age, total = 1, 1
        for t in range(1, cfg.slots):
            age = 1 if ok[t - 1] else age + 1
            total += age
        assert rec.agent_mean_aoi == (total / cfg.slots,)
        assert rec.mean_aoi > 1.2

    def test_idle_grows(self):
        # Two reliable agents, one channel, MAF: each is pulled every other
        # slot, so from slot 1 on each age alternates 1, 2.
        rec = run_one(chain_a_config(members=2, slots=401, warmup=1), "maf")
        assert rec.agent_mean_aoi == (1.5, 1.5)


class TestRunSimulation:
    def test_frozen_world_is_free_for_every_policy(self):
        frozen = MarkovSource(np.eye(3), name="frozen")
        cls = AgentClassSpec(frozen, identity_safety_map(3), loss_01(3), 0.9, 4)
        cfg = SimConfig((cls,), channels=2, slots=4000, seed=2, delta_bound=50)
        system = solve_system(cfg, with_gains=True)
        for rec in run_paired(cfg, ["mgf", "maf", "randomized", "random_queue"], system, 2):
            assert rec.normalized_penalty == 0.0

    def test_chain_a_matches_bandit_closed_form(self):
        cfg = chain_a_config(slots=200_000)
        rec = run_one(cfg)
        assert rec.normalized_penalty == pytest.approx(2 / 15, abs=0.004)

    def test_reliable_always_pulled_agent_has_unit_age(self):
        rec = run_one(chain_a_config())
        assert rec.mean_aoi == 1.0
        assert rec.activation_rate == 1.0

    def test_bit_for_bit_reproducibility(self):
        cfg = chain_a_config(success_prob=0.7, slots=5000)
        system = solve_system(cfg, with_gains=True)
        assert run_one(cfg, "mgf", system) == run_one(cfg, "mgf", system)

    def test_budget_respected(self):
        classes = make_grid_classes((3, 3))
        cfg = SimConfig(classes, channels=2, slots=3000, seed=7, delta_bound=60)
        rec = run_one(cfg, "maf")
        assert rec.activation_rate <= 2.0

    def test_over_budget_selection_is_an_internal_error(self, monkeypatch):
        # The channel check is a raise, not an assert, so python -O keeps it.
        # MGF and MAF select through one call whichever of them run; the
        # kernel here picks every agent on the last row only (the last
        # policy's, with one lane), so the check must name that row.
        select = simulate.top_positive_ids

        def over_last_row(keys, budget, out, scratch):
            mask = select(keys, budget, out, scratch)
            mask[-1] = True
            return mask

        monkeypatch.setattr(simulate, "top_positive_ids", over_last_row)
        cfg = chain_a_config(members=3, slots=100)
        system = solve_system(cfg, with_gains=True)
        for policies in (["maf"], ["mgf"], ["mgf", "maf"]):
            with pytest.raises(RuntimeError, match=f"^{policies[-1]} selected 3 agents with 1 channels$"):
                run_paired(cfg, policies, system, 1)

    def test_over_budget_random_picks_are_an_internal_error(self, monkeypatch):
        # The oblivious rows' picks are drawn per chunk before any slot is
        # stepped; the same channel check covers them and names the row.
        monkeypatch.setattr(simulate, "uniform_subset", lambda u, count: np.ones((len(u), count), dtype=bool))
        cfg = chain_a_config(members=3, slots=100)
        system = solve_system(cfg, with_gains=False)
        for policies in (["randomized"], ["random_queue", "randomized"]):
            with pytest.raises(RuntimeError, match="^randomized selected 3 agents with 1 channels$"):
                run_paired(cfg, policies, system, 1)

    def test_slot_loops_go_through_the_traced_names(self, monkeypatch):
        # perfbench times the slot loop and kernels, and the world initial
        # law, by wrapping these module attributes; the loop's third
        # positional argument names the policies it steps, joined by "+".
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(args[2] if name == "_run_policy" else name)
                return fn(*args)
            monkeypatch.setattr(simulate, name, wrapper)

        def tally():
            tallied = {c: calls.count(c) for c in set(calls)}
            calls.clear()
            return tallied

        for name in ("_run_policy", "top_positive_ids", "top_ids", "uniform_subset", "is_primitive",
                     "stationary_distribution"):
            counted(name, getattr(simulate, name))
        cfg = chain_a_config(members=2, slots=300)
        system = solve_system(cfg, with_gains=True)
        run_paired(cfg, ["maf", "random_queue", "mgf", "randomized"], system, 5, replications=3)
        assert tally() == {
            "mgf+maf+randomized+random_queue": 2,  # one loop call per 256-slot chunk
            "top_positive_ids": 300,  # MGF and MAF together, once per slot
            "uniform_subset": 2,  # both random policies' picks, once per chunk
            "is_primitive": 1, "stationary_distribution": 1,  # the class's initial law, once per call
        }
        for policy in ("mgf", "maf"):
            run_paired(cfg, [policy], system, 5, replications=3)
        assert tally() == {
            "mgf": 2, "maf": 2, "top_positive_ids": 600,  # one call per slot whichever of them runs
            "is_primitive": 2, "stationary_distribution": 2,
        }

    def test_age_bound_comes_from_the_tables(self, grid_config, grid_system):
        # The system is solved at D = 250; the config's delta_bound only tells
        # solve_system how to build tables, so the run and the oracle read D
        # from them.
        cfg = replace(grid_config, slots=2000, warmup=None)
        matched = run_paired(cfg, ["mgf", "maf"], grid_system, 1)
        mismatched = replace(cfg, delta_bound=5)
        assert run_paired(mismatched, ["mgf", "maf"], grid_system, 1) == matched
        want = reference_records(mismatched, ["mgf", "maf"], grid_system, 1)
        assert [astuple(r) for r in matched] == want

    def test_system_solved_for_other_classes_is_an_error(self, grid_system):
        with pytest.raises(ValidationError, match=r"cover \[20, 20\] states per class; the config's classes have \[2\]"):
            run_paired(chain_a_config(slots=100), ["mgf", "maf"], grid_system, 1)
        three = SimConfig((AgentClassSpec(MarkovSource(np.full((3, 3), 1 / 3)), identity_safety_map(3), loss_01(3)),),
                          channels=1, slots=100)
        with pytest.raises(ValidationError, match=r"cover \[2\] states per class; the config's classes have \[3\]"):
            run_paired(three, ["maf"], solve_system(chain_a_config(slots=100), with_gains=False), 1)

    def test_tables_of_different_age_bounds_are_an_error(self):
        # solve_system builds every class's tables at one D; a system built by
        # hand at D = 40 for the fast class and D = 200 for the drift class
        # must not run with the shorter table padded.
        cfg = SimConfig(make_grid_classes(), channels=1, slots=3000, seed=1)
        built = [build_tables(c, d) for c, d in zip(cfg.classes, (40, 200))]
        system = SolvedSystem(tuple(b[0] for b in built), tuple(b[1] for b in built))
        with pytest.raises(ValidationError, match=r"\[41, 201\] age rows per class"):
            run_paired(cfg, ["randomized"], system, 1)

    def test_gain_tables_of_another_age_bound_are_an_error(self):
        # MGF reads its gains at the estimator's (age, key) cells: solutions
        # solved at a larger D would run on ages the estimator never reaches,
        # and at a smaller D would be indexed past their last row.
        cfg = SimConfig(make_grid_classes(), channels=1, slots=2000, seed=1, delta_bound=40)
        short, long = (solve_system(replace(cfg, delta_bound=d), with_gains=True) for d in (40, 250))
        for tables, gains, shapes in ((short, long, r"\(251, 40\), the estimators \(41, 40\)$"),
                                      (long, short, r"\(41, 40\), the estimators \(251, 40\)$")):
            system = SolvedSystem(tables.penalties, tables.estimators, gains.solutions)
            with pytest.raises(ValidationError, match=r"^gain tables have \(age, key\) shape " + shapes):
                run_paired(cfg, ["mgf"], system, 1)

    def test_mgf_without_solutions_is_an_error(self):
        cfg = chain_a_config()
        tables_only = solve_system(cfg, with_gains=False)
        with pytest.raises(ValidationError, match="gain"):
            run_one(cfg, "mgf", tables_only)

    def test_erasures_slow_the_resets(self):
        lossy = run_one(chain_a_config(success_prob=0.5, slots=30_000), "maf")
        clean = run_one(chain_a_config(slots=30_000), "maf")
        assert lossy.deliveries < clean.deliveries
        assert lossy.mean_aoi > clean.mean_aoi

    def test_queue_policy_serves_stale_packets(self):
        classes = make_grid_classes((2, 2))
        cfg = SimConfig(classes, channels=1, slots=8000, seed=3, delta_bound=60)
        system = solve_system(cfg, with_gains=False)
        fresh, stale = run_paired(cfg, ["randomized", "random_queue"], system, 3)
        assert stale.mean_aoi > fresh.mean_aoi
        assert stale.normalized_penalty > fresh.normalized_penalty

    def test_config_validation(self, monkeypatch):
        with pytest.raises(ValidationError):
            chain_a_config(channels=0)
        with pytest.raises(ValidationError):
            chain_a_config(slots=100, warmup=100)
        with pytest.raises(ValidationError, match="below 2\\*\\*31"):
            chain_a_config(slots=2**31)
        # The horizon is checked before the warmup is derived from it, so the
        # message names no warmup that was never set.
        for slots in (0, -5):
            with pytest.raises(ValidationError, match=f"^slots must be >= 1, got {slots}$"):
                chain_a_config(slots=slots)
        # Policy names are checked on entry, before any of the world is drawn.
        cfg = chain_a_config(slots=100)
        system = solve_system(cfg, with_gains=False)

        def no_world(*args):
            raise AssertionError("the world was drawn")

        monkeypatch.setattr(simulate, "_WorldStream", no_world)
        with pytest.raises(ValidationError, match="noop"):
            run_paired(cfg, ["maf", "noop"], system, 1)

    def test_heterogeneous_state_counts(self):
        # Classes whose chains differ in size must pad cleanly end to end.
        small = AgentClassSpec(
            MarkovSource(CHAIN_A_MATRIX, name="small"),
            identity_safety_map(2), loss_01(2), 0.9, 2, name="small",
        )
        big_p = np.full((5, 5), 0.2)
        big = AgentClassSpec(
            MarkovSource(big_p, name="big"),
            identity_safety_map(5), loss_01(5), 0.8, 3, name="big",
        )
        cfg = SimConfig((small, big), channels=2, slots=4000, seed=13, delta_bound=50)
        system = solve_system(cfg, with_gains=True)
        for rec in run_paired(cfg, ["mgf", "maf", "randomized", "random_queue"], system, 13):
            assert rec.activation_rate <= 2.0
            assert np.isfinite(rec.normalized_penalty)

    def test_decoupled_system_matches_per_agent_optimum(self):
        # M = N with reliable channels: every agent can transmit every slot,
        # so MGF attains the sum of the single-agent optima (0.1333 each).
        cfg = chain_a_config(members=3, channels=3, slots=60_000)
        rec = run_one(cfg)
        assert rec.normalized_penalty == pytest.approx(2 / 15, abs=0.01)
        assert rec.activation_rate == pytest.approx(3.0)


class TestChunking:
    """A lane's records do not depend on how the horizon is cut into chunks."""

    @pytest.mark.parametrize("chunk", [1, 7, 256, 1000])
    def test_records_do_not_depend_on_the_chunk_length(self, monkeypatch, chunk):
        # One-slot chunks carry every row's state across a chunk boundary
        # at every slot and make each scan a single step; a queue capacity
        # of 40 makes random_queue drop packets across chunk boundaries.
        cfg = SimConfig(make_grid_classes((3, 3)), channels=2, slots=600, seed=4, delta_bound=40)
        system = solve_system(cfg, with_gains=True)
        monkeypatch.setattr(simulate, "QUEUE_CAPACITY", 40)
        want = run_paired(cfg, POLICY_KEYS, system, cfg.seed, replications=2)
        monkeypatch.setattr(simulate, "CHUNK_SLOTS", chunk)
        assert run_paired(cfg, POLICY_KEYS, system, cfg.seed, replications=2) == want

    def test_observations_older_than_the_window_are_carried(self, monkeypatch):
        # 30 agents share one channel that delivers 10% of packets, so an
        # agent often goes a whole chunk without a delivery: its stamp is
        # then older than the one-slot window of a run without random_queue
        # when the next chunk starts, and its observation must come from the
        # carried key. The replayed picks show such an agent for every policy
        # that picks fresh packets: the random ones from the policy stream,
        # MGF's and MAF's from the selection calls of one run. The source
        # mixes slowly, so an estimate reads the observation for some 15
        # slots of age: at this seed, randomized's, MGF's and MAF's records
        # each change if their row's carry is dropped.
        slow = MarkovSource([[0.97, 0.03], [0.06, 0.94]], name="slow")
        cls = AgentClassSpec(slow, identity_safety_map(2), loss_01(2), success_prob=0.1, member_count=30)
        cfg = SimConfig((cls,), channels=1, slots=600, seed=62, delta_bound=100)
        system = solve_system(cfg, with_gains=True)
        world = ReferenceWorld(cfg, cfg.seed)
        rng = np.random.default_rng(world.policy_seq)
        picks = {"randomized": np.zeros((cfg.slots, 30), dtype=bool)}
        for t in range(cfg.slots):
            picks["randomized"][t, _uniform_subset(30, cfg.channels, rng)] = True
        select, masks = simulate.top_positive_ids, []

        def recorded(keys, budget, out, scratch):
            masks.append(select(keys, budget, out, scratch).copy())
            return out

        with monkeypatch.context() as patch:
            patch.setattr(simulate, "top_positive_ids", recorded)
            run_paired(cfg, ["mgf", "maf"], system, cfg.seed)
        picks["mgf"], picks["maf"] = np.array(masks).transpose(1, 0, 2)  # one lane: rows are the policies
        chunk = simulate.CHUNK_SLOTS
        for policy, picked in picks.items():
            landed = picked & world.channel_ok
            assert (landed[: chunk - 1].any(axis=0) & ~landed[chunk - 1 : 2 * chunk].any(axis=0)).any(), policy
        for policies in (["randomized"], ["randomized", "random_queue"], ["maf"], ["mgf"], ["mgf", "maf"]):
            got = run_paired(cfg, policies, system, cfg.seed)
            assert [astuple(r) for r in got] == reference_records(cfg, policies, system, cfg.seed)


class TestRunSweep:
    def test_record_grid_shape_and_pairing(self):
        classes = make_grid_classes((2, 2))
        cfg = SimConfig(classes, channels=1, slots=2000, seed=11, delta_bound=40)
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
        classes = make_grid_classes((2, 2))
        cfg = SimConfig(classes, channels=1, slots=2000, seed=1, delta_bound=40)
        point = config_at(cfg, "scale", 4)
        assert point.agent_count == 16
        assert point.channels == 4

    def test_agents_axis_splits_proportionally(self):
        classes = make_grid_classes((2, 2))
        cfg = SimConfig(classes, channels=1, slots=2000, seed=1, delta_bound=40)
        point = config_at(cfg, "agents", 10)
        assert [c.member_count for c in point.classes] == [5, 5]

    def test_rejects_more_channels_than_agents(self):
        classes = make_grid_classes((2, 2))
        cfg = SimConfig(classes, channels=1, slots=2000, seed=1, delta_bound=40)
        with pytest.raises(ValidationError):
            run_sweep(cfg, "channels", [5], policies=["maf"])

    def test_rejects_unknown_axis(self):
        cfg = chain_a_config()
        with pytest.raises(ValidationError):
            run_sweep(cfg, "speed", [1], policies=["maf"])

    def test_rejects_zero_replications_before_any_solve(self, monkeypatch):
        solves = []
        monkeypatch.setattr(simulate, "solve_system", lambda *args, **kwargs: solves.append(args))
        with pytest.raises(ValidationError, match="replications must be >= 1, got 0"):
            run_sweep(chain_a_config(), "channels", [1, 1], policies=["maf"], replications=0)
        assert solves == []


def write_records(tmp_path, cfg, records, fmt):
    """The records as the CLI writes them, in `fmt`; a CSV starts with two stamp lines."""
    manifest = RunManifest(sim=cfg, policies=("mgf",), replications=1,
                           sweep_axis=None, sweep_values=None, digest="0" * 64,
                           path=Path("chain_a.yaml"), name="chain_a")
    out = tmp_path / f"records.{fmt}"
    _report(manifest, records, "records", out, fmt)
    return out.read_text()


class TestRecordSerialization:
    def test_csv_header_and_row_layout(self, tmp_path):
        cfg = chain_a_config(slots=2000)
        rec = run_one(cfg)
        lines = write_records(tmp_path, cfg, [rec], "csv").strip().split("\n")[2:]
        assert lines[0] == "policy,N,M,r,seed,slots,total_loss,normalized_penalty,activation_rate,mean_aoi"
        fields = lines[1].split(",")
        assert fields[0] == "mgf"
        assert fields[1:6] == ["1", "1", "1", "5", "2000"]

    def test_json_mirrors_csv_fields(self, tmp_path):
        cfg = chain_a_config(slots=2000)
        rec = run_one(cfg)
        (obj,) = json.loads(write_records(tmp_path, cfg, [rec], "json"))["records"]
        assert obj["policy"] == "mgf"
        assert obj["N"] == 1 and obj["M"] == 1 and obj["r"] == 1
        assert obj["normalized_penalty"] == rec.normalized_penalty


class TestScaleInvariance:
    def test_relaxed_price_and_bound_per_agent_do_not_depend_on_scale(self):
        # N = 3r fast-class agents share M = r channels. The relaxed problem
        # of one agent does not depend on r, so the search visits the same
        # prices (here through supporting-line steps) and the bound per agent
        # is equal.
        base = SimConfig(make_grid_classes((3, 1))[:1], channels=1, slots=1000,
                         seed=1, delta_bound=60)
        found = set()
        for r in (1, 2, 4):
            point = config_at(base, "scale", r)
            system = solve_system(point, with_gains=True)
            bound = dual_lower_bound(list(system.solutions), list(point.classes), point.channels)
            found.add((system.trace.converged, tuple(lam for _, lam, _ in system.trace.iterations),
                       bound / point.agent_count))
        assert len(found) == 1
        converged, lams, _ = found.pop()
        assert converged and len(lams) > 3 and lams[-1] == pytest.approx(0.36842149, abs=1e-8)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestRecordsPinned:
    """The records of two short runs, pinned by the sha256 of their field values.

    A refactor or speed-up of the simulator leaves these digests as they are;
    a change that means to move the numbers (a new policy rule, a new world
    draw) updates them and says why.
    """

    @pytest.mark.parametrize("config, policies, size, replications, digest", [
        ("grid20.yaml", POLICY_KEYS, {"slots": 1000}, 2,
         "d1d44b50ab444d9d3725eb69ac7193612b82d24524f9e8f459fdba3e7e347556"),
        ("grid400.yaml", ("mgf",), {"slots": 2000, "delta_bound": 40}, 1,
         "d8bab835d5bdad2e16b017d04ba68a27824069c376525a6e5090d90a6e15bcf5"),
    ])
    def test_records_digest(self, config, policies, size, replications, digest):
        cfg = replace(load_config(CONFIGS / config).sim, warmup=None, **size)
        system = solve_system(cfg, with_gains="mgf" in policies)
        records = run_paired(cfg, policies, system, cfg.seed, replications=replications)
        assert hashlib.sha256(repr([astuple(r) for r in records]).encode()).hexdigest() == digest
