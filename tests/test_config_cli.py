import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aoi_guard import cli
from aoi_guard.cli import EXIT_CONVERGENCE, EXIT_IO, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main
from aoi_guard.config import ParseError, load_config
from aoi_guard.errors import ConfigError

REPO = Path(__file__).resolve().parent.parent
GRID20 = REPO / "configs" / "grid20.yaml"
CHAIN_PAIR = REPO / "configs" / "chain_pair.yaml"
GRID400 = REPO / "configs" / "grid400.yaml"


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL = """
name: mini
delta_bound: 250
channels: 1
slots: 2000
seed: 3
policy: maf
classes:
  - name: pair
    members: 2
    success_prob: 0.9
    source:
      type: matrix
      rows:
        - [0.9, 0.1]
        - [0.2, 0.8]
    safety: {type: assignment, labels: [0, 1]}
    loss: {name: zero_one, labels: 2}
"""
PAIR_CLASS = """        - [0.9, 0.1]
        - [0.2, 0.8]
    safety: {type: assignment, labels: [0, 1]}
    loss: {name: zero_one, labels: 2}"""


class TestLoadConfig:
    def test_grid20_manifest(self):
        manifest = load_config(GRID20)
        sim = manifest.sim
        assert sim.agent_count == 20
        assert sim.channels == 2
        assert all(c.success_prob == 0.95 for c in sim.classes)
        assert sim.classes[0].loss.entries[2, 0] == 1000  # safety-example loss
        assert manifest.run_all
        assert manifest.replications == 20
        assert sim.delta_bound == 250
        assert manifest.sweep_axis == "channels"

    def test_retired_solver_keys_still_load(self, tmp_path):
        # tol and max_iters tuned the old value iteration; beta, eval_horizon
        # and outer_iters the old stochastic price search. Configs that still
        # carry them load and are solved exactly as configs without them.
        text = MINIMAL.replace("policy: maf", "policy: mgf")
        plain = load_config(write_config(tmp_path, text, "plain.yaml"))
        ref = cli.solve_system(plain.sim, with_gains=True)
        block = "{tol: 1.0e-10, max_iters: 2, beta: 0.2, eval_horizon: 500, outer_iters: 3}"
        retired = load_config(write_config(tmp_path, text + f"\nsolver: {block}\n", "retired.yaml"))
        assert not hasattr(retired, "solver")
        system = cli.solve_system(retired.sim, with_gains=True)
        assert system.lambda_star == ref.lambda_star
        assert system.trace.iterations == ref.trace.iterations
        assert np.array_equal(system.solutions[0].gain, ref.solutions[0].gain, equal_nan=True)

    def test_digest_matches_file_bytes(self):
        manifest = load_config(CHAIN_PAIR)
        assert manifest.digest == hashlib.sha256(CHAIN_PAIR.read_bytes()).hexdigest()

    def test_grid400_builds_full_state_space(self):
        manifest = load_config(GRID400)
        cls = manifest.sim.classes[0]
        assert cls.source.state_count == 400
        # bands apply to grid rows: first 6 rows of 20 cells are safe
        assert list(cls.safety.assignment[: 6 * 20]) == [0] * 120
        assert list(cls.safety.assignment[13 * 20 :]) == [2] * 140
        row_sums = cls.source.transition.sum(axis=1)
        assert float(np.abs(row_sums - 1.0).max()) < 1e-12

    def test_non_stochastic_row_named(self, tmp_path):
        bad = MINIMAL.replace("[0.9, 0.1]", "[0.9, 0.09]")
        with pytest.raises(ConfigError, match=r"classes\[0\].source"):
            load_config(write_config(tmp_path, bad))

    def test_missing_policy_lists_valid_values(self, tmp_path):
        bad = MINIMAL.replace("policy: maf\n", "")
        with pytest.raises(ConfigError, match="mgf, randomized, random_queue, maf"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_policy_rejected(self, tmp_path):
        bad = MINIMAL.replace("policy: maf", "policy: greedy")
        with pytest.raises(ConfigError, match="greedy"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_loss_rejected(self, tmp_path):
        bad = MINIMAL.replace("zero_one", "hinge")
        with pytest.raises(ConfigError, match="hinge"):
            load_config(write_config(tmp_path, bad))

    def test_bad_yaml_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(write_config(tmp_path, "classes: [unclosed"))

    def test_non_mapping_top_level(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(write_config(tmp_path, "- just\n- a list\n"))

    def test_grid2d_source_builds(self, tmp_path):
        cfg = """
name: grid
channels: 1
slots: 500
policy: maf
delta_bound: 20
classes:
  - name: roam
    members: 2
    source: {type: grid2d, rows: 4, cols: 5, up: 0.2, down: 0.2, left: 0.2, right: 0.2}
    safety: {type: bands, edges: [2]}
    loss: {name: zero_one, labels: 2}
"""
        manifest = load_config(write_config(tmp_path, cfg))
        cls = manifest.sim.classes[0]
        assert cls.source.state_count == 20
        assert list(cls.safety.assignment[:5]) == [0] * 5
        assert list(cls.safety.assignment[10:]) == [1] * 10


class TestCliCommands:
    def test_simulate_writes_stamped_csv(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "records.csv"
        rc = main(["simulate", "--config", str(cfg), "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        manifest = load_config(cfg)
        assert lines[0].startswith("# aoi-guard ")
        assert lines[1] == f"# config_digest={manifest.digest}"
        assert lines[2] == "policy,N,M,r,seed,slots,total_loss,normalized_penalty,activation_rate,mean_aoi"
        assert lines[3].startswith("maf,2,1,1,3,2000,")

    def test_simulate_json_wrapper(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "records"
        rc = main(["simulate", "--config", str(cfg), "--output", str(out), "--format", "json"])
        assert rc == 0
        body = json.loads((tmp_path / "records.json").read_text())
        assert set(body) == {"version", "config_digest", "records"}
        assert body["records"][0]["policy"] == "maf"

    def test_solve_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL.replace("policy: maf", "policy: mgf"))
        out = tmp_path / "solve"
        rc = main(["solve", "--config", str(cfg), "--output", str(out)])
        assert rc == 0
        table = (out / "tables_0_pair.csv").read_text().splitlines()
        assert table[2] == "delta,x,q,f,alpha"
        assert len(table) == 3 + 250 * 2  # delta_bound x states
        first = table[3].split(",")
        assert first[:2] == ["1", "0"]
        assert float(first[2]) == pytest.approx(0.1)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["lambda_star"] >= 0.0
        assert "pair" in summary["avg_costs"]
        trace = (out / "dual_trace.csv").read_text().splitlines()
        assert trace[2] == "iteration,lambda,activation_rate"

    def test_profile_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL.replace("policy: maf", "policy: mgf"))
        out = tmp_path / "prof"
        rc = main(["profile", "--config", str(cfg), "--output", str(out), "--deltas", "1,5"])
        assert rc == 0
        body = (out / "profile_0_pair.csv").read_text().splitlines()
        assert body[2] == "delta,x,q,alpha"
        assert len(body) == 3 + 2 * 2
        summary = json.loads((out / "profile_summary.json").read_text())
        assert set(summary["classes"]["pair"]) == {"1", "5"}

    def test_policy_all_prints_one_summary_line_per_policy(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL.replace("slots: 2000", "slots: 1200"))
        out = tmp_path / "all.csv"
        rc = main(["simulate", "--config", str(cfg), "--output", str(out), "--policy", "all"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "mean normalized penalty" in l]
        assert sorted(l.split(":")[0] for l in lines) == ["maf", "mgf", "random_queue", "randomized"]
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith(("#", "policy"))]
        assert len(rows) == 4

    def test_frozen_source_solves_to_zero_tables(self, tmp_path):
        frozen = """
name: frozen
delta_bound: 60
channels: 1
slots: 500
policy: mgf
classes:
  - name: ice
    members: 2
    source:
      type: matrix
      rows:
        - [1.0, 0.0]
        - [0.0, 1.0]
    safety: {type: assignment, labels: [0, 1]}
    loss: {name: zero_one, labels: 2}
"""
        cfg = write_config(tmp_path, frozen)
        out = tmp_path / "solve"
        assert main(["solve", "--config", str(cfg), "--output", str(out)]) == 0
        rows = (out / "tables_0_ice.csv").read_text().splitlines()[3:]
        assert all(float(r.split(",")[2]) == 0.0 for r in rows)
        summary = json.loads((out / "summary.json").read_text())
        # a frozen source never fills the budget, so the dual search reports
        # the unmet band honestly
        assert summary["converged"] is False
        assert summary["avg_costs"]["ice"] == 0.0
        prof = tmp_path / "prof"
        assert main(["profile", "--config", str(cfg), "--output", str(prof), "--deltas", "1,5"]) == 0
        prows = (prof / "profile_0_ice.csv").read_text().splitlines()[3:]
        assert all(float(r.split(",")[2]) == 0.0 for r in prows)

    def test_simulate_warns_once_when_dual_search_unconverged(self, tmp_path, monkeypatch, capsys):
        # chain_pair sends its one agent every slot at price 0: rate 1.0 = M.
        ok = tmp_path / "ok.csv"
        assert main(["simulate", "--config", str(CHAIN_PAIR), "--slots", "2000", "--output", str(ok)]) == 0
        assert capsys.readouterr().err == ""
        system = cli.solve_system(load_config(CHAIN_PAIR).sim, with_gains=True)
        assert system.trace.iterations == [(1, 0.0, 1.0)] and system.trace.converged

        # Two agents on one channel: the exact relaxed rate jumps from about
        # 1.06 to 0.82 across the +/-5% band, so no price lands in it and the
        # search returns its closest probe.
        cfg = write_config(tmp_path, MINIMAL.replace("policy: maf", "policy: mgf"))
        warned = tmp_path / "warned.csv"
        assert main(["simulate", "--config", str(cfg), "--output", str(warned)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: dual price search did not converge")
        system = cli.solve_system(load_config(cfg).sim, with_gains=True)
        assert not system.trace.converged and system.lambda_star == 0.125
        rate = [r for _, lam, r in system.trace.iterations if lam == system.lambda_star][-1]
        assert rate == pytest.approx(1.0614, abs=1e-4)
        assert f"rate {rate!r} at lambda={system.lambda_star!r} against M=1 " in err[0]
        assert not any(abs(r - 1.0) <= 0.05 for _, _, r in system.trace.iterations)

        solve = cli.solve_system

        def unconverged(*args, **kwargs):
            system = solve(*args, **kwargs)
            system.trace.converged = False
            return system

        monkeypatch.setattr(cli, "solve_system", unconverged)
        forced = tmp_path / "forced.csv"
        assert main(["simulate", "--config", str(CHAIN_PAIR), "--slots", "2000", "--output", str(forced)]) == 0
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert forced.read_bytes() == ok.read_bytes()

    def test_sweep_requires_sweep_section(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        assert main(["sweep", "--config", str(cfg)]) == EXIT_VALIDATION

    def test_sweep_runs_from_config(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL + "\nsweep: {axis: channels, values: [1, 2]}\n")
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--config", str(cfg), "--output", str(out)])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith(("#", "policy"))]
        assert len(rows) == 2  # one policy x two channel counts x one seed

    def test_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "r.csv"
        rc = main(["simulate", "--config", str(cfg), "--output", str(out),
                   "--seed", "9", "--slots", "1500", "--policy", "randomized"])
        assert rc == 0
        row = [l for l in out.read_text().splitlines() if l.startswith("randomized")][0]
        assert row.split(",")[4:6] == ["9", "1500"]


class TestExitCodes:
    def test_parse_error(self, tmp_path):
        cfg = write_config(tmp_path, "policy: [unterminated")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_PARSE

    def test_validation_error(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL.replace("channels: 1", "channels: 0"))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_VALIDATION

    def test_bad_profile_deltas(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        assert main(["profile", "--config", str(cfg), "--deltas", "1,x"]) == EXIT_VALIDATION

    def test_negative_seed(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        assert main(["simulate", "--config", str(cfg), "--seed", "-1"]) == EXIT_VALIDATION

    def test_internal_errors_are_not_validation_errors(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise IndexError("index 7 is out of bounds")

        monkeypatch.setattr(cli, "run_paired", broken)
        cfg = write_config(tmp_path, MINIMAL)
        with pytest.raises(IndexError):
            main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "r.csv")])

    def test_convergence_error(self, tmp_path, capsys):
        # Two closed copies of a two-state chain that differ in their rows:
        # an agent's average cost depends on the copy it starts in, so the
        # class MDP has no single one, and the solve fails at its first
        # price instead of iterating.
        split = MINIMAL.replace("policy: maf", "policy: mgf").replace(
            PAIR_CLASS,
            """        - [0.9, 0.1, 0.0, 0.0]
        - [0.2, 0.8, 0.0, 0.0]
        - [0.0, 0.0, 0.5, 0.5]
        - [0.0, 0.0, 0.3, 0.7]
    safety: {type: assignment, labels: [0, 1, 2, 3]}
    loss: {name: zero_one, labels: 4}""",
        )
        cfg = write_config(tmp_path, split)
        out = tmp_path / "s"
        assert main(["solve", "--config", str(cfg), "--output", str(out)]) == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert "policy iteration on pair at lambda=0.0" in err and "more than one stationary law" in err
        assert not out.exists()

    def test_tiny_age_bound_with_reliable_channel_solves(self, tmp_path):
        # Age bound 2 and p = 1: the price search crosses the hold of the
        # observation with the least saturated penalty.
        cfg = write_config(
            tmp_path,
            MINIMAL.replace("policy: maf", "policy: mgf")
            .replace("delta_bound: 250", "delta_bound: 2")
            .replace("members: 2", "members: 3")
            .replace("success_prob: 0.9", "success_prob: 1.0"),
        )
        out = tmp_path / "s"
        assert main(["solve", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
        # Each agent either sends every slot or holds observation 0 at the
        # bound for good (average cost q(2, 0) = 0.17), so the relaxed rate
        # jumps from 3 to 0 and the search returns its closest probe.
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is False and summary["lambda_star"] == 1.0
        assert summary["avg_costs"]["pair"] == pytest.approx(0.17, abs=1e-12)
        trace = (out / "dual_trace.csv").read_text().splitlines()[3:]
        assert {float(row.split(",")[2]) for row in trace} == {0.0, 3.0}

    def test_ambiguous_relaxed_rate_is_a_convergence_error(self, tmp_path, capsys):
        # Two closed copies of the pair chain, told apart by their labels:
        # both copies cost the same, but an agent's renewals never leave the
        # copy it starts in, so its long-run behaviour is not unique.
        split = MINIMAL.replace("policy: maf", "policy: mgf").replace(
            PAIR_CLASS,
            """        - [0.9, 0.1, 0.0, 0.0]
        - [0.2, 0.8, 0.0, 0.0]
        - [0.0, 0.0, 0.9, 0.1]
        - [0.0, 0.0, 0.2, 0.8]
    safety: {type: assignment, labels: [0, 1, 2, 3]}
    loss: {name: zero_one, labels: 4}""",
        )
        cfg = write_config(tmp_path, split)
        assert main(["solve", "--config", str(cfg), "--output", str(tmp_path / "s")]) == EXIT_CONVERGENCE
        assert "more than one stationary law" in capsys.readouterr().err

    def test_io_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cfg = write_config(tmp_path, MINIMAL)
        rc = main(["simulate", "--config", str(cfg), "--output", str(blocker / "sub" / "x.csv")])
        assert rc == EXIT_IO

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aoi_guard.cli", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "aoi-guard" in proc.stdout
