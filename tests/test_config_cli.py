import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from aoi_guard import AgentClassSpec, SimConfig, __version__, banded_safety_map, bandit, cli, markov, simulate
from aoi_guard.cli import EXIT_CONVERGENCE, EXIT_IO, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, RECORD_COLUMNS, main
from aoi_guard.config import ParseError, load_config
from aoi_guard.errors import ConfigError
from aoi_guard.loss import LossMatrix, loss_quadratic
from aoi_guard.policies import POLICY_KEYS
from aoi_guard.simulate import run_paired

REPO = Path(__file__).resolve().parent.parent
RECORD_HEADER = "policy,N,M,r,seed,slots,total_loss,normalized_penalty,activation_rate,mean_aoi"
GRID20 = REPO / "configs" / "grid20.yaml"
CHAIN_PAIR = REPO / "configs" / "chain_pair.yaml"
GRID400 = REPO / "configs" / "grid400.yaml"


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def records_csv(records):
    """The records' CSV body, written independently of the CLI: floats by repr, the rest by str."""
    rows = [[getattr(r, field) for _, field in RECORD_COLUMNS] for r in records]
    return "".join(
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n" for row in rows
    )


def csv_rows(path, header):
    """The cells of a stamped CSV artifact's rows, after checking its header."""
    lines = path.read_text().splitlines()
    assert lines[2] == header, path
    return [line.split(",") for line in lines[3:]]


def count_solves(monkeypatch, owner):
    """Count the calls of `owner.solve_system`, which still runs."""
    calls = []
    real = owner.solve_system

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, "solve_system", counted)
    return calls


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


def one_class(source, safety="{type: bands, edges: [1]}", loss="{name: zero_one, labels: 2}"):
    """A config with one class of two agents on one channel, from its three YAML mappings."""
    return f"""
name: one
channels: 1
slots: 1000
seed: 2
delta_bound: 20
policy: maf
classes:
  - name: c
    members: 2
    source: {source}
    safety: {safety}
    loss: {loss}
"""


TRIO = "{type: matrix, rows: [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]}"
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
        assert manifest.policies == POLICY_KEYS
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

    def test_omitted_keys_take_the_dataclass_defaults(self, tmp_path):
        optional = ("seed:", "delta_bound:", "success_prob:", "members:")
        text = "\n".join(line for line in MINIMAL.splitlines() if not line.strip().startswith(optional))
        sim = load_config(write_config(tmp_path, text)).sim
        sim_defaults = {f.name: f.default for f in fields(SimConfig)}
        assert (sim.seed, sim.delta_bound) == (sim_defaults["seed"], sim_defaults["delta_bound"])
        assert sim.warmup == sim.slots // 10
        class_defaults = {f.name: f.default for f in fields(AgentClassSpec)}
        (cls,) = sim.classes
        assert (cls.success_prob, cls.member_count) == (class_defaults["success_prob"], class_defaults["member_count"])
        # A key that is set is still checked, with the same messages.
        for old, new, message in (
            ("seed: 3", "seed: x", r"\.seed: expected a number, got 'x'"),
            ("delta_bound: 250", "delta_bound: 2.5", r"\.delta_bound: expected an integer, got 2\.5"),
            ("members: 2", "members: 1.5", r"classes\[0\]\.members: expected an integer, got 1\.5"),
            ("success_prob: 0.9", "success_prob: yes", r"classes\[0\]\.success_prob: expected a number, got True"),
        ):
            with pytest.raises(ConfigError, match=message):
                load_config(write_config(tmp_path, MINIMAL.replace(old, new)))

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
        assert cls.safety.assignment.tolist() == banded_safety_map(20, (6, 13), 20).assignment.tolist()
        row_sums = cls.source.transition.sum(axis=1)
        assert float(np.abs(row_sums - 1.0).max()) < 1e-12

    def test_non_stochastic_row_named(self, tmp_path):
        bad = MINIMAL.replace("[0.9, 0.1]", "[0.9, 0.09]")
        with pytest.raises(ConfigError, match=r"classes\[0\].source"):
            load_config(write_config(tmp_path, bad))

    def test_missing_policy_lists_valid_values(self, tmp_path):
        bad = MINIMAL.replace("policy: maf\n", "")
        with pytest.raises(ConfigError, match="mgf, maf, randomized, random_queue"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_policy_rejected(self, tmp_path):
        bad = MINIMAL.replace("policy: maf", "policy: greedy")
        with pytest.raises(ConfigError, match="greedy"):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("loss,expected", [
        ("{rows: [[0, 2, 5], [1, 0, 1], [4, 3, 0]]}", LossMatrix([[0, 2, 5], [1, 0, 1], [4, 3, 0]])),
        ("{name: quadratic, values: [0, 1, 3]}", loss_quadratic([0, 1, 3])),
    ], ids=["rows", "quadratic"])
    def test_loss_formats_build_their_matrices(self, tmp_path, loss, expected):
        text = one_class(TRIO, safety="{type: assignment, labels: [0, 1, 2]}", loss=loss)
        got = load_config(write_config(tmp_path, text)).sim.classes[0].loss
        assert got.entries.tolist() == expected.entries.tolist()

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

    @pytest.mark.parametrize("rows,up,down", [(20, 0.3, 0.3), (20, 0.05, 0.05), (7, 0.1, 0.45), (2, 1.0, 0.0)])
    def test_row_chain_is_the_one_column_grid2d(self, tmp_path, rows, up, down):
        chain = one_class(f"{{type: row_chain, rows: {rows}, up: {up}, down: {down}}}")
        grid = one_class(f"{{type: grid2d, rows: {rows}, cols: 1, up: {up}, down: {down}, left: 0, right: 0}}")
        a = load_config(write_config(tmp_path, chain, "chain.yaml")).sim.classes[0]
        b = load_config(write_config(tmp_path, grid, "grid.yaml")).sim.classes[0]
        assert a.source.transition.tobytes() == b.source.transition.tobytes()
        assert a.safety.assignment.tolist() == b.safety.assignment.tolist()

    @pytest.mark.parametrize("rows,cols,edges", [(4, 5, [2]), (6, 3, [1, 4]), (3, 1, [1, 2])])
    def test_bands_over_a_grid2d_label_its_rows(self, tmp_path, rows, cols, edges):
        source = f"{{type: grid2d, rows: {rows}, cols: {cols}, up: 0.2, down: 0.2, left: 0.2, right: 0.2}}"
        text = one_class(source, safety=f"{{type: bands, edges: {edges}}}", loss=f"{{name: zero_one, labels: {len(edges) + 1}}}")
        safety = load_config(write_config(tmp_path, text)).sim.classes[0].safety
        expected = banded_safety_map(rows, edges, cols)
        assert safety.label_count == expected.label_count
        assert safety.assignment.tolist() == expected.assignment.tolist()

    def test_grid_walk_errors_name_the_source_key(self, tmp_path):
        bad = one_class("{type: grid2d, rows: 3, cols: 3, up: 0.3, down: 0.3, left: 0.3, right: 0.3}")
        with pytest.raises(ConfigError, match=r"classes\[0\]\.source: moves .* sum to at most 1"):
            load_config(write_config(tmp_path, bad))
        single = one_class("{type: grid2d, rows: 1, cols: 1, up: 0.1, down: 0.1, left: 0.1, right: 0.1}")
        with pytest.raises(ConfigError, match=r"classes\[0\]\.source: .*at least 2 cells, got 1x1"):
            load_config(write_config(tmp_path, single))


class TestCliCommands:
    def test_simulate_writes_stamped_csv(self, tmp_path, monkeypatch):
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
        # A run name's dots are kept: the format's suffix is appended to the
        # default name, in the working directory and inside an --output one.
        runs = tmp_path / "runs"
        runs.mkdir()
        monkeypatch.chdir(runs)
        for name, seed, output in (("exp.1", 1, []), ("exp.2", 2, ["--output", str(runs)])):
            text = MINIMAL.replace("name: mini", f"name: {name}").replace("seed: 3", f"seed: {seed}")
            assert main(["simulate", "--config", str(write_config(tmp_path, text))] + output) == 0
        assert sorted(p.name for p in runs.iterdir()) == ["exp.1_records.csv", "exp.2_records.csv"]
        for seed in (1, 2):
            assert (runs / f"exp.{seed}_records.csv").read_text().splitlines()[3].startswith(f"maf,2,1,1,{seed},")

    def test_simulate_json_wrapper(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "records"
        rc = main(["simulate", "--config", str(cfg), "--output", str(out), "--format", "json"])
        assert rc == 0
        body = json.loads((tmp_path / "records.json").read_text())
        assert set(body) == {"version", "config_digest", "records"}
        assert body["records"][0]["policy"] == "maf"
        # An existing directory gets the run's default file name inside it.
        (tmp_path / "dir").mkdir()
        assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "dir"), "--format", "json"]) == 0
        assert json.loads((tmp_path / "dir" / "mini_records.json").read_text()) == body

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

    def test_unnamed_class_is_named_by_its_index(self, tmp_path):
        # Not by its key path, which held the config's directory.
        (tmp_path / "sub").mkdir()
        cfg = write_config(tmp_path / "sub", MINIMAL.replace("  - name: pair\n    members", "  - members"))
        out = tmp_path / "solve"
        assert main(["solve", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["dual_trace.csv", "summary.json", "tables_0_0.csv"]
        assert list(json.loads((out / "summary.json").read_text())["avg_costs"]) == ["0"]

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
        # a frozen source never fills the budget: the rate at price 0 is
        # below M, which is optimal by complementary slackness (a slack stop)
        assert summary["converged"] is True and summary["lambda_star"] == 0.0
        assert (out / "dual_trace.csv").read_text().splitlines()[3:] == ["1,0.0,0.0"]
        assert summary["avg_costs"]["ice"] == 0.0
        prof = tmp_path / "prof"
        assert main(["profile", "--config", str(cfg), "--output", str(prof), "--deltas", "1,5"]) == 0
        prows = (prof / "profile_0_ice.csv").read_text().splitlines()[3:]
        assert all(float(r.split(",")[2]) == 0.0 for r in prows)

    def test_simulate_is_quiet_when_dual_search_stops_at_a_breakpoint(self, tmp_path, capsys):
        # chain_pair sends its one agent every slot at price 0: rate 1.0 = M.
        ok = tmp_path / "ok.csv"
        assert main(["simulate", "--config", str(CHAIN_PAIR), "--slots", "2000", "--output", str(ok)]) == 0
        assert capsys.readouterr().err == ""
        system = cli.solve_system(load_config(CHAIN_PAIR).sim, with_gains=True)
        assert system.trace.iterations == [(1, 0.0, 1.0)] and system.trace.converged

        # Two agents on one channel: the exact relaxed rate jumps from about
        # 1.06 to 0.82 across the +/-5% band, so no price lands in it. The
        # search stops at the breakpoint where the rate jumps, the price that
        # maximizes the dual function, and reports it as converged.
        cfg = write_config(tmp_path, MINIMAL.replace("policy: maf", "policy: mgf"))
        assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "mgf.csv")]) == 0
        assert capsys.readouterr().err == ""
        system = cli.solve_system(load_config(cfg).sim, with_gains=True)
        assert system.trace.converged and len(system.trace.iterations) <= 8
        assert system.lambda_star == pytest.approx(0.16985441, abs=1e-8)
        assert not any(abs(r - 1.0) <= 0.05 for _, _, r in system.trace.iterations)
        rates = [r for _, _, r in system.trace.iterations]
        assert max(r for r in rates if r < 1.0) == pytest.approx(0.8162, abs=1e-4)
        assert min(r for r in rates if r > 1.0) == pytest.approx(1.0614, abs=1e-4)

    @pytest.mark.parametrize("path,sizing", [(GRID20, {}), (GRID400, {"delta_bound": 40, "channels": 8})],
                             ids=["grid20", "grid400"])
    def test_benchmark_configs_stop_inside_the_band(self, path, sizing):
        # The benchmark's grid20 config and its sizing of grid400 must stop
        # with a relaxed rate within +/-5% of M: perfbench counts any other
        # stop as a failed check.
        sim = replace(load_config(path).sim, **sizing)
        system = cli.solve_system(sim, with_gains=True)
        _, lam, rate = system.trace.iterations[-1]
        assert system.trace.converged and lam == system.lambda_star
        assert abs(rate - sim.channels) <= 0.05 * sim.channels

    def test_simulate_past_the_successor_table_budget_exits_3(self, tmp_path, monkeypatch, capsys):
        # MINIMAL's pair chain has the CDF levels 0.2 and 0.9: 2 x 3 cells.
        cfg = write_config(tmp_path, MINIMAL)
        argv = ["simulate", "--config", str(cfg), "--output", str(tmp_path / "r.csv")]
        monkeypatch.setattr(markov, "SUCCESSOR_CELLS", 5)
        assert main(argv) == EXIT_VALIDATION
        assert "class pair: m_c = 2 CDF levels on 2 states" in capsys.readouterr().err
        monkeypatch.setattr(markov, "SUCCESSOR_CELLS", 6)
        assert main(argv) == EXIT_OK

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
        (tmp_path / "dir").mkdir()
        assert main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "dir")]) == 0
        assert (tmp_path / "dir" / "mini_sweep_channels.csv").read_text() == out.read_text()

    @pytest.mark.parametrize("flag", [None, "maf", "all"])
    @pytest.mark.parametrize("config_policy", ["all", "maf"])
    def test_policy_list_from_config_and_flag(self, tmp_path, config_policy, flag):
        # The config's `policy` key and the `--policy` flag go through one
        # parse: 'all' is every policy, a name is that one, and the flag wins.
        text = MINIMAL.replace("policy: maf", f"policy: {config_policy}").replace("slots: 2000", "slots: 600")
        cfg = write_config(tmp_path, text + "replications: 2\n")
        out = tmp_path / "r.csv"
        argv = ["simulate", "--config", str(cfg), "--output", str(out)]
        assert main(argv + (["--policy", flag] if flag else [])) == EXIT_OK
        manifest = load_config(cfg)
        assert manifest.policies == (POLICY_KEYS if config_policy == "all" else ("maf",))
        expected = POLICY_KEYS if (flag or config_policy) == "all" else ("maf",)
        system = cli.solve_system(manifest.sim, with_gains="mgf" in expected)
        records = run_paired(manifest.sim, expected, system, manifest.sim.seed, replications=2)
        records.sort(key=lambda r: (r.policy, r.seed))
        body = "".join(out.read_text().splitlines(keepends=True)[2:])
        assert body == RECORD_HEADER + "\n" + records_csv(records)
        assert len(records) == 2 * len(expected)

    def test_flag_overrides(self, tmp_path, monkeypatch):
        # Callers that wrap `cli.load_config` (the benchmark harness does)
        # read the run's seed, horizon and policies off the object it
        # returned, so the flags must land on that object too.
        loaded = []

        def capture(path):
            loaded.append(load_config(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_config", capture)
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "r.csv"
        rc = main(["simulate", "--config", str(cfg), "--output", str(out),
                   "--seed", "9", "--slots", "1500", "--policy", "randomized"])
        assert rc == 0
        row = [l for l in out.read_text().splitlines() if l.startswith("randomized")][0]
        assert row.split(",")[4:6] == ["9", "1500"]
        (manifest,) = loaded
        assert (manifest.sim.seed, manifest.sim.slots) == (9, 1500)
        assert manifest.policies == ("randomized",)

    def test_every_artifact_is_stamped_and_records_round_trip(self, tmp_path):
        text = MINIMAL.replace("policy: maf", "policy: all").replace("slots: 2000", "slots: 600")
        cfg = write_config(tmp_path, text + "replications: 2\nsweep: {axis: channels, values: [1, 2]}\n")
        out = tmp_path / "out"
        for argv in (["solve"], ["profile", "--deltas", "1,5"], ["simulate"], ["sweep"]):
            for fmt in ("csv", "json") if argv[0] in ("simulate", "sweep") else (None,):
                dest = out / (f"{argv[0]}.{fmt}" if fmt else argv[0])
                extra = ["--format", fmt] if fmt else []
                assert main(argv + ["--config", str(cfg), "--output", str(dest)] + extra) == EXIT_OK
        manifest = load_config(cfg)
        artifacts = sorted(p for p in out.rglob("*") if p.is_file())
        assert len(artifacts) == 3 + 2 + 4  # tables, trace, summary; profile, summary; records
        for path in artifacts:
            if path.suffix == ".json":
                body = json.loads(path.read_text())
                assert list(body)[:2] == ["version", "config_digest"], path
                assert (body["version"], body["config_digest"]) == (__version__, manifest.digest)
            else:
                lines = path.read_text().splitlines()
                assert lines[:2] == [f"# aoi-guard {__version__}", f"# config_digest={manifest.digest}"], path

        system = cli.solve_system(manifest.sim, with_gains=True)
        pen, choices, gain = system.penalties[0].values, system.estimators[0], system.solutions[0].gain
        states = manifest.sim.classes[0].source.state_count

        def cells(rows, column, parse):
            return np.array([parse(row[column]) for row in rows])

        # Tables: one row per (age 1..D, state), every float back exactly (NaN too).
        rows = csv_rows(out / "solve" / "tables_0_pair.csv", "delta,x,q,f,alpha")
        assert len(rows) == manifest.sim.delta_bound * states
        ages, xs = np.divmod(np.arange(len(rows)), states)
        ages += 1
        np.testing.assert_array_equal(cells(rows, 0, int), ages)
        np.testing.assert_array_equal(cells(rows, 1, int), xs)
        np.testing.assert_array_equal(cells(rows, 2, float), pen[ages, xs])
        np.testing.assert_array_equal(cells(rows, 3, int), choices[ages, xs])
        np.testing.assert_array_equal(cells(rows, 4, float), gain[ages, xs])
        # Profile: one row per (age in --deltas, state).
        rows = csv_rows(out / "profile" / "profile_0_pair.csv", "delta,x,q,alpha")
        ages, xs = np.repeat([1, 5], states), np.tile(np.arange(states), 2)
        assert len(rows) == 2 * states
        np.testing.assert_array_equal(cells(rows, 0, int), ages)
        np.testing.assert_array_equal(cells(rows, 1, int), xs)
        np.testing.assert_array_equal(cells(rows, 2, float), pen[ages, xs])
        np.testing.assert_array_equal(cells(rows, 3, float), gain[ages, xs])
        # Dual trace: one row per probed price.
        rows = csv_rows(out / "solve" / "dual_trace.csv", "iteration,lambda,activation_rate")
        assert [(int(j), float(lam), float(rate)) for j, lam, rate in rows] == system.trace.iterations

        # Records, sorted by (policy, seed): N = 2, M = 1, r = 1, seeds 3 and 4, 600 slots.
        records = run_paired(manifest.sim, POLICY_KEYS, system, manifest.sim.seed, replications=2)
        records.sort(key=lambda r: (r.policy, r.seed))
        rows = csv_rows(out / "simulate.csv", RECORD_HEADER)
        assert [row[:6] for row in rows] == [[p, "2", "1", "1", s, "600"] for p in sorted(POLICY_KEYS) for s in "34"]
        for row, rec in zip(rows, records, strict=True):
            for cell, (_, field) in zip(row, RECORD_COLUMNS, strict=True):
                value = getattr(rec, field)
                assert type(value)(cell) == value, (field, cell)  # floats parse back exactly
        for name in ("simulate.json", "sweep.json"):
            rows = json.loads((out / name).read_text())["records"]
            assert rows and all(list(row) == RECORD_HEADER.split(",") for row in rows)
        rows = json.loads((out / "simulate.json").read_text())["records"]
        assert [(o["policy"], o["N"], o["M"], o["r"], o["seed"]) for o in rows] == [
            (p, 2, 1, 1, s) for p in sorted(POLICY_KEYS) for s in (3, 4)
        ]
        assert [o["normalized_penalty"] for o in rows] == [r.normalized_penalty for r in records]
        assert rows == [{column: getattr(r, field) for column, field in RECORD_COLUMNS} for r in records]

    def test_tied_summaries_print_in_one_order_under_any_hash_seed(self, tmp_path):
        # chain_pair's one agent on one channel: several policies tie on the
        # mean penalty, and ties must not print in string-hash order.
        orders = []
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "aoi_guard.cli", "simulate", "--config", str(CHAIN_PAIR),
                 "--policy", "all", "--slots", "4000", "--output", str(tmp_path / f"r{hash_seed}.csv")],
                capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": hash_seed},
            )
            assert proc.returncode == 0, proc.stderr
            summary = [line.split(": mean normalized penalty ") for line in proc.stdout.splitlines()[:-1]]
            assert sorted(p for p, _ in summary) == sorted(POLICY_KEYS)
            means = [float(m.split()[0]) for _, m in summary]
            assert len(set(means)) < len(means)  # the case has ties
            assert summary == sorted(summary, key=lambda pm: (float(pm[1].split()[0]), pm[0]))
            orders.append([p for p, _ in summary])
        assert orders[0] == orders[1]


class TestExitCodes:
    def test_parse_error(self, tmp_path):
        cfg = write_config(tmp_path, "policy: [unterminated")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_PARSE

    def test_validation_error(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL.replace("channels: 1", "channels: 0"))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_VALIDATION

    def test_unknown_policy_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        assert main(["simulate", "--config", str(cfg), "--policy", "greedy"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "--policy" in err and "'greedy'" in err and "'all'" in err

    @pytest.mark.parametrize("key,good,bad,message", [
        ("values", MINIMAL + "sweep: {axis: channels, values: [1]}\n",
         MINIMAL + "sweep: {axis: channels, values: [true]}\n", r"sweep\.values\[0\]: expected a number, got True"),
        ("labels", one_class(TRIO, safety="{type: assignment, labels: [0, 0, 1]}"),
         one_class(TRIO, safety="{type: assignment, labels: [0, 0.5, 1]}"), r"labels\[1\]: expected an integer, got 0\.5"),
        ("edges", one_class(TRIO, safety="{type: bands, edges: [1]}"),
         one_class(TRIO, safety="{type: bands, edges: [true]}"), r"edges\[0\]: expected a number, got True"),
    ], ids=["sweep.values", "assignment.labels", "bands.edges"])
    def test_integer_lists_reject_non_integers(self, tmp_path, capsys, key, good, bad, message):
        command = "sweep" if key == "values" else "simulate"
        ok = write_config(tmp_path, good, "good.yaml")
        assert main([command, "--config", str(ok), "--output", str(tmp_path / "good.csv")]) == EXIT_OK
        cfg = write_config(tmp_path, bad, "bad.yaml")
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "bad.csv")]) == EXIT_VALIDATION
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize("old,new,message", [
        ("delta_bound: 250", "delta_boud: 40", r"cfg\.yaml\.delta_boud: unknown key"),
        ("seed: 3", "sed: 9", r"cfg\.yaml\.sed: unknown key"),
        ("policy: maf", "policy: maf\nreplicatoins: 5", r"cfg\.yaml\.replicatoins: unknown key"),
        ("members: 2", "member: 2", r"classes\[0\]\.member: unknown key"),
        ("success_prob: 0.9", "sucess_prob: 0.5", r"classes\[0\]\.sucess_prob: unknown key"),
        (MINIMAL[MINIMAL.index("source:"):MINIMAL.index("    safety")], "source: {type: row_chain, rows: 2, colums: 3, "
         "up: 0.1, down: 0.1}\n", r"classes\[0\]\.source\.colums: unknown key"),
        ("policy: maf", "policy: maf\nsweep: {axis: channels, vaules: [1, 2]}", r"sweep\.vaules: unknown key"),
        # A key that another type of the same mapping reads is unknown too.
        ("labels: [0, 1]}", "labels: [0, 1], edges: [1]}", r"classes\[0\]\.safety\.edges: unknown key"),
        ("{name: zero_one, labels: 2}", "{name: zero_one, labels: 2, values: [0, 1]}", r"loss\.values: unknown key"),
        # The loader's other rejections of a mapping's shape.
        ("type: matrix", "type: hex", r"classes\[0\]\.source\.type: unknown source type 'hex'"),
        ("type: assignment", "type: ranks", r"classes\[0\]\.safety\.type: unknown safety type 'ranks'"),
        ("    loss: {name: zero_one, labels: 2}\n", "", r"classes\[0\]: missing required key 'loss'"),
        ("classes:\n", "classes:\n  - 5\n", r"classes\[0\]: expected a mapping, got int"),
        ("labels: [0, 1]}", "labels: 1}", r"safety\.labels: expected a list of integers, got 1"),
        (MINIMAL[MINIMAL.index("classes:"):], "classes: []\n", r"cfg\.yaml\.classes: expected a nonempty list"),
    ], ids=["delta_bound", "seed", "replications", "members", "success_prob", "source-cols", "sweep-values",
            "safety-of-another-type", "loss-of-another-name", "source-type", "safety-type", "missing-loss",
            "class-not-a-mapping", "labels-not-a-list", "no-classes"])
    def test_unknown_keys_exit_3(self, tmp_path, capsys, old, new, message):
        # Without the key check the first nine configs load, the misspelled
        # ones with the defaults their keys meant to override.
        cfg = write_config(tmp_path, MINIMAL.replace(old, new))
        assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "r.csv")]) == EXIT_VALIDATION
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "r.csv").exists()

    def test_one_cell_grid2d_exits_3(self, tmp_path, capsys):
        # A 1 x 1 grid has one state, as a 1-row row_chain does: both are rejected.
        for source in ("{type: grid2d, rows: 1, cols: 1, up: 0.1, down: 0.1, left: 0.1, right: 0.1}",
                       "{type: row_chain, rows: 1, up: 0.1, down: 0.1}"):
            text = one_class(source, safety="{type: assignment, labels: [0]}", loss="{name: zero_one, labels: 1}")
            cfg = write_config(tmp_path, text)
            assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "r.csv")]) == EXIT_VALIDATION
            assert "classes[0].source: a grid walk needs at least 2 cells" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [
        ("[0.9, 0.1]", "[.nan, 1.0]"),
        ("policy: maf", "policy: maf\nreplications: .inf"),
        ("members: 2", "members: .nan"),
    ], ids=["nan-matrix", "inf-replications", "nan-members"])
    def test_non_finite_values_exit_3(self, tmp_path, old, new):
        cfg = write_config(tmp_path, MINIMAL.replace(old, new))
        assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "r.csv")]) == EXIT_VALIDATION

    @pytest.mark.parametrize("old,new,message", [
        ("name: mini", "name: a/b", "cfg.yaml.name: "),
        ("name: mini", "name: ''", "cfg.yaml.name: "),
        ("name: mini", "name: 5", "cfg.yaml.name: "),
        ("name: mini", 'name: "a\\0b"', "cfg.yaml.name: "),
        ("name: pair", "name: ../../escaped", r"cfg.yaml.classes\[0\].name: "),
        ("name: pair", "name: '.'", r"cfg.yaml.classes\[0\].name: "),
        ("name: pair", 'name: "p\\0q"', r"cfg.yaml.classes\[0\].name: "),
        (MINIMAL[MINIMAL.index("  - name: pair"):], MINIMAL[MINIMAL.index("  - name: pair"):] * 2,
         r"cfg.yaml.classes\[1\].name: 'pair' already names classes\[0\]"),
    ], ids=["run-path", "run-empty", "run-not-a-string", "run-nul", "class-escapes", "class-dot", "class-nul",
            "class-repeated"])
    def test_names_are_distinct_path_components(self, tmp_path, capsys, old, new, message):
        # Outputs are named after the run and its classes: a name with '/',
        # '.' or '..' would write elsewhere, one with a NUL byte names no
        # file, and a repeated class name would overwrite a class's files and
        # summary entry.
        cfg = write_config(tmp_path, MINIMAL.replace(old, new))
        with pytest.raises(ConfigError, match=message):
            load_config(cfg)
        assert main(["solve", "--config", str(cfg), "--output", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert re.search(message, capsys.readouterr().err) and not (tmp_path / "out").exists()

    def test_bad_profile_deltas(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        assert main(["profile", "--config", str(cfg), "--deltas", "1,x"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("deltas,message", [
        (",", "distinct ages"),
        ("", "distinct ages"),
        ("1,1", "distinct ages"),
        ("2,1,2", "distinct ages"),
        ("0,1", "outside [1, "),
    ], ids=["empty", "blank", "repeated", "repeated-apart", "below-one"])
    def test_profile_deltas_fail_before_the_solve(self, tmp_path, monkeypatch, capsys, deltas, message):
        # An empty list would write empty artifacts and a repeated age every
        # row twice; both exit 3 before any solve, as an age outside [1, D].
        cfg = write_config(tmp_path, MINIMAL)
        calls = count_solves(monkeypatch, cli)
        out = tmp_path / "profile"
        assert main(["profile", "--config", str(cfg), "--deltas", deltas, "--output", str(out)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_zero_replications_fail_at_load(self, tmp_path, monkeypatch, capsys, command):
        text = MINIMAL + "replications: 0\nsweep: {axis: channels, values: [1, 2]}\n"
        cfg = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="replications"):
            load_config(cfg)
        calls = count_solves(monkeypatch, cli)
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "r.csv")]) == EXIT_VALIDATION
        assert "replications" in capsys.readouterr().err
        assert calls == []

    def test_sweep_checks_every_point_before_solving(self, tmp_path, monkeypatch, capsys):
        # Two agents: the second point's three channels exceed them.
        cfg = write_config(tmp_path, MINIMAL + "sweep: {axis: channels, values: [1, 3]}\n")
        calls = count_solves(monkeypatch, simulate)
        assert main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "s.csv")]) == EXIT_VALIDATION
        assert "channels=3 has N=2 < M=3" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("sweep,message", [
        ("{axis: channels, values: [1, 5]}", "sweep point channels=5 has N=4 < M=5"),
        ("{axis: agents, values: [1]}", "cannot spread 1 agents across 2 classes"),
        ("{axis: speed, values: [1]}", "axis must be one of agents, channels, scale; got 'speed'"),
        ("{axis: channels, values: [2, 0]}", "axis values must be positive"),
        ("{axis: channels, values: [1, 2, 1]}", "axis values must be distinct, got [1, 2, 1]"),
    ], ids=["n-below-m", "agents-unspread", "unknown-axis", "nonpositive-value", "repeated-value"])
    def test_sweep_points_fail_at_load(self, tmp_path, capsys, sweep, message):
        # Two classes of two agents: every point the sweep would run is checked
        # when the config loads, so even `simulate` rejects a bad sweep section.
        twin = MINIMAL[MINIMAL.index("  - name: pair"):].replace("name: pair", "name: twin")
        cfg = write_config(tmp_path, MINIMAL + twin + f"sweep: {sweep}\n")
        with pytest.raises(ConfigError, match=r"\.sweep: " + re.escape(message)):
            load_config(cfg)
        assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "r.csv")]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_profile_delta_outside_bound_fails_before_solving(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        calls = count_solves(monkeypatch, cli)
        out = tmp_path / "prof"
        assert main(["profile", "--config", str(cfg), "--deltas", "1,251", "--output", str(out)]) == EXIT_VALIDATION
        assert "profile delta 251 outside [1, 250]" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("flag", [["--format", "json"], ["--slots", "10"], ["--policy", "maf"]])
    @pytest.mark.parametrize("command", ["solve", "profile"])
    def test_solve_and_profile_reject_record_flags(self, tmp_path, command, flag):
        cfg = write_config(tmp_path, MINIMAL)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)] + flag)
        assert exc.value.code == 2

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
        # jumps from 3 to 0. The supporting lines at prices 0 and 1 meet at
        # the price where both cost 0.17, and the search stops there.
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["lambda_star"] == pytest.approx(0.11 / 3, abs=1e-12)
        assert summary["avg_costs"]["pair"] == pytest.approx(0.17, abs=1e-12)
        trace = (out / "dual_trace.csv").read_text().splitlines()[3:]
        assert len(trace) == 3 and {float(row.split(",")[2]) for row in trace} == {0.0, 3.0}

    def test_dual_search_without_bracket_is_a_convergence_error(self, tmp_path, monkeypatch, capsys):
        # A relaxed rate that no price brings below M leaves the search with
        # no bracket: it fails after its probe cap instead of returning an
        # uncertified price. A one-state source keeps every class solve exact
        # at the huge prices the expansion reaches.
        monkeypatch.setattr(bandit, "relaxed_rate", lambda *args: 1.0)
        one = MINIMAL.replace("policy: maf", "policy: mgf").replace("delta_bound: 250", "delta_bound: 20")
        cfg = write_config(tmp_path, one.replace(PAIR_CLASS, """        - [1.0]
    safety: {type: assignment, labels: [0]}
    loss: {name: zero_one, labels: 1}"""))
        out = tmp_path / "s"
        assert main(["solve", "--config", str(cfg), "--output", str(out)]) == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert f"after {bandit.DUAL_PROBE_CAP + 1} probes (relaxed rate 2.0 against M=1)" in err
        assert not out.exists()

    def test_dual_search_without_bracket_on_the_pair_chain(self, tmp_path, monkeypatch, capsys):
        # The same failure on the two-state pair chain: its class solves at
        # the huge prices the expansion reaches pass their residual check,
        # which scales with the price, so the search ends with its own error.
        monkeypatch.setattr(bandit, "relaxed_rate", lambda *args: 1.0)
        pair = MINIMAL.replace("policy: maf", "policy: mgf").replace("delta_bound: 250", "delta_bound: 20")
        cfg = write_config(tmp_path, pair)
        out = tmp_path / "s"
        assert main(["solve", "--config", str(cfg), "--output", str(out)]) == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert "dual price search: no price up to lambda=" in err
        assert f"after {bandit.DUAL_PROBE_CAP + 1} probes (relaxed rate 2.0 against M=1)" in err
        assert "residual" not in err

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

    def test_oversize_power_stack_is_a_validation_error(self, tmp_path, monkeypatch, capsys):
        # The pair chain's stack at D = 250 takes 251 * 2 * 2 doubles; with a
        # smaller budget the solve fails before allocating it.
        monkeypatch.setattr(bandit, "POWER_STACK_BYTES", 4096)
        cfg = write_config(tmp_path, MINIMAL.replace("policy: maf", "policy: mgf"))
        out = tmp_path / "s"
        assert main(["solve", "--config", str(cfg), "--output", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "delta_bound=250 on a 2-state quotient takes 8032 bytes, above the 4096-byte budget" in err
        assert not out.exists()

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

    def test_cli_import_leaves_process_pools_unloaded(self):
        # Only `sweep` runs a process pool; every other command should not pay
        # for importing multiprocessing.
        code = ("import sys, aoi_guard.cli; "
                "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
