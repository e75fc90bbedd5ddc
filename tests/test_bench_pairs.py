"""The pair summary of `tools/bench_pairs.py` on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

RULES = [{"name": "sim_agent_slots_per_s", "better": "higher", "bound": 0.25},
         {"name": "wall_s", "better": "lower", "bound": 0.25}]


def pairs_of(parent: list, change: list, metric: str = "w.sim_agent_slots_per_s") -> list[dict]:
    return [{"parent": {metric: p}, "change": {metric: c}} for p, c in zip(parent, change)]


def test_claim_met_when_nine_of_ten_pairs_win_beyond_the_parents_spread():
    parent = [10, 11, 12, 10, 11, 12, 10, 11, 12, 11]
    change = [14, 15, 13, 14, 15, 16, 14, 15, 9, 14]  # pair 9 lost
    got = bench_pairs.summarize(pairs_of(parent, change), RULES, "w.sim_agent_slots_per_s")
    m = got["medians"]["w.sim_agent_slots_per_s"]
    assert m["parent_median"] == 11 and m["change_median"] == 14
    assert m["parent_quartiles"] == [10.25, 11.75] and m["change_better_in_pairs"] == "9/10"
    assert m["relative_worsening"] == pytest.approx(-3 / 11) and m["within_bound"]
    assert got["claim"] == {"metric": "w.sim_agent_slots_per_s", "met": True}


def test_claim_fails_on_eight_wins_or_a_gain_inside_the_parents_spread():
    parent = [10, 11, 12, 10, 11, 12, 10, 11, 12, 11]
    eight = [14, 15, 13, 14, 15, 16, 14, 15, 9, 9]
    assert not bench_pairs.summarize(pairs_of(parent, eight), RULES, "w.sim_agent_slots_per_s")["claim"]["met"]
    narrow = [p + 0.5 for p in parent]  # wins every pair, but by less than the quartile distance 1.5
    got = bench_pairs.summarize(pairs_of(parent, narrow), RULES, "w.sim_agent_slots_per_s")
    assert got["medians"]["w.sim_agent_slots_per_s"]["change_better_in_pairs"] == "10/10"
    assert not got["claim"]["met"]


def test_bound_check_follows_the_better_direction_and_skips_nulls():
    parent = [1.0, 1.0, 1.0, 1.0]
    slower = [1.3, 1.3, None, 1.3]
    got = bench_pairs.summarize(pairs_of(parent, slower, "w.wall_s"), RULES)
    m = got["medians"]["w.wall_s"]
    assert m["change_better_in_pairs"] == "0/3" and m["relative_worsening"] == pytest.approx(0.3)
    assert not m["within_bound"] and not got["all_within_bound"] and "claim" not in got
    ties = bench_pairs.summarize(pairs_of(parent, parent, "w.wall_s"), RULES)["medians"]["w.wall_s"]
    assert ties["change_better_in_pairs"] == "0/4" and ties["within_bound"]


def test_unequal_outputs_compare_only_seeds_both_sides_ran():
    parent = {"w": {"1": "a", "1001": "b", "2001": "c"}}
    change = {"w": {"1": "a", "1001": "x"}}
    assert bench_pairs.unequal_outputs(parent, change) == ["w:1001"]


def test_src_lines_counts_each_checkouts_package_modules(tmp_path):
    # Lines as `wc -l` counts them (a last line without a newline is not
    # one), over src/aoi_guard/*.py and tests/*.py only.
    trees = {"parent": {"src/aoi_guard/a.py": "x = 1\ny = 2\n", "src/aoi_guard/b.py": "z = 3",
                        "tests/test_a.py": "t = 1\n"},
             "change": {"src/aoi_guard/a.py": "x = 1\n", "src/aoi_guard/notes.txt": "1\n2\n3\n",
                        "src/other.py": "w = 4\n", "tests/test_a.py": "t = 1\nu = 2\n", "tests/sub/c.py": "v = 5\n"}}
    for side, files in trees.items():
        for name, text in files.items():
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_text(text)
    counts = {key: [bench_pairs.line_count(tmp_path / side, pattern) for side in trees]
              for key, pattern in bench_pairs.LINE_COUNTS.items()}
    assert counts == {"src_lines": [2, 1], "test_lines": [1, 2]}
