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
