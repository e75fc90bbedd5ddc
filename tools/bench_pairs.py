"""Run the benchmark in two checkouts in alternating pairs and summarize its end-to-end metrics.

Usage: python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 --out PAIRS.json
           [--workload all] [--seed S] [--claim WORKLOAD.METRIC]

Each pair runs `perfbench/run.py --workload all --seconds 30 --trace 0` once
in each checkout with this interpreter, one run at a time; odd pairs run
the parent first, even pairs the change first. The run length, the metric
names, their better direction and their bounds come from CHANGE_DIR's
BENCHMARK.json.
OUT gets, per pair, every end-to-end metric of both sides, each run's
failed checks and the seeds whose record or table digests differ between
the sides; per metric, each side's median and quartiles, the pairs the
change won (ties count for neither side) and whether the change's median is
worse than the parent's by more than the metric's bound. A claimed metric
is met when the change wins at least nine tenths of the pairs and the
medians differ, in the better direction, by more than the distance between
the parent's quartiles. OUT's `src_lines` and `test_lines` hold each side's
line count of `src/aoi_guard/*.py` and of `tests/*.py`.

The script only reads the checkouts' results: it imports nothing from
`src/` and writes nothing under `perfbench/` (the benchmark itself keeps
its scratch files in each checkout's `.perfbench_work/`).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
LINE_COUNTS = {"src_lines": "src/aoi_guard/*.py", "test_lines": "tests/*.py"}


def run_side(checkout: Path, workload: str, seconds: float, seed: int | None) -> dict:
    """One benchmark run in `checkout`: its end-to-end metric values, failed checks and per-seed digests."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds), "--trace", "0"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{checkout}: perfbench exited {done.returncode}: {done.stderr[-2000:]}")
    final = json.loads(lines[-1])
    outputs = {}
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
            outputs[provenance["workload"]] = provenance["outputs_sha256"]
    metrics = final["metrics"]
    if workload != "all":  # a single workload's metrics are not prefixed
        metrics = {f"{workload}.{name}": value for name, value in metrics.items()}
    return {
        "metrics": {name: metric["value"] for name, metric in metrics.items()},
        "failed": f"{final['failed']}/{final['attempted']}",
        "outputs_sha256": outputs,
    }


def line_count(checkout: Path, pattern: str) -> int:
    """The total line count of the files in `checkout` that match `pattern`, as `wc -l` counts it."""
    return sum(path.read_bytes().count(b"\n") for path in checkout.glob(pattern))


def unequal_outputs(parent: dict, change: dict) -> list[str]:
    """The `workload:seed` runs that both sides made whose output digests differ."""
    return [f"{w}:{seed}" for w in parent.keys() & change.keys()
            for seed in parent[w].keys() & change[w].keys() if parent[w][seed] != change[w][seed]]


def quartiles(values: list[float]) -> list[float]:
    """The first and third quartiles (inclusive method, so one value is its own quartiles)."""
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list[dict], end_to_end: list[dict], claim: str | None = None) -> dict:
    """Per metric `workload.name` of the pairs: medians, quartiles, pairs won and the bound check.

    `pairs` holds {"parent": {metric: value}, "change": {metric: value}} per
    pair; a metric missing or null on either side of a pair leaves that
    pair out of the metric. `end_to_end` is BENCHMARK.json's list of
    {"name", "better", "bound"}.
    """
    rules = {entry["name"]: entry for entry in end_to_end}
    names = sorted({name for pair in pairs for side in SIDES for name in pair[side]})
    medians = {}
    for name in names:
        rule = rules.get(name.rsplit(".", 1)[-1])
        kept = [p for p in pairs if p["parent"].get(name) is not None and p["change"].get(name) is not None]
        if rule is None or not kept:
            continue
        higher = rule["better"] == "higher"
        parent = [p["parent"][name] for p in kept]
        change = [p["change"][name] for p in kept]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        gain = change_median - parent_median if higher else parent_median - change_median
        worsening = -gain / abs(parent_median) if parent_median else (0.0 if gain >= 0 else float("inf"))
        parent_q = quartiles(parent)
        medians[name] = {
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_quartiles": parent_q,
            "change_quartiles": quartiles(change),
            "relative_worsening": worsening,
            "bound": rule["bound"],
            "within_bound": worsening <= rule["bound"],
            "change_better_in_pairs": f"{wins}/{len(kept)}",
            "claim_rule_met": wins >= 0.9 * len(kept) and gain > parent_q[1] - parent_q[0],
        }
    summary = {"medians": medians, "all_within_bound": all(m["within_bound"] for m in medians.values())}
    if claim is not None:
        summary["claim"] = {"metric": claim, "met": medians.get(claim, {}).get("claim_rule_met", False)}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None, help="default: each config's own seed")
    parser.add_argument("--claim", default=None, help="the claimed metric, as workload.metric")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds, end_to_end = benchmark["run_seconds"], benchmark["end_to_end"]
    lines = {key: {side: line_count(checkouts[side], pattern) for side in SIDES}
             for key, pattern in LINE_COUNTS.items()}

    pairs = []
    for number in range(1, args.pairs + 1):
        order = SIDES if number % 2 else SIDES[::-1]
        runs = {side: run_side(checkouts[side], args.workload, seconds, args.seed) for side in order}
        pairs.append({
            "pair": number,
            "first": order[0],
            **{side: runs[side]["metrics"] for side in SIDES},
            "failed": {side: runs[side]["failed"] for side in SIDES},
            "unequal_outputs": unequal_outputs(runs["parent"]["outputs_sha256"], runs["change"]["outputs_sha256"]),
        })
        print(f"pair {number}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
        report = {
            "command": f"perfbench/run.py --workload {args.workload} --seconds {seconds:g} --trace 0"
                       + (f" --seed {args.seed}" if args.seed is not None else ""),
            **lines,
            **summarize(pairs, end_to_end, args.claim),
            "pairs": pairs,
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")  # rewritten each pair, so a cut run keeps its pairs
    return 0


if __name__ == "__main__":
    sys.exit(main())
