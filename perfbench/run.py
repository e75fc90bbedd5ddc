"""The aoi-guard benchmark: three pipeline workloads through `aoi_guard.cli.main`.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload grid20-simulate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 0

Each iteration runs the workload's CLI commands in a fresh interpreter
(`perfbench/child.py`) with BLAS pinned to one thread, on inputs derived from
`--seed`. Iterations repeat until `--seconds` is used up; every metric is the
median over the iterations, and timings are scaled to the host's reference
speed (see REFERENCE_CALIBRATION). `--trace 0` prints the end-to-end metrics;
`--trace 1` runs each iteration twice, untraced and traced, and prints the
per-layer metrics. Every iteration is checked (see checks.py); the last
stdout line is one JSON object, and the exit code is 1 when a check failed,
2 when the checkout is incomplete.

Workloads are the committed configs, sized so that one iteration takes
seconds instead of minutes (see WORKLOADS). `--full-solve` keeps each
committed config's solver, channels and age bound, which reproduces the
committed configs' exact solver counts (slow: minutes per iteration).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from checks import check_command, check_mgf_first, policy_penalties

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

POLICY_KEYS = ("mgf", "randomized", "random_queue", "maf")
BLAS_THREADS = 1
SETUP_SAMPLES = 5
SEED_STRIDE = 1000  # iteration k runs seed + k * SEED_STRIDE
MIN_ITERATIONS = 3  # `penalty` is taken over exactly these, so it is exact for a seed
DEADLINE_S = 170.0  # a run must end within 180 s
# Timings are reported at reference speed: divided by the host's slowdown,
# measured in the same process by child.calibrate() and compared with that
# kernel's medians on the 2-core sandbox the bounds were set on (throughput
# is multiplied). The references are fixed, so a slower program still reads
# slower. The slowdown mixes the two kernels: the slot loops, small-chain
# solves and the import track a 70/30 interpreter/BLAS mix best; grid400's
# solve, which is 400x400 matrix-vector products, tracks the BLAS kernel.
REFERENCE_CALIBRATION = {"interpreter_s": 0.0108, "blas_s": 0.0123}
MIXED_BLAS_SHARE = 0.3
FULL_SOLVE_DEADLINE_S = 3600.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "sim_agent_slots_per_s": "1/s",
    "peak_rss_mb": "MB",
    "penalty": "loss",
}
PER_LAYER = {
    "config.load_s": "s",
    "markov.is_primitive.calls": "count",
    "markov.is_primitive.s": "s",
    "markov.stationary.calls": "count",
    "markov.stationary.s": "s",
    "tables.build.calls": "count",
    "tables.build.s": "s",
    "tables.build.cells": "count",
    "bandit.dual.s": "s",
    "bandit.dual.evals": "count",
    "bandit.rvi.calls": "count",
    "bandit.rvi.s": "s",
    "bandit.rvi.sweeps": "count",
    "bandit.rollout.s": "s",
    "bandit.rate_gap": "ratio",
    **{f"policies.{k}.{m}": u for k in ("top_positive_ids", "top_ids", "uniform_subset")
       for m, u in (("calls", "count"), ("s", "s"))},
    "simulate.world.s": "s",
    **{f"simulate.loop.s.{p}": "s" for p in POLICY_KEYS},
    **{f"simulate.slot_us.{p}": "us" for p in POLICY_KEYS},
    "cli.self.s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    """A committed config, how the benchmark sizes it, and the CLI commands it runs."""

    base: str
    commands: tuple[tuple[str, ...], ...]
    size: dict  # top-level keys replaced in the base config
    solve_size: dict = field(default_factory=dict)  # solve sizing; dropped by --full-solve
    member_scale: int = 1
    penalty_policy: str = "mgf"  # whose mean normalized penalty is the `penalty` metric
    # > 0: `penalty` and `sim_agent_slots_per_s` come from an MGF run of this
    # many slots on the solved gains, after the timed commands
    quality_slots: int = 0
    mgf_first: bool = False
    blas_share: float = MIXED_BLAS_SHARE  # of wall_s and solve_s, in the host-speed scaling


# Why each workload exists is recorded in BENCHMARK.json. Sizes: grid20's dual
# search with outer_iters 1 always probes prices 0, 1 and 3 and lands in the
# +/-5% band at 3 (the full search ends at 3.15), so its cost does not jump
# with the seed. grid400 keeps 400 states and the no-power-stack RVI path
# (needs (delta_bound + 1) * 400^2 > 4e6, so delta_bound >= 25); at M=10 its
# rate falls from 11 to below 9.5 for any price above 1e-4 and the search
# takes a seed-dependent 9-12 probes, so M=8, where it takes 5.
WORKLOADS = {
    "grid20-simulate": Workload(
        base="configs/grid20.yaml",
        commands=(("simulate", "--policy", "all"),),
        size={"slots": 5000, "replications": 4},
        solve_size={"solver": {"outer_iters": 1}},
        mgf_first=True,
    ),
    "grid400-solve": Workload(
        base="configs/grid400.yaml",
        commands=(("solve",),),
        size={},
        solve_size={"delta_bound": 40, "channels": 8, "solver": {"outer_iters": 4}},
        quality_slots=20000,
        blas_share=1.0,
    ),
    "wide-baselines": Workload(
        base="configs/grid20.yaml",
        commands=tuple(("simulate", "--policy", p) for p in ("maf", "randomized", "random_queue")),
        size={"name": "wide", "channels": 40, "slots": 4000, "replications": 2},
        member_scale=20,
        penalty_policy="maf",
    ),
}


def fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_config(wl: Workload, full_solve: bool, dest: Path) -> dict:
    """Write the workload's config and return it."""
    doc = yaml.safe_load((ROOT / wl.base).read_text())
    doc.pop("sweep", None)
    sizes = [wl.size] + ([] if full_solve else [wl.solve_size])
    for size in sizes:
        for key, value in size.items():
            if isinstance(value, dict):
                doc.setdefault(key, {}).update(value)
            else:
                doc[key] = value
    for cls in doc["classes"]:
        cls["members"] = cls.get("members", 1) * wl.member_scale
    dest.write_text(yaml.safe_dump(doc, sort_keys=False))
    return doc


def state_count(source: dict) -> int:
    kind = source.get("type", "matrix")
    if kind == "row_chain":
        return int(source["rows"])
    if kind == "grid2d":
        return int(source["rows"]) * int(source["cols"])
    return len(source["rows"])


def expectations(doc: dict, argv: tuple[str, ...]) -> dict:
    """What a correct run of one command on this config must produce."""
    command = argv[0]
    policy = argv[argv.index("--policy") + 1] if "--policy" in argv else doc["policy"]
    policies = list(POLICY_KEYS) if policy == "all" else [policy]
    delta_bound = int(doc.get("delta_bound", 250))
    return {
        "command": command,
        "channels": int(doc["channels"]),
        "replications": int(doc.get("replications", 1)),
        "policies": policies,
        "gains": command == "solve" or "mgf" in policies,
        "table_rows": {
            f"tables_{i}_{c.get('name', i)}.csv": delta_bound * state_count(c["source"])
            for i, c in enumerate(doc["classes"])
        },
        "agent_slots": len(policies) * int(doc.get("replications", 1)) * int(doc["slots"])
        * sum(int(c.get("members", 1)) for c in doc["classes"]),
    }


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(spec: dict, spec_path: Path, timeout: float) -> tuple[dict | None, str]:
    """Run child.py on a spec; returns its result (None on failure) and stderr."""
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip()[-2000:]
    return json.loads(Path(spec["result"]).read_text()), ""


def src_stats() -> tuple[int, str]:
    """Line count and content digest of the package sources."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def at_reference(seconds: float, res: dict, blas_share: float = MIXED_BLAS_SHARE) -> float:
    """A child's timing scaled to the host's reference speed."""
    cal = res["calibration"]
    slowdown = ((1.0 - blas_share) * cal["interpreter_s"] / REFERENCE_CALIBRATION["interpreter_s"]
                + blas_share * cal["blas_s"] / REFERENCE_CALIBRATION["blas_s"])
    return seconds / slowdown


def median(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


class Run:
    """One workload at one seed: iterations, checks and the metrics they give."""

    def __init__(self, name: str, seed: int | None, seconds: float, trace: bool, full_solve: bool):
        self.name, self.wl = name, WORKLOADS[name]
        self.seconds, self.trace, self.full_solve = seconds, trace, full_solve
        self.deadline = FULL_SOLVE_DEADLINE_S if full_solve else DEADLINE_S
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.yaml"
        self.doc = make_config(self.wl, full_solve, self.config)
        self.seed = int(self.doc.get("seed", 0)) if seed is None else seed
        self.digest = sha256_file(self.config)
        self.expect = [expectations(self.doc, argv) for argv in self.wl.commands]
        self.checks: list[tuple[str, bool, str]] = []
        self.outputs: dict[str, str] = {}
        self.iterations: list[dict] = []  # {"seed", "untraced", "traced"}
        self.setup_samples: list[float] = []
        self.child_info: dict = {}
        self.start = time.monotonic()

    def remaining(self) -> float:
        return self.deadline - (time.monotonic() - self.start)

    def spec(self, mode: str, tag: str, seed: int = 0, trace: bool = False) -> dict:
        out = self.dir / tag
        # simulate writes one records file, solve a directory of tables.
        commands = [
            list(argv) + ["--config", str(self.config), "--seed", str(seed),
                          "--output", str(out / (f"cmd{j}.csv" if argv[0] == "simulate" else f"cmd{j}"))]
            for j, argv in enumerate(self.wl.commands)
        ]
        return {
            "mode": mode,
            "src": str(ROOT / "src"),
            "config": str(self.config),
            "commands": commands,
            "trace": trace,
            "result": str(self.dir / f"{tag}.json"),
            "policy_keys": list(POLICY_KEYS),
            "simulates": any(argv[0] == "simulate" for argv in self.wl.commands),
            "quality": {"policy": "mgf", "slots": self.wl.quality_slots} if self.wl.quality_slots else None,
        }

    def fail(self, name: str, detail: str) -> None:
        self.checks.append((name, False, detail))

    def measure_setup(self) -> None:
        for i in range(SETUP_SAMPLES):
            res, err = run_child(self.spec("setup", f"setup{i}"), self.dir / f"setup{i}.spec.json", self.remaining())
            if res is None:
                self.fail("setup", err)
                return
            self.setup_samples.append(at_reference(res["import_s"] + res["load_s"], res))
            self.child_info = {k: res[k] for k in ("version", "numpy", "python")}

    def run_iteration(self, k: int, seed: int, traced: bool) -> dict | None:
        tag = f"it{k}{'t' if traced else 'u'}"
        spec = self.spec("run", tag, seed, traced)
        res, err = run_child(spec, self.dir / f"{tag}.spec.json", self.remaining())
        if res is None:
            self.fail("child", err)
            return None
        sha = hashlib.sha256()
        for j, (cmd, expect) in enumerate(zip(res["commands"], self.expect)):
            checks, digest = check_command(cmd, expect, Path(spec["commands"][j][-1]), res["version"], self.digest)
            self.checks.extend(checks)
            sha.update(digest.encode())
        out_dir = self.dir / tag
        if self.wl.mgf_first:
            self.checks.append(check_mgf_first(policy_penalties(out_dir)))
        if self.wl.quality_slots:
            res["penalty"] = res.get("quality_penalty")
            res["agent_slots_per_s"] = res["quality_agent_slots"] / res["quality_s"] if "quality_s" in res else None
        else:
            penalties = policy_penalties(out_dir).get(self.wl.penalty_policy)
            res["penalty"] = statistics.fmean(penalties) if penalties else None
            post_solve = [c["post_solve_s"] for c in res["commands"]]
            agent_slots = sum(e["agent_slots"] for e in self.expect)
            res["agent_slots_per_s"] = None if None in post_solve else agent_slots / sum(post_solve)
        res["outputs_sha256"] = sha.hexdigest()
        shutil.rmtree(out_dir, ignore_errors=True)  # artifacts are checked and hashed; keep the disk small
        return res

    def execute(self) -> None:
        self.measure_setup()
        loop_start = time.monotonic()
        durations: list[float] = []
        k = 0
        while self.remaining() > 0:
            seed = self.seed + SEED_STRIDE * k
            t0 = time.monotonic()
            item = {"seed": seed, "untraced": self.run_iteration(k, seed, False)}
            if item["untraced"] is None:
                break
            if self.trace:
                item["traced"] = self.run_iteration(k, seed, True)
                if item["traced"] is None:
                    break
                same = item["traced"]["outputs_sha256"] == item["untraced"]["outputs_sha256"]
                self.checks.append(("trace_keeps_outputs", same, f"seed {seed}"))
            self.iterations.append(item)
            self.outputs[str(seed)] = item["untraced"]["outputs_sha256"]
            durations.append(time.monotonic() - t0)
            k += 1
            elapsed = time.monotonic() - loop_start
            if max(durations) > self.remaining():
                break
            if k >= (1 if self.trace else MIN_ITERATIONS) and elapsed + statistics.median(durations) > self.seconds:
                break

    def end_to_end(self) -> dict:
        runs = [it["untraced"] for it in self.iterations]

        share = self.wl.blas_share

        def solve_s(r):
            times = [c["solve_s"] for c in r["commands"]]
            return None if None in times else at_reference(sum(times), r, share)

        setup = self.setup_samples + [at_reference(r["import_s"] + r["commands"][0]["load_s"], r) for r in runs]
        return {
            "wall_s": median([at_reference(r["wall_s"], r, share) for r in runs]),
            "setup_s": median(setup),
            "solve_s": median([solve_s(r) for r in runs]),
            "sim_agent_slots_per_s": median([
                r["agent_slots_per_s"] and r["agent_slots_per_s"] / at_reference(1.0, r) for r in runs
            ]),
            # Largest, not median: the resident peak of one process can
            # differ by a few MB from run to run for the same inputs.
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
            "penalty": median([r["penalty"] for r in runs[:MIN_ITERATIONS]]),
        }

    def per_layer(self) -> dict:
        traced = [it["traced"]["trace"] for it in self.iterations]
        out = {name: median([t.get(name) for t in traced]) for name in PER_LAYER}
        out["trace.overhead_s"] = median(
            [it["traced"]["wall_s"] - it["untraced"]["wall_s"] for it in self.iterations]
        )
        missing = sorted({m for t in traced for m in t.get("trace.missing", [])})
        if missing:
            print(f"perfbench: missing functions, their metrics are null: {', '.join(missing)}", file=sys.stderr)
        return out

    def result(self) -> dict:
        if not self.iterations:
            self.fail("iterations", "no iteration completed")
        metrics = {}
        if self.iterations:
            values = self.per_layer() if self.trace else self.end_to_end()
            units = PER_LAYER if self.trace else END_TO_END
            metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}
        failed = sum(1 for _, ok, _ in self.checks if not ok)
        return {"correct": failed == 0, "attempted": max(len(self.checks), 1), "failed": failed, "metrics": metrics}

    def provenance(self) -> dict:
        lines, src_digest = src_stats()
        return {
            "workload": self.name,
            "seed": self.seed,
            "iterations": len(self.iterations),
            "trace": self.trace,
            "full_solve": self.full_solve,
            "commit": git_commit(),
            "src_sha256": src_digest,
            "src_lines": lines,
            "config_sha256": {self.wl.base: sha256_file(ROOT / self.wl.base), "generated": self.digest},
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            **self.child_info,
            "outputs_sha256": self.outputs,
            "failed_checks": [f"{n}: {d}" for n, ok, d in self.checks if not ok],
        }


def report(run: Run, result: dict) -> None:
    """Human-readable lines; the caller prints the JSON line last."""
    print(f"== {run.name} seed={run.seed} trace={int(run.trace)} iterations={len(run.iterations)}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {metric['unit']}")
    print(f"  {'failed_frac':32s} {result['failed'] / result['attempted']:>14.6g} ({result['failed']}/{result['attempted']})")
    provenance = run.provenance()
    print("provenance " + json.dumps(provenance, sort_keys=True))
    samples = [
        {"seed": it["seed"], **{k: it["untraced"].get(k) for k in
                                ("wall_s", "agent_slots_per_s", "peak_rss_mb", "penalty", "calibration")},
         "solve_s": [c["solve_s"] for c in it["untraced"]["commands"]]}
        for it in run.iterations
    ]
    (run.dir / "result.json").write_text(
        json.dumps({"result": result, "provenance": provenance, "iterations": samples}, indent=1)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="default: the config's own seed")
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-solve", action="store_true", help="keep the committed solver sizes")
    args = parser.parse_args(argv)

    needed = dict.fromkeys([ROOT / "src" / "aoi_guard" / "cli.py"] + [ROOT / wl.base for wl in WORKLOADS.values()])
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        return fail_setup(f"not a complete aoi-guard checkout, missing {', '.join(absent)}")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace), args.full_solve)
        run.execute()
        results[name] = run.result()
        report(run, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
