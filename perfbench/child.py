"""One benchmark iteration in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json

The spec names the checkout's `src/` directory, the config, the CLI argument
lists to run through `aoi_guard.cli.main`, whether to trace, and where to
write the result JSON. Everything is timed from outside the package: the
stage hooks on `cli.load_config` and `cli.solve_system` are always on (they
give `setup_s`, `solve_s` and the time after the solve); the per-layer wrappers are
installed only when the spec asks for tracing. Nothing inside `src/` is
changed.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

perf = time.perf_counter


class Tracer:
    """Spans kept in memory as (name, start, end, parent index), written at the end.

    A wrapper is installed where the caller looks the name up, so a function
    imported by name into several modules is wrapped in each of them. A
    function that no longer exists is recorded in `missing` by its dotted
    name, and the metrics that need it are reported as null.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = [-1]
        self.enabled = True
        self.missing: list[str] = []
        self.counts: dict[str, float] = {}

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            index = len(tracer.spans)
            tracer.spans.append((span_name, 0.0, 0.0, tracer.stack[-1]))
            tracer.stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                tracer.stack.pop()
                tracer.spans[index] = (span_name, start, end, tracer.spans[index][3])
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[i]
        return out

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


def install_tracing(tracer: Tracer) -> None:
    """Wrap each layer's functions at the places their callers look them up."""
    from aoi_guard import bandit, cli, markov, simulate

    def table_cells(args, kwargs, result):
        tracer.count("tables.build.cells", result[0].values.size)

    def rvi_sweeps(args, kwargs, result):
        tracer.count("bandit.rvi.sweeps", result.iterations)

    def dual_outcome(args, kwargs, result):
        _, trace, _ = result
        tracer.count("bandit.dual.evals", len(trace.iterations))

    # cli.main itself is the root span; its self time is cli.self.s.
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_config", "config.load")
    tracer.wrap(cli, "solve_system", "simulate.solve_system")
    tracer.wrap(cli, "run_paired", "simulate.run_paired")
    for owner in (bandit, simulate, markov):
        tracer.wrap(owner, "is_primitive", "markov.is_primitive")
    for owner in (bandit, simulate):
        tracer.wrap(owner, "stationary_distribution", "markov.stationary")
        tracer.wrap(owner, "build_tables", "tables.build", table_cells)
    tracer.wrap(simulate, "dual_ascent", "bandit.dual", dual_outcome)
    tracer.wrap(bandit, "relative_value_iteration", "bandit.rvi", rvi_sweeps)
    for kernel in ("top_positive_ids", "top_ids", "uniform_subset"):
        tracer.wrap(simulate, kernel, f"policies.{kernel}")
    # The per-policy slot loop has no public name; if it is renamed or
    # merged, the loop metrics become null with this name attached.
    tracer.wrap(simulate, "_run_policy", lambda args: f"simulate.loop.{args[2]}")


def rate_at_lambda_star(system) -> float | None:
    """Activation rate the dual search measured at the price it returned."""
    rates = [rate for _, lam, rate in system.trace.iterations if lam == system.lambda_star]
    return rates[-1] if rates else None


CALIBRATION_REPEATS = 7


def calibrate() -> dict[str, float]:
    """Median seconds of two fixed kernels that use neither the package nor its data.

    The shared host's speed changes by up to half within minutes, and not by
    the same factor for all code. `interpreter_s` times small-array numpy
    calls made from the interpreter, like the slot loops and the small-chain
    solves; `blas_s` times 400x400 matrix-vector products, like grid400's
    value iteration. Timings are scaled by them; see run.py.
    """
    import numpy as np

    interpreter, blas = [], []
    for _ in range(CALIBRATION_REPEATS):
        rng = np.random.default_rng(12345)
        gains = rng.random(20)
        p, h = rng.random((400, 400)), rng.random(400)
        start = perf()
        for i in range(4000):
            order = np.argsort(-gains, kind="stable")[:2]
            gains[i % 20] = (gains[int(order[0])] * 1.1) % 1.0
        middle = perf()
        for _ in range(600):
            h = p @ h
            h /= h.sum()
        interpreter.append(middle - start)
        blas.append(perf() - middle)
    mid = CALIBRATION_REPEATS // 2
    return {"interpreter_s": sorted(interpreter)[mid], "blas_s": sorted(blas)[mid]}


def output_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return 0


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))

    start = perf()
    import aoi_guard.cli as cli
    import_s = perf() - start

    import numpy

    pkg_file = Path(cli.__file__).resolve()
    if src not in pkg_file.parents:
        print(f"aoi_guard was imported from {pkg_file}, not from {src}", file=sys.stderr)
        return 2
    result: dict = {"import_s": import_s, "version": __import__("aoi_guard").__version__,
                    "numpy": numpy.__version__, "python": sys.version.split()[0]}

    if spec["mode"] == "setup":
        start = perf()
        cli.load_config(spec["config"])
        result["load_s"] = perf() - start
        result["calibration"] = calibrate()
        Path(spec["result"]).write_text(json.dumps(result))
        return 0

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        install_tracing(tracer)

    # Stage hooks, always on: they time the calls the CLI makes and keep
    # what the solve returned for the correctness checks.
    stage: dict = {"load": [], "solve": [], "systems": [], "manifests": []}
    load_config, solve_system = cli.load_config, cli.solve_system

    def timed_load(*args, **kwargs):
        t0 = perf()
        manifest = load_config(*args, **kwargs)
        stage["load"].append(perf() - t0)
        stage["manifests"].append(manifest)
        return manifest

    def timed_solve(*args, **kwargs):
        t0 = perf()
        system = solve_system(*args, **kwargs)
        t1 = perf()
        stage["solve"].append((t0, t1))
        stage["systems"].append(system)
        return system

    cli.load_config, cli.solve_system = timed_load, timed_solve

    calibration_before = calibrate()
    commands = []
    for argv in spec["commands"]:
        n_load, n_solve = len(stage["load"]), len(stage["solve"])
        t0 = perf()
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation, reported below
            code = f"{type(exc).__name__}: {exc}"
        t1 = perf()
        solves = stage["solve"][n_solve:]
        cmd = {
            "argv": argv,
            "exit_code": code,
            "cmd_s": t1 - t0,
            "load_s": sum(stage["load"][n_load:]),
            "solve_calls": len(solves),
            "solve_s": sum(b - a for a, b in solves) if solves else None,
            "post_solve_s": t1 - solves[-1][1] if solves else None,
            "bytes_written": output_bytes(Path(argv[argv.index("--output") + 1])),
            "solve": None,
        }
        if solves and stage["systems"][-1].trace is not None:
            system = stage["systems"][-1]
            rate = rate_at_lambda_star(system)
            cmd["solve"] = {
                "converged": bool(system.trace.converged),
                "lambda_star": system.lambda_star,
                "rate_at_lambda_star": rate,
                "evals": len(system.trace.iterations),
            }
        commands.append(cmd)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["commands"] = commands
    result["wall_s"] = import_s + sum(c["cmd_s"] for c in commands)

    # Untimed follow-up work on the last command's solved system.
    manifest = stage["manifests"][-1] if stage["manifests"] else None
    system = stage["systems"][-1] if stage["systems"] else None
    quality = spec.get("quality")
    if quality and manifest is not None and system is not None and system.solutions is not None:
        from aoi_guard.simulate import run_paired

        if tracer is not None:
            tracer.enabled = False
        sim = replace(manifest.sim, slots=quality["slots"], warmup=None)
        start = perf()
        record = run_paired(sim, [quality["policy"]], system, sim.seed)[0]
        result["quality_s"] = perf() - start
        result["quality_agent_slots"] = sim.slots * sim.agent_count
        result["quality_penalty"] = record.normalized_penalty
    # After the MGF run too, so the calibration brackets every timed part.
    calibration_after = calibrate()
    result["calibration"] = {k: (calibration_before[k] + calibration_after[k]) / 2 for k in calibration_after}

    if tracer is not None:
        tracer.enabled = False
        result["trace"] = trace_metrics(tracer, spec, manifest, system, commands)
        tracer.write(Path(spec["result"]).with_suffix(".spans.csv"))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


def trace_metrics(tracer: Tracer, spec: dict, manifest, system, commands: list[dict]) -> dict:
    """Per-layer metrics of one traced iteration; None where a layer is missing."""
    totals = tracer.totals()
    missing = set(tracer.missing)

    def agg(span: str, key: str, needs: str):
        if any(m.endswith("." + needs) for m in missing):
            return None
        return totals.get(span, {}).get(key, 0)

    def counted(key: str, needs: str):
        if any(m.endswith("." + needs) for m in missing):
            return None
        return tracer.counts.get(key, 0)

    out: dict = {
        "config.load_s": agg("config.load", "self_s", "load_config"),
        "markov.is_primitive.calls": agg("markov.is_primitive", "calls", "is_primitive"),
        "markov.is_primitive.s": agg("markov.is_primitive", "self_s", "is_primitive"),
        "markov.stationary.calls": agg("markov.stationary", "calls", "stationary_distribution"),
        "markov.stationary.s": agg("markov.stationary", "self_s", "stationary_distribution"),
        "tables.build.calls": agg("tables.build", "calls", "build_tables"),
        "tables.build.s": agg("tables.build", "self_s", "build_tables"),
        "tables.build.cells": counted("tables.build.cells", "build_tables"),
        "bandit.dual.s": agg("bandit.dual", "s", "dual_ascent"),
        "bandit.dual.evals": counted("bandit.dual.evals", "dual_ascent"),
        "bandit.rvi.calls": agg("bandit.rvi", "calls", "relative_value_iteration"),
        "bandit.rvi.s": agg("bandit.rvi", "self_s", "relative_value_iteration"),
        "bandit.rvi.sweeps": counted("bandit.rvi.sweeps", "relative_value_iteration"),
        "bandit.rollout.s": agg("bandit.dual", "self_s", "dual_ascent"),
        "bandit.rate_gap": 0.0,
        "cli.self.s": agg("cli.main", "self_s", "main"),
        "cli.bytes_written": sum(c["bytes_written"] for c in commands),
    }
    if system is not None and system.trace is not None and manifest is not None:
        rate = rate_at_lambda_star(system)
        m = manifest.sim.channels
        out["bandit.rate_gap"] = abs(rate - m) / m if rate is not None else None
    for kernel in ("top_positive_ids", "top_ids", "uniform_subset"):
        out[f"policies.{kernel}.calls"] = agg(f"policies.{kernel}", "calls", kernel)
        out[f"policies.{kernel}.s"] = agg(f"policies.{kernel}", "self_s", kernel)

    slots = manifest.sim.slots if manifest is not None else 0
    for policy in spec["policy_keys"]:
        loop = agg(f"simulate.loop.{policy}", "s", "_run_policy")
        runs = agg(f"simulate.loop.{policy}", "calls", "_run_policy")
        out[f"simulate.loop.s.{policy}"] = loop
        out[f"simulate.slot_us.{policy}"] = (
            None if loop is None else (loop / (runs * slots) * 1e6 if runs else 0.0)
        )

    # World generation alone: run_paired with no policies, untraced.
    out["simulate.world.s"] = 0.0
    if spec["simulates"] and manifest is not None and system is not None:
        from aoi_guard.simulate import run_paired

        start = perf()
        run_paired(manifest.sim, [], system, manifest.sim.seed)
        out["simulate.world.s"] = perf() - start
    out["trace.missing"] = sorted(missing)
    for key, value in out.items():
        if isinstance(value, float) and not math.isfinite(value):
            out[key] = None
    return out


if __name__ == "__main__":
    sys.exit(main())
