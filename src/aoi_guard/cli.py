"""Command-line surface: solve | simulate | sweep | profile.

Every output file embeds the tool version and the config digest, so a result
can always be traced back to the exact manifest that produced it. Exit codes
distinguish failure families: 2 parse, 3 validation, 4 solver convergence,
5 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ParseError, RunManifest, load_config
from .errors import ConvergenceError, ValidationError
from .policies import POLICY_KEYS
from .simulate import (
    SimRecord,
    SolvedSystem,
    records_to_csv,
    records_to_json,
    run_paired,
    run_sweep,
    solve_system,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CONVERGENCE = 4
EXIT_IO = 5


def _stamp_lines(manifest: RunManifest) -> str:
    return f"# aoi-guard {__version__}\n# config_digest={manifest.digest}\n"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_records(manifest: RunManifest, records: list[SimRecord], default_name: str) -> Path:
    out = manifest.output or Path(f"{manifest.name}_{default_name}")
    if out.is_dir():
        out = out / f"{manifest.name}_{default_name}"
    if manifest.fmt == "json":
        out = out.with_suffix(".json")
        body = {
            "version": __version__,
            "config_digest": manifest.digest,
            "records": records_to_json(records),
        }
        _write_text(out, json.dumps(body, indent=2) + "\n")
    else:
        out = out.with_suffix(".csv")
        _write_text(out, _stamp_lines(manifest) + records_to_csv(records))
    return out


def _policies_for(manifest: RunManifest) -> list[str]:
    return list(POLICY_KEYS) if manifest.run_all else [manifest.sim.policy]


def _summarize(records: list[SimRecord]) -> list[str]:
    lines = []
    for policy in sorted({r.policy for r in records}, key=lambda p: _mean(records, p)):
        lines.append(
            f"{policy}: mean normalized penalty {_mean(records, policy):.6g} over "
            f"{sum(1 for r in records if r.policy == policy)} run(s)"
        )
    return lines


def _mean(records: list[SimRecord], policy: str) -> float:
    vals = [r.normalized_penalty for r in records if r.policy == policy]
    return float(np.mean(vals))


def cmd_solve(manifest: RunManifest) -> int:
    system = solve_system(manifest.sim, with_gains=True)
    out_dir = manifest.output or Path(f"{manifest.name}_solve")
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = _stamp_lines(manifest)
    for i, cls in enumerate(manifest.sim.classes):
        pen, est, sol = system.penalties[i], system.estimators[i], system.solutions[i]
        rows = ["delta,x,q,f,alpha"]
        for delta in range(1, manifest.sim.delta_bound + 1):
            for x in range(cls.source.state_count):
                rows.append(
                    f"{delta},{x},{float(pen.values[delta, x])!r},"
                    f"{int(est.choices[delta, x])},{float(sol.gain[delta, x])!r}"
                )
        _write_text(out_dir / f"tables_{i}_{cls.name}.csv", stamp + "\n".join(rows) + "\n")
    _write_text(out_dir / "dual_trace.csv", stamp + "\n".join(system.trace.csv_rows()) + "\n")
    summary = {
        "version": __version__,
        "config_digest": manifest.digest,
        "lambda_star": system.lambda_star,
        "avg_costs": {cls.name: sol.avg_cost for cls, sol in zip(manifest.sim.classes, system.solutions)},
        "converged": system.trace.converged,
    }
    _write_text(out_dir / "summary.json", json.dumps(summary, indent=2) + "\n")
    print(f"lambda_star={system.lambda_star!r} converged={system.trace.converged} -> {out_dir}")
    return EXIT_OK


def _warn_if_unconverged(system: SolvedSystem, channels: int) -> None:
    """One stderr line when the dual price search stopped outside its band."""
    trace = system.trace
    if trace is None or trace.converged:
        return
    rate = next(r for _, lam, r in reversed(trace.iterations) if lam == trace.lambda_star)
    print(
        f"warning: dual price search did not converge: relaxed activation rate {rate!r} "
        f"at lambda={trace.lambda_star!r} against M={channels} channels",
        file=sys.stderr,
    )


def cmd_simulate(manifest: RunManifest) -> int:
    policies = _policies_for(manifest)
    system = solve_system(manifest.sim, with_gains="mgf" in policies)
    _warn_if_unconverged(system, manifest.sim.channels)
    records: list[SimRecord] = []
    for rep in range(manifest.replications):
        cfg = replace(manifest.sim, seed=manifest.sim.seed + rep)
        records.extend(run_paired(cfg, policies, system, cfg.seed))
    records.sort(key=lambda r: (r.policy, r.seed))
    out = _write_records(manifest, records, "records")
    for line in _summarize(records):
        print(line)
    print(f"wrote {len(records)} record(s) -> {out}")
    return EXIT_OK


def cmd_sweep(manifest: RunManifest) -> int:
    if manifest.sweep_axis is None:
        raise ValidationError(f"{manifest.path}: sweep command needs a 'sweep' section (axis, values)")
    policies = _policies_for(manifest)
    records = run_sweep(
        manifest.sim,
        manifest.sweep_axis,
        manifest.sweep_values,
        policies=policies,
        replications=manifest.replications,
    )
    out = _write_records(manifest, records, f"sweep_{manifest.sweep_axis}")
    for line in _summarize(records):
        print(line)
    print(f"wrote {len(records)} record(s) -> {out}")
    return EXIT_OK


def cmd_profile(manifest: RunManifest, deltas: list[int]) -> int:
    system = solve_system(manifest.sim, with_gains=True)
    out_dir = manifest.output or Path(f"{manifest.name}_profile")
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = _stamp_lines(manifest)
    summary: dict = {"version": __version__, "config_digest": manifest.digest, "classes": {}}
    for i, cls in enumerate(manifest.sim.classes):
        pen, sol = system.penalties[i], system.solutions[i]
        rows = ["delta,x,q,alpha"]
        per_delta = {}
        for delta in deltas:
            if not 1 <= delta <= manifest.sim.delta_bound:
                raise ValidationError(f"profile delta {delta} outside [1, {manifest.sim.delta_bound}]")
            q = pen.values[delta]
            for x in range(cls.source.state_count):
                rows.append(f"{delta},{x},{float(q[x])!r},{float(sol.gain[delta, x])!r}")
            half = 0.5 * float(q.max())
            per_delta[str(delta)] = {
                "argmax_x": int(np.argmax(q)),
                "above_half_max": [int(x) for x in np.flatnonzero(q > half)],
                "argmax_alpha_x": int(np.argmax(sol.gain[delta])),
            }
        _write_text(out_dir / f"profile_{i}_{cls.name}.csv", stamp + "\n".join(rows) + "\n")
        summary["classes"][cls.name] = per_delta
    _write_text(out_dir / "profile_summary.json", json.dumps(summary, indent=2) + "\n")
    print(f"profiles for deltas {deltas} -> {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aoi-guard", description=__doc__)
    parser.add_argument("--version", action="version", version=f"aoi-guard {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "compute penalty/estimator tables, gains, and the dual price"),
        ("simulate", "run the configured policy (or all) for the configured horizon"),
        ("sweep", "run the config's sweep axis across policies and seeds"),
        ("profile", "emit penalty/gain profiles per observation for fixed ages"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, type=Path, help="experiment manifest (YAML)")
        p.add_argument("--output", type=Path, default=None, help="output file or directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--slots", type=int, default=None, help="override the config horizon")
        p.add_argument("--policy", default=None, help="override the config policy; 'all' runs every one")
        if name == "profile":
            p.add_argument("--deltas", default="1,2,5,10", help="comma-separated ages to profile")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        manifest = load_config(args.config)
        manifest.command = args.command
        manifest.output = args.output
        manifest.fmt = args.format
        sim = manifest.sim
        if args.seed is not None:
            sim = replace(sim, seed=args.seed)
        if args.slots is not None:
            sim = replace(sim, slots=args.slots, warmup=None)
        if args.policy is not None:
            if args.policy == "all":
                manifest.run_all = True
            elif args.policy in POLICY_KEYS:
                sim = replace(sim, policy=args.policy)
                manifest.run_all = False
            else:
                raise ValidationError(f"--policy must be 'all' or one of {', '.join(POLICY_KEYS)}")
        manifest.sim = sim

        if args.command == "solve":
            return cmd_solve(manifest)
        if args.command == "simulate":
            return cmd_simulate(manifest)
        if args.command == "sweep":
            return cmd_sweep(manifest)
        try:
            deltas = [int(v) for v in str(args.deltas).split(",") if v.strip()]
        except ValueError:
            raise ValidationError(f"--deltas must be comma-separated integers, got {args.deltas!r}")
        return cmd_profile(manifest, deltas)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
