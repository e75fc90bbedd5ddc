"""Command-line surface: solve | simulate | sweep | profile.

`main` loads the manifest, sets the `--seed` override (and, for `simulate`
and `sweep`, the `--slots` and `--policy` overrides) on that same object, and
hands it to one `cmd_*` function together with the `--output` path (and, for
the record-writing commands, the `--format`).
Every output file goes through `_write`, which stamps it with the tool version
and the config digest, so a result can always be traced back to the exact
manifest that produced it. `_write` alone decides how a value is written;
`simulate` and `bandit` return data only. Exit codes distinguish failure
families: 2 parse, 3 validation, 4 solver convergence, 5 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .config import ParseError, RunManifest, load_config, parse_policies
from .errors import ConvergenceError, ValidationError
from .simulate import SimRecord, run_paired, run_sweep, solve_system

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CONVERGENCE = 4
EXIT_IO = 5


# The record schema: each artifact column, in order, and the SimRecord field it holds.
RECORD_COLUMNS = (
    ("policy", "policy"),
    ("N", "agents"),
    ("M", "channels"),
    ("r", "scale"),
    ("seed", "seed"),
    ("slots", "slots"),
    ("total_loss", "total_loss"),
    ("normalized_penalty", "normalized_penalty"),
    ("activation_rate", "activation_rate"),
    ("mean_aoi", "mean_aoi"),
)


def _write(path: Path, manifest: RunManifest, body: dict | tuple[Sequence[str], Iterable[Sequence]]) -> None:
    """Write one stamped artifact.

    A `.json` path gets the object `{"version", "config_digest", **body}`.
    Any other path gets two `#` stamp lines, then `body`'s (header, rows) as
    CSV lines, streamed one row at a time. A cell is `str` of a Python value,
    so a float is its shortest round-trip repr and parses back exactly.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        if path.suffix == ".json":
            text = json.dumps({"version": __version__, "config_digest": manifest.digest, **body}, indent=2)
            fh.writelines([text, "\n"])
        else:
            header, rows = body
            fh.write(f"# aoi-guard {__version__}\n# config_digest={manifest.digest}\n")
            fh.writelines(",".join(map(str, row)) + "\n" for row in chain([header], rows))


def _table(ages: Iterable[int], tables: Sequence[np.ndarray]) -> Iterator[tuple]:
    """Rows (delta, x, *cells) of per-class (age, x) tables, built one age at a time."""
    for delta in ages:
        columns = [table[delta].tolist() for table in tables]
        states = len(columns[0])
        yield from zip([delta] * states, range(states), *columns, strict=True)


def _report(manifest: RunManifest, records: list[SimRecord], default_name: str, output: Path | None, fmt: str) -> int:
    """Write the records sorted by (policy, r, N, M, seed), print each policy's mean (ties by name) and the path."""
    records = sorted(records, key=lambda r: (r.policy, r.scale, r.agents, r.channels, r.seed))
    out = output or Path(f"{manifest.name}_{default_name}")
    if out.is_dir():
        out = out / f"{manifest.name}_{default_name}"
    out = out.with_suffix(f".{fmt}")
    header = [column for column, _ in RECORD_COLUMNS]
    rows = [[getattr(r, field) for _, field in RECORD_COLUMNS] for r in records]
    body = {"records": [dict(zip(header, row)) for row in rows]} if fmt == "json" else (header, rows)
    _write(out, manifest, body)
    penalties: dict[str, list[float]] = {}
    for r in records:
        penalties.setdefault(r.policy, []).append(r.normalized_penalty)
    for mean, policy in sorted((float(np.mean(v)), p) for p, v in penalties.items()):
        print(f"{policy}: mean normalized penalty {mean:.6g} over {len(penalties[policy])} run(s)")
    print(f"wrote {len(records)} record(s) -> {out}")
    return EXIT_OK


def cmd_solve(manifest: RunManifest, output: Path | None) -> int:
    system = solve_system(manifest.sim, with_gains=True)
    out_dir = output or Path(f"{manifest.name}_solve")
    ages = range(1, manifest.sim.delta_bound + 1)
    for i, cls in enumerate(manifest.sim.classes):
        tables = (system.penalties[i].values, system.estimators[i], system.solutions[i].gain)
        rows = _table(ages, tables)
        _write(out_dir / f"tables_{i}_{cls.name}.csv", manifest, (("delta", "x", "q", "f", "alpha"), rows))
    trace = (("iteration", "lambda", "activation_rate"), system.trace.iterations)
    _write(out_dir / "dual_trace.csv", manifest, trace)
    summary = {
        "lambda_star": system.lambda_star,
        "avg_costs": {cls.name: sol.avg_cost for cls, sol in zip(manifest.sim.classes, system.solutions)},
        "converged": system.trace.converged,
    }
    _write(out_dir / "summary.json", manifest, summary)
    print(f"lambda_star={system.lambda_star!r} converged={system.trace.converged} -> {out_dir}")
    return EXIT_OK


def cmd_simulate(manifest: RunManifest, output: Path | None, fmt: str) -> int:
    system = solve_system(manifest.sim, with_gains="mgf" in manifest.policies)
    records = run_paired(
        manifest.sim, manifest.policies, system, manifest.sim.seed, replications=manifest.replications
    )
    return _report(manifest, records, "records", output, fmt)


def cmd_sweep(manifest: RunManifest, output: Path | None, fmt: str) -> int:
    if manifest.sweep_axis is None:
        raise ValidationError(f"{manifest.path}: sweep command needs a 'sweep' section (axis, values)")
    records = run_sweep(
        manifest.sim,
        manifest.sweep_axis,
        manifest.sweep_values,
        policies=manifest.policies,
        replications=manifest.replications,
    )
    return _report(manifest, records, f"sweep_{manifest.sweep_axis}", output, fmt)


def cmd_profile(manifest: RunManifest, deltas: list[int], output: Path | None) -> int:
    system = solve_system(manifest.sim, with_gains=True)
    out_dir = output or Path(f"{manifest.name}_profile")
    classes = {}
    for i, cls in enumerate(manifest.sim.classes):
        q, gain = system.penalties[i].values, system.solutions[i].gain
        rows = _table(deltas, (q, gain))
        _write(out_dir / f"profile_{i}_{cls.name}.csv", manifest, (("delta", "x", "q", "alpha"), rows))
        classes[cls.name] = {
            str(delta): {
                "argmax_x": int(np.argmax(q[delta])),
                "above_half_max": np.flatnonzero(q[delta] > 0.5 * q[delta].max()).tolist(),
                "argmax_alpha_x": int(np.argmax(gain[delta])),
            }
            for delta in deltas
        }
    _write(out_dir / "profile_summary.json", manifest, {"classes": classes})
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
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name in ("simulate", "sweep"):
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            p.add_argument("--slots", type=int, default=None, help="override the config horizon")
            p.add_argument("--policy", default=None, help="override the config policy; 'all' runs every one")
        if name == "profile":
            p.add_argument("--deltas", default="1,2,5,10", help="comma-separated ages to profile")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        manifest = load_config(args.config)
        if args.seed is not None:
            manifest.sim = replace(manifest.sim, seed=args.seed)
        if args.command == "solve":
            return cmd_solve(manifest, args.output)
        if args.command == "profile":
            try:
                deltas = [int(v) for v in str(args.deltas).split(",") if v.strip()]
            except ValueError:
                raise ValidationError(f"--deltas must be comma-separated integers, got {args.deltas!r}")
            for delta in deltas:
                if not 1 <= delta <= manifest.sim.delta_bound:
                    raise ValidationError(f"profile delta {delta} outside [1, {manifest.sim.delta_bound}]")
            return cmd_profile(manifest, deltas, args.output)

        if args.slots is not None:
            manifest.sim = replace(manifest.sim, slots=args.slots, warmup=None)
        if args.policy is not None:
            manifest.policies = parse_policies(args.policy, "--policy")
        command = cmd_simulate if args.command == "simulate" else cmd_sweep
        return command(manifest, args.output, args.format)
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
