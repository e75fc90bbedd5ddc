"""Correctness checks on what one benchmark iteration wrote and reported.

Each check returns (name, ok, detail). Every check run counts as one
attempted operation and every failed one as a failed operation, so
`failed / attempted` is the run's failed fraction. The checks read only the
artifacts on disk and the facts the child process reported; they never
import the package under test.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

RATE_BAND = 0.05
RECORD_FIELDS = (
    "policy", "N", "M", "r", "seed", "slots",
    "total_loss", "normalized_penalty", "activation_rate", "mean_aoi",
)
NUMERIC_FIELDS = RECORD_FIELDS[1:]

Check = tuple[str, bool, str]


def stamped_body(path: Path, version: str, digest: str) -> tuple[bool, str]:
    """Whether the artifact carries the version/digest stamp, and its body without it."""
    text = path.read_text()
    if path.suffix == ".json":
        doc = json.loads(text)
        ok = doc.get("version") == version and doc.get("config_digest") == digest
        body = {k: v for k, v in doc.items() if k not in ("version", "config_digest")}
        return ok, json.dumps(body, sort_keys=True)
    lines = text.splitlines(keepends=True)
    ok = lines[:2] == [f"# aoi-guard {version}\n", f"# config_digest={digest}\n"]
    return ok, "".join(lines[2:])


def artifacts(out: Path) -> list[Path]:
    if out.is_file():
        return [out]
    return sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []


def number(value) -> float:
    """The field as a float, NaN when it is missing or not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def all_finite(rows: list[dict], fields) -> bool:
    return all(math.isfinite(number(row.get(f))) for row in rows for f in fields)


def read_csv(body: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(body)))


def check_command(cmd: dict, expect: dict, out: Path, version: str, digest: str) -> tuple[list[Check], str]:
    """Checks for one CLI command, plus the sha256 of its unstamped artifacts.

    `expect` holds what the config implies: channels, replications, the
    policies run, whether a dual search must have run, and for solve the
    expected table rows per class file.
    """
    checks: list[Check] = [("exit_code", cmd["exit_code"] == 0, f"exit {cmd['exit_code']!r}")]
    # A stage hook that saw no call means the stage was not measured; that
    # is a failure, never a 0 s stage.
    checks.append(("solve_hook", cmd["solve_calls"] == 1, f"{cmd['solve_calls']} solve_system call(s)"))
    if expect["gains"]:
        solve = cmd["solve"]
        m = expect["channels"]
        rate = solve and solve["rate_at_lambda_star"]
        ok = bool(solve and solve["converged"] and rate is not None and abs(rate - m) <= RATE_BAND * m)
        checks.append(("dual_converged", ok, f"solve {solve}"))

    files = artifacts(out)
    bodies = {}
    stamps_ok = bool(files)
    for path in files:
        ok, body = stamped_body(path, version, digest)
        stamps_ok &= ok
        bodies[path.name] = body
    checks.append(("stamps", stamps_ok, f"{len(files)} artifact(s) under {out.name}"))
    digest_all = hashlib.sha256(
        "".join(f"{name}\n{body}" for name, body in sorted(bodies.items())).encode()
    ).hexdigest()

    if expect["command"] == "simulate":
        body = next(iter(bodies.values()), "")
        records = read_csv(body)
        want = len(expect["policies"]) * expect["replications"]
        ok = (len(records) == want and all_finite(records, NUMERIC_FIELDS)
              and all(r["policy"] in expect["policies"] for r in records))
        checks.append(("records", ok, f"{len(records)} record(s), want {want}, all finite"))
        over = [r for r in records if not number(r.get("activation_rate")) <= expect["channels"]]
        checks.append(("activation_le_M", not over, f"{len(over)} record(s) above M={expect['channels']}"))
    else:
        bad = []
        for name, rows_wanted in expect["table_rows"].items():
            rows = read_csv(bodies.get(name, ""))
            if len(rows) != rows_wanted or not all_finite(rows, ("delta", "x", "q", "f", "alpha")):
                bad.append(f"{name}: {len(rows)} rows, want {rows_wanted}")
        trace_rows = read_csv(bodies.get("dual_trace.csv", ""))
        evals = (cmd["solve"] or {}).get("evals")
        if len(trace_rows) != evals or not all_finite(trace_rows, ("iteration", "lambda", "activation_rate")):
            bad.append(f"dual_trace.csv: {len(trace_rows)} rows, want {evals}")
        summary = json.loads(bodies.get("summary.json", "{}"))
        if not (summary.get("converged") is True and math.isfinite(number(summary.get("lambda_star")))):
            bad.append(f"summary.json: {summary}")
        checks.append(("tables", not bad, "; ".join(bad) or "rows and values ok"))
    return checks, digest_all


def policy_penalties(out: Path) -> dict[str, list[float]]:
    """Normalized penalties per policy from the records files directly in `out`.

    simulate writes one records file per command there; solve writes a
    directory of tables, which this skips.
    """
    means: dict[str, list[float]] = {}
    for path in sorted(out.glob("*.csv")):
        lines = path.read_text().splitlines(keepends=True)
        for row in read_csv("".join(line for line in lines if not line.startswith("#"))):
            means.setdefault(row["policy"], []).append(number(row["normalized_penalty"]))
    return means


def check_mgf_first(penalties: dict[str, list[float]]) -> Check:
    """The paper's ordering: MGF's mean penalty is below every baseline's."""
    mean = {p: sum(v) / len(v) for p, v in penalties.items() if v}
    mgf = mean.get("mgf")
    others = {p: m for p, m in mean.items() if p != "mgf"}
    ok = mgf is not None and bool(others) and all(mgf < m for m in others.values())
    return ("mgf_below_baselines", ok, f"means {mean}")
