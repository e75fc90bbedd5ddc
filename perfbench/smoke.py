"""Smoke test of the benchmark harness on configs/chain_pair.yaml; takes seconds.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json names the workloads and metrics the harness
produces, runs one traced iteration of a chain_pair workload (solve, then
simulate with every policy) through the same child process and checks as the
benchmark and expects every check to pass, then shows that the checks catch
faults: one corrupted record, a stage hook that saw no call, and a policy
ordering that is wrong. Exits 0 when every expectation holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
from checks import check_command, check_mgf_first

SMOKE = run.Workload(
    base="configs/chain_pair.yaml",
    commands=(("solve",), ("simulate", "--policy", "all")),
    size={"slots": 2000, "replications": 2},
    solve_size={"solver": {"eval_horizon": 2000}},
)
ALL_CHECKS = {
    "exit_code", "solve_hook", "dual_converged", "stamps", "records",
    "activation_le_M", "tables", "trace_keeps_outputs",
}


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json lists the workloads")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json lists the end-to-end metrics")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json lists the per-layer metrics")

    run.WORKLOADS["chain-pair-smoke"] = SMOKE
    smoke = run.Run("chain-pair-smoke", None, 0.0, True, False)
    smoke.execute()
    result = smoke.result()
    names = {name for name, _, _ in smoke.checks}
    expect(names == ALL_CHECKS, f"every per-command check ran ({sorted(names)})")
    expect(result["correct"] and result["failed"] == 0,
           f"all {result['attempted']} checks pass: {[c for c in smoke.checks if not c[1]]}")
    expect(all(m["value"] is not None for m in result["metrics"].values()), "every per-layer metric measured")

    spec = smoke.spec("run", "corrupt", smoke.seed)
    res, err = run.run_child(spec, smoke.dir / "corrupt.spec.json", 120.0)
    expect(res is not None, f"child ran {err}")
    if res is not None:
        cmd, want = res["commands"][1], smoke.expect[1]
        records = Path(spec["commands"][1][-1])

        def failed_checks(command: dict) -> set[str]:
            checks, _ = check_command(command, want, records, res["version"], smoke.digest)
            return {name for name, ok, _ in checks if not ok}

        expect(failed_checks(cmd) == set(), "clean records pass")
        lines = records.read_text().splitlines()
        fields = lines[-1].split(",")
        fields[8] = repr(float(want["channels"]) + 1.0)  # activation_rate above the budget
        records.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
        expect(failed_checks(cmd) == {"activation_le_M"}, "a corrupted record fails activation_le_M")
        expect("solve_hook" in failed_checks(dict(cmd, solve_calls=0)), "zero solve_system calls fail")

    expect(check_mgf_first({"mgf": [1.0], "maf": [2.0]})[1], "MGF below the baselines passes")
    expect(not check_mgf_first({"mgf": [2.0], "maf": [1.0]})[1], "MGF above a baseline fails")
    shutil.rmtree(smoke.dir, ignore_errors=True)
    print(f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
