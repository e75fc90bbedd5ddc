"""Write every CLI artifact of the committed configs into one directory.

Usage: python3 tools/write_artifacts.py OUT

For each config under `configs/` it runs, through `aoi_guard.cli.main` of
this checkout's `src/`:
- `solve` into OUT/<name>/solve/;
- `profile --deltas 1,2,5` into OUT/<name>/profile/;
- `simulate` with the config's own policy and with `--policy all`, each in
  csv and json, into OUT/<name>/simulate_{config,all}.{csv,json};
- `sweep` in csv and json into OUT/<name>/sweep.{csv,json}, for configs
  that have a sweep section.

Every config runs at its committed size, so a run takes minutes. Running
it on two checkouts and comparing them with `diff -r OUT_A OUT_B` checks that
the solve tables and the simulate records are byte-identical. It exits
nonzero as soon as a command does.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from aoi_guard.cli import main  # noqa: E402
from aoi_guard.config import load_config  # noqa: E402


def commands(config: Path, out: Path) -> list[list[str]]:
    """The CLI argument lists for one config, writing under `out`."""
    base, sweeps = ["--config", str(config)], load_config(config).sweep_axis is not None
    runs = [
        ["solve", *base, "--output", str(out / "solve")],
        ["profile", *base, "--deltas", "1,2,5", "--output", str(out / "profile")],
    ]
    for fmt in ("csv", "json"):
        for policy in ("config", "all"):
            flags = [] if policy == "config" else ["--policy", "all"]
            runs.append(["simulate", *base, *flags, "--format", fmt, "--output", str(out / f"simulate_{policy}.{fmt}")])
        if sweeps:
            runs.append(["sweep", *base, "--format", fmt, "--output", str(out / f"sweep.{fmt}")])
    return runs


def run(out: Path) -> int:
    for config in sorted((ROOT / "configs").glob("*.yaml")):
        for argv in commands(config, out / config.stem):
            print("aoi-guard", " ".join(argv), flush=True)
            code = main(argv)
            if code:
                return code
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run(Path(sys.argv[1])))
