"""Experiment manifests: a hand-editable YAML document per run.

The loader validates everything eagerly (matrix stochasticity, band edges,
probability ranges, policy names) and reports the offending key by path, so
a typo fails at load time instead of ten minutes into a sweep. The file's
SHA-256 digest rides along into every output for provenance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from .loss import LossMatrix, loss_01, loss_quadratic, loss_safety_example
from .markov import MarkovSource, SafetyMap, banded_safety_map, build_row_chain
from .policies import POLICY_KEYS
from .simulate import SWEEP_AXES, SimConfig
from .tables import AgentClassSpec


class ParseError(Exception):
    """The config file is not a well-formed YAML mapping."""


@dataclass
class RunManifest:
    """Everything a command needs: parsed config, replications, sweep, provenance."""

    sim: SimConfig
    replications: int
    sweep_axis: str | None
    sweep_values: list[int] | None
    digest: str
    path: Path
    name: str
    command: str = ""
    output: Path | None = None
    fmt: str = "csv"
    run_all: bool = False


def _need(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _expect_map(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(value).__name__}")
    return value


def _number(mapping: dict, key: str, where: str, default=None, integer=False):
    if key not in mapping:
        if default is not None:
            return default
        raise ConfigError(f"{where}: missing required key {key!r}")
    v = mapping[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    if integer and int(v) != v:
        raise ConfigError(f"{where}.{key}: expected an integer, got {v!r}")
    return int(v) if integer else float(v)


def _build_source(spec, where: str, delta_bound: int, name: str) -> MarkovSource:
    spec = _expect_map(spec, where)
    kind = spec.get("type", "matrix")
    try:
        if kind == "row_chain":
            rows = _number(spec, "rows", where, integer=True)
            return build_row_chain(
                rows, _number(spec, "up", where), _number(spec, "down", where),
                delta_bound=delta_bound, name=name,
            )
        if kind == "grid2d":
            rows = _number(spec, "rows", where, integer=True)
            cols = _number(spec, "cols", where, integer=True)
            probs = {k: _number(spec, k, where) for k in ("up", "down", "left", "right")}
            return MarkovSource(_grid2d_matrix(rows, cols, **probs), delta_bound=delta_bound, name=name)
        if kind == "matrix":
            rows = _need(spec, "rows", where)
            matrix = np.array(rows, dtype=float)
            return MarkovSource(matrix, delta_bound=delta_bound, name=name)
    except ConfigError:
        raise
    except Exception as exc:  # invalid matrices, bad probabilities
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}.type: unknown source type {kind!r} (row_chain, grid2d, matrix)")


def _grid2d_matrix(rows: int, cols: int, up: float, down: float, left: float, right: float) -> np.ndarray:
    """Four-direction walk on an rows x cols grid; off-edge moves stay put."""
    if rows < 1 or cols < 1:
        raise ConfigError(f"grid2d needs positive dimensions, got {rows}x{cols}")
    if min(up, down, left, right) < 0 or up + down + left + right > 1.0 + 1e-12:
        raise ConfigError("grid2d move probabilities must be nonnegative and sum to at most 1")
    n = rows * cols
    stay = 1.0 - up - down - left - right
    p = np.zeros((n, n))
    for r in range(rows):
        for c in range(cols):
            s = r * cols + c
            p[s, s] += stay
            for prob, (dr, dc) in ((up, (-1, 0)), (down, (1, 0)), (left, (0, -1)), (right, (0, 1))):
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < rows and 0 <= c2 < cols:
                    p[s, r2 * cols + c2] += prob
                else:
                    p[s, s] += prob
    return p


def _build_safety(spec, where: str, source_spec, state_count: int) -> SafetyMap:
    spec = _expect_map(spec, where)
    kind = spec.get("type", "assignment")
    if kind == "bands":
        edges = _need(spec, "edges", where)
        if not isinstance(edges, list) or not all(isinstance(e, int) for e in edges):
            raise ConfigError(f"{where}.edges: expected a list of integers")
        try:
            src = _expect_map(source_spec, where)
            if src.get("type") == "grid2d":
                rows, cols = int(src["rows"]), int(src["cols"])
                row_map = banded_safety_map(rows, edges)
                labels = np.repeat(row_map.assignment, cols)
                return SafetyMap(row_map.label_count, labels)
            return banded_safety_map(state_count, edges)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if kind == "assignment":
        labels = _need(spec, "labels", where)
        if not isinstance(labels, list):
            raise ConfigError(f"{where}.labels: expected a list of label indices")
        try:
            return SafetyMap(max(labels) + 1, np.array(labels, dtype=int))
        except Exception as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}.type: unknown safety type {kind!r} (bands, assignment)")


def _build_loss(spec, where: str) -> LossMatrix:
    spec = _expect_map(spec, where)
    try:
        if "rows" in spec:
            return LossMatrix(np.array(spec["rows"], dtype=float))
        name = _need(spec, "name", where)
        if name == "zero_one":
            return loss_01(_number(spec, "labels", where, integer=True))
        if name == "quadratic":
            return loss_quadratic(_need(spec, "values", where))
        if name == "safety_example":
            return loss_safety_example()
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}.name: unknown loss {spec.get('name')!r} (zero_one, quadratic, safety_example)")


def _build_class(spec, where: str, delta_bound: int) -> AgentClassSpec:
    spec = _expect_map(spec, where)
    name = spec.get("name", where)
    source = _build_source(_need(spec, "source", where), f"{where}.source", delta_bound, name)
    safety = _build_safety(_need(spec, "safety", where), f"{where}.safety", spec.get("source"), source.state_count)
    loss = _build_loss(_need(spec, "loss", where), f"{where}.loss")
    success = _number(spec, "success_prob", where, default=1.0)
    members = _number(spec, "members", where, default=1, integer=True)
    try:
        return AgentClassSpec(source, safety, loss, success, members, name=name)
    except Exception as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path) -> RunManifest:
    """Parse and validate one experiment manifest."""
    path = Path(path)
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a mapping, got {type(doc).__name__}")

    where = str(path)
    delta_bound = _number(doc, "delta_bound", where, default=250, integer=True)
    class_specs = _need(doc, "classes", where)
    if not isinstance(class_specs, list) or not class_specs:
        raise ConfigError(f"{where}.classes: expected a nonempty list")
    classes = tuple(
        _build_class(spec, f"{where}.classes[{i}]", delta_bound) for i, spec in enumerate(class_specs)
    )

    policy = doc.get("policy")
    if policy is None:
        raise ConfigError(f"{where}: missing required key 'policy' (one of {', '.join(POLICY_KEYS)})")
    if policy not in POLICY_KEYS and policy != "all":
        raise ConfigError(f"{where}.policy: {policy!r} is not one of {', '.join(POLICY_KEYS)}")
    run_all = policy == "all"
    if run_all:
        policy = "mgf"

    try:
        sim = SimConfig(
            classes=classes,
            channels=_number(doc, "channels", where, integer=True),
            slots=_number(doc, "slots", where, integer=True),
            warmup=_number(doc, "warmup", where, integer=True) if "warmup" in doc else None,
            seed=_number(doc, "seed", where, default=0, integer=True),
            policy=policy,
            delta_bound=delta_bound,
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{where}: {exc}") from exc

    # The solvers are exact and have no knobs: a `solver` block is ignored, so
    # configs written for the retired value iteration (tol, max_iters) and
    # stochastic price search (beta, eval_horizon, outer_iters) still load.

    sweep_axis = None
    sweep_values = None
    if "sweep" in doc:
        sweep_doc = _expect_map(doc["sweep"], f"{where}.sweep")
        sweep_axis = _need(sweep_doc, "axis", f"{where}.sweep")
        if sweep_axis not in SWEEP_AXES:
            raise ConfigError(f"{where}.sweep.axis: {sweep_axis!r} is not one of {', '.join(SWEEP_AXES)}")
        sweep_values = _need(sweep_doc, "values", f"{where}.sweep")
        if not isinstance(sweep_values, list) or not all(isinstance(v, int) and v > 0 for v in sweep_values):
            raise ConfigError(f"{where}.sweep.values: expected a list of positive integers")

    return RunManifest(
        sim=sim,
        replications=_number(doc, "replications", where, default=1, integer=True),
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        digest=digest,
        path=path,
        name=str(doc.get("name", path.stem)),
        run_all=run_all,
    )
