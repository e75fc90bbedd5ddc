"""Experiment manifests: a hand-editable YAML document per run.

The loader validates everything eagerly (matrix stochasticity, band edges,
probability ranges, policy names) and reports the offending key by path, so
a typo fails at load time instead of ten minutes into a sweep. The file's
SHA-256 digest rides along into every output for provenance.

This module only parses: it checks the types and shapes of the YAML values
and hands them to the model's own constructors (`markov.build_grid_walk`,
`markov.banded_safety_map`, `MarkovSource`, `SafetyMap`, the loss builders,
`AgentClassSpec`, `SimConfig`), which hold every model rule, and to
`simulate.check_run` and `simulate.sweep_points`, which hold every run rule.
What those reject, `_blame` reports under the key path it was read from. A
`row_chain` source is the one-column `grid2d`.

The manifest is the parsed config and nothing else: where a command writes
and in which format are arguments of the command. Its `policies` is the one
list of policies a run compares; `parse_policies` makes it from the config's
`policy` key and from the CLI's `--policy` override alike.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigError
from .loss import LossMatrix, loss_01, loss_quadratic, loss_safety_example
from .markov import MarkovSource, SafetyMap, banded_safety_map, build_grid_walk
from .policies import POLICY_KEYS
from .simulate import SimConfig, check_run, sweep_points
from .tables import AgentClassSpec


class ParseError(Exception):
    """The config file is not a well-formed YAML mapping."""


@dataclass
class RunManifest:
    """The parsed config: simulation, policies, replications, sweep, provenance.

    Where a command writes and in which format are not part of it: they are
    arguments of each command. The CLI's `--seed`, `--slots` and `--policy`
    overrides are set on the loaded manifest itself, so whoever holds the
    object `load_config` returned sees the run that actually happened.
    """

    sim: SimConfig
    policies: tuple[str, ...]
    replications: int
    sweep_axis: str | None
    sweep_values: list[int] | None
    digest: str
    path: Path
    name: str


def parse_policies(value, where: str) -> tuple[str, ...]:
    """The policies a `policy` value names: 'all' is every one, a policy name just that one."""
    if value == "all":
        return POLICY_KEYS
    if value in POLICY_KEYS:
        return (value,)
    raise ConfigError(f"{where}: {value!r} is not 'all' or one of {', '.join(POLICY_KEYS)}")


def _need(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _expect_map(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(value).__name__}")
    return value


def _value(v, where: str, integer=False):
    """A YAML number as a float, or as an int when `integer`; booleans are not numbers."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {v!r}")
    if integer and isinstance(v, float) and not v.is_integer():
        raise ConfigError(f"{where}: expected an integer, got {v!r}")
    return int(v) if integer else float(v)


def _number(mapping: dict, key: str, where: str, default=None, integer=False):
    if key not in mapping:
        if default is not None:
            return default
        raise ConfigError(f"{where}: missing required key {key!r}")
    return _value(mapping[key], f"{where}.{key}", integer)


def _integers(mapping: dict, key: str, where: str) -> list[int]:
    values = _need(mapping, key, where)
    if not isinstance(values, list):
        raise ConfigError(f"{where}.{key}: expected a list of integers, got {values!r}")
    return [_value(v, f"{where}.{key}[{i}]", integer=True) for i, v in enumerate(values)]


@contextmanager
def _blame(where: str):
    """Report what a model constructor rejects as a ConfigError at key path `where`."""
    try:
        yield
    except ConfigError:
        raise
    except Exception as exc:  # invalid matrices, probabilities, edges, labels
        raise ConfigError(f"{where}: {exc}") from exc


def _build_source(spec, where: str, name: str) -> tuple[MarkovSource, int]:
    """The class's source and the number of columns its states are laid out in."""
    spec = _expect_map(spec, where)
    kind = spec.get("type", "matrix")
    if kind == "matrix":
        rows = _need(spec, "rows", where)
        with _blame(where):
            return MarkovSource(rows, name=name), 1
    if kind not in ("row_chain", "grid2d"):
        raise ConfigError(f"{where}.type: unknown source type {kind!r} (row_chain, grid2d, matrix)")
    rows = _number(spec, "rows", where, integer=True)
    cols = _number(spec, "cols", where, integer=True) if kind == "grid2d" else 1
    moves = ("up", "down", "left", "right") if kind == "grid2d" else ("up", "down")
    probs = [_number(spec, key, where) for key in moves]
    with _blame(where):
        return build_grid_walk(rows, cols, *probs, name=name), cols


def _build_safety(spec, where: str, rows: int, cols: int) -> SafetyMap:
    spec = _expect_map(spec, where)
    kind = spec.get("type", "assignment")
    if kind == "bands":
        edges = _integers(spec, "edges", where)
        with _blame(where):
            return banded_safety_map(rows, edges, cols)
    if kind == "assignment":
        labels = _integers(spec, "labels", where)
        with _blame(where):
            return SafetyMap(max(labels) + 1, labels)
    raise ConfigError(f"{where}.type: unknown safety type {kind!r} (bands, assignment)")


def _build_loss(spec, where: str) -> LossMatrix:
    spec = _expect_map(spec, where)
    with _blame(where):
        if "rows" in spec:
            return LossMatrix(spec["rows"])
        name = _need(spec, "name", where)
        if name == "zero_one":
            return loss_01(_number(spec, "labels", where, integer=True))
        if name == "quadratic":
            return loss_quadratic(_need(spec, "values", where))
        if name == "safety_example":
            return loss_safety_example()
    raise ConfigError(f"{where}.name: unknown loss {spec.get('name')!r} (zero_one, quadratic, safety_example)")


def _file_name(value, where: str) -> str:
    """A run or class name, which names output files: a non-empty string that is one path component."""
    if not isinstance(value, str) or value in ("", ".", "..") or "/" in value:
        raise ConfigError(f"{where}: expected a non-empty name without '/' that is not '.' or '..', got {value!r}")
    return value


def _build_class(spec: dict, where: str, name: str) -> AgentClassSpec:
    source, cols = _build_source(_need(spec, "source", where), f"{where}.source", name)
    safety = _build_safety(_need(spec, "safety", where), f"{where}.safety", source.state_count // cols, cols)
    loss = _build_loss(_need(spec, "loss", where), f"{where}.loss")
    optional = {}  # AgentClassSpec's defaults hold for the keys the config leaves out
    if "success_prob" in spec:
        optional["success_prob"] = _number(spec, "success_prob", where)
    if "members" in spec:
        optional["member_count"] = _number(spec, "members", where, integer=True)
    with _blame(where):
        return AgentClassSpec(source, safety, loss, name=name, **optional)


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
    class_specs = _need(doc, "classes", where)
    if not isinstance(class_specs, list) or not class_specs:
        raise ConfigError(f"{where}.classes: expected a nonempty list")
    names = []
    for i, spec in enumerate(class_specs):
        at = f"{where}.classes[{i}]"
        name = _file_name(_expect_map(spec, at).get("name", str(i)), f"{at}.name")  # unnamed: its index
        if name in names:
            raise ConfigError(f"{at}.name: {name!r} already names classes[{names.index(name)}]")
        names.append(name)
    classes = tuple(_build_class(spec, f"{where}.classes[{i}]", name)
                    for i, (spec, name) in enumerate(zip(class_specs, names)))

    policy = doc.get("policy")
    if policy is None:
        raise ConfigError(f"{where}: missing required key 'policy' ('all' or one of {', '.join(POLICY_KEYS)})")
    policies = parse_policies(policy, f"{where}.policy")

    with _blame(where):
        sim = SimConfig(
            classes=classes,
            channels=_number(doc, "channels", where, integer=True),
            slots=_number(doc, "slots", where, integer=True),
            # SimConfig's defaults hold for the keys the config leaves out
            **{key: _number(doc, key, where, integer=True)
               for key in ("warmup", "seed", "delta_bound") if key in doc},
        )

    # The solvers are exact and have no knobs: a `solver` block is ignored, so
    # configs written for the retired value iteration (tol, max_iters) and
    # stochastic price search (beta, eval_horizon, outer_iters) still load.

    sweep_axis = None
    sweep_values = None
    if "sweep" in doc:
        sweep_doc = _expect_map(doc["sweep"], f"{where}.sweep")
        sweep_axis = _need(sweep_doc, "axis", f"{where}.sweep")
        sweep_values = _integers(sweep_doc, "values", f"{where}.sweep")
        with _blame(f"{where}.sweep"):
            sweep_points(sim, sweep_axis, sweep_values)

    replications = _number(doc, "replications", where, default=1, integer=True)
    with _blame(where):
        check_run(policies, replications)

    return RunManifest(
        sim=sim,
        policies=policies,
        replications=replications,
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        digest=digest,
        path=path,
        name=_file_name(doc.get("name", path.stem), f"{where}.name"),
    )
