"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy shared artifacts
(the 20-agent grid solve, the 20-seed policy comparison, the scaling sweep)
are session fixtures, so the suite does each expensive thing once.
"""

import time

import numpy as np
import pytest

from aoi_guard import (
    AgentClassSpec,
    LossMatrix,
    MarkovSource,
    SimConfig,
    build_tables,
    dual_lower_bound,
    loss_01,
    loss_safety_example,
    policy_iteration,
    run_paired,
    run_sweep,
    solve_system,
    stationary_distribution,
)
from aoi_guard.cli import main
from aoi_guard.markov import SafetyMap
from aoi_guard.simulate import config_at

from conftest import CHAIN_A_MATRIX, identity_safety_map, make_grid_classes, random_primitive_source
from oracles import conditional_entropy_given, enumerate_tables

BOUNDARY_ROWS = {6, 7, 13, 14}  # 1-indexed rows flanking both label changes
POLICY_ORDER = ("mgf", "maf", "randomized", "random_queue")


def report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


def mean_se(values) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    return float(v.mean()), float(v.std(ddof=1) / np.sqrt(len(v)))


@pytest.fixture(scope="session")
def grid_runs(grid_config, grid_system):
    """20 paired seeds x 4 policies at T=1e5 on the 20-agent grid, as 20 lanes of one run."""
    runs = {p: [] for p in POLICY_ORDER}
    for rec in run_paired(grid_config, list(POLICY_ORDER), grid_system, grid_config.seed, replications=20):
        runs[rec.policy].append(rec)
    return runs


@pytest.fixture(scope="session")
def scaling_results():
    """MGF penalties and dual bounds for r in {1, 2, 4, 8} with N=4r, M=r."""
    base = SimConfig(make_grid_classes((2, 2)), channels=1, slots=50_000, seed=201)
    values = [1, 2, 4, 8]
    bounds, penalties = {}, {}
    for r in values:
        point = config_at(base, "scale", r)
        system = solve_system(point, with_gains=True)
        bounds[r] = dual_lower_bound(list(system.solutions), list(point.classes), point.channels)
        bounds[r] /= point.agent_count
        records = run_paired(point, ["mgf"], system, base.seed, scale=r, replications=10)
        penalties[r] = np.array([rec.normalized_penalty for rec in records])
    return values, penalties, bounds


def test_criterion_01_estimator_matches_exhaustive_enumeration():
    start = time.time()
    rng = np.random.default_rng(1001)
    worst_q = 0.0
    for _ in range(100):
        nx = int(rng.integers(2, 7))
        ny = int(rng.integers(1, 5))
        bound = int(rng.integers(1, 11))
        src = random_primitive_source(rng, nx)
        safety = SafetyMap(ny, rng.integers(0, ny, size=nx)) if ny > 1 else SafetyMap(1, np.zeros(nx, int))
        loss = LossMatrix(rng.uniform(0.0, 4.0, size=(ny, ny)))
        pen, est = build_tables(AgentClassSpec(src, safety, loss), bound)
        q_ref, f_ref = enumerate_tables(src.transition, safety.assignment, loss.entries, bound)
        worst_q = max(worst_q, float(np.abs(pen.values - q_ref).max()))
        assert (est == f_ref).all()
    elapsed = time.time() - start
    report(1, "estimator oracle equivalence", worst_q < 1e-12 and elapsed < 10,
           f"max |q - oracle| = {worst_q:.2e} over 100 triples in {elapsed:.1f}s")


def test_criterion_02_conditioning_reduces_entropy():
    start = time.time()
    rng = np.random.default_rng(1002)
    worst = np.inf
    for _ in range(200):
        nx, ny, nz = (int(rng.integers(1, 6)) for _ in range(3))
        loss = LossMatrix(rng.uniform(0.0, 5.0, size=(ny, ny)))
        joint = rng.dirichlet(np.ones(nx * ny * nz)).reshape(nx, ny, nz)
        for z in range(nz):
            pz = joint[:, :, z].sum()
            if pz < 1e-12:
                continue
            x_given_z = joint[:, :, z].sum(axis=1) / pz
            y_given_xz = np.full((nx, ny), 1.0 / ny)
            for x in range(nx):
                px = joint[x, :, z].sum()
                if px > 0:
                    y_given_xz[x] = joint[x, :, z] / px
            coarse, fine = conditional_entropy_given(x_given_z, y_given_xz, loss)
            worst = min(worst, coarse - fine)
    elapsed = time.time() - start
    report(2, "conditioning reduces entropy", worst >= -1e-12 and elapsed < 5,
           f"min(H(Y|z) - H(Y|X,z)) = {worst:.2e} over 200 joint laws in {elapsed:.1f}s")


def test_criterion_03_averaged_data_processing():
    start = time.time()
    rng = np.random.default_rng(1003)
    worst = np.inf
    for trial in range(50):
        nx = int(rng.integers(2, 7))
        src = random_primitive_source(rng, nx)
        ny = int(rng.integers(2, min(nx, 4) + 1))
        safety = SafetyMap(ny, rng.integers(0, ny, size=nx))
        loss = loss_01(ny) if trial % 2 == 0 else LossMatrix(rng.uniform(0.0, 4.0, size=(ny, ny)))
        pen, _ = build_tables(AgentClassSpec(src, safety, loss), 100)
        pi = stationary_distribution(src)
        avg = pen.values[1:] @ pi
        worst = min(worst, float(np.diff(avg).min()))
    elapsed = time.time() - start
    report(3, "averaged data-processing", worst >= -1e-10 and elapsed < 30,
           f"min increment of E_pi[q(delta, .)] = {worst:.2e} over 50 chains in {elapsed:.1f}s")


def test_criterion_04_saturation_and_truncation_stability():
    chain = MarkovSource(CHAIN_A_MATRIX, name="chain_a")
    cls = AgentClassSpec(chain, identity_safety_map(2), loss_01(2), success_prob=0.95)
    pen250, _ = build_tables(cls, 250)
    sat_gap = float(np.abs(pen250.values[250] - 1 / 3).max())

    pen500, _ = build_tables(cls, 500)
    worst_shift = 0.0
    for lam in (0.0, 0.05, 0.5):
        a = policy_iteration(pen250, chain, 0.95, lam)
        b = policy_iteration(pen500, chain, 0.95, lam)
        worst_shift = max(worst_shift, abs(a.avg_cost - b.avg_cost))
    report(4, "penalty saturation", sat_gap < 1e-6 and worst_shift < 1e-6,
           f"|q(250,.) - H_L(pi)| = {sat_gap:.2e}; doubling the bound moves avg_cost by {worst_shift:.2e}")


def test_criterion_05_always_send_at_zero_price():
    start = time.time()
    rng = np.random.default_rng(1005)
    worst = np.inf
    for _ in range(20):
        nx = int(rng.integers(3, 7))
        src = random_primitive_source(rng, nx)
        p = float(rng.uniform(0.3, 1.0))
        for loss, safety in (
            (loss_01(nx), identity_safety_map(nx)),
            (loss_safety_example(), SafetyMap(3, rng.integers(0, 3, size=nx))),
        ):
            pen, _ = build_tables(AgentClassSpec(src, safety, loss, p), 100)
            sol = policy_iteration(pen, src, p, 0.0)
            worst = min(worst, float(sol.gain[1:].min()))
    elapsed = time.time() - start
    report(5, "always-send at zero price", worst >= -1e-9,
           f"min gain = {worst:.2e} over 20 sources x 2 losses in {elapsed:.1f}s")


def test_criterion_06_closed_form_average_cost_and_simulation():
    chain = MarkovSource(CHAIN_A_MATRIX, name="chain_a")
    cls = AgentClassSpec(chain, identity_safety_map(2), loss_01(2), success_prob=1.0)
    pen, _ = build_tables(cls, 250)
    sol = policy_iteration(pen, chain, 1.0, 0.0)
    closed_form = 2 / 15  # pi=(2/3,1/3) against q(1,.)=(0.1,0.2)
    cost_ok = abs(sol.avg_cost - closed_form) < 1e-4

    cfg = SimConfig((cls,), channels=1, slots=1_000_000, seed=1006)
    (rec,) = run_paired(cfg, ["mgf"], solve_system(cfg, with_gains=True), cfg.seed)
    sim_gap = abs(rec.normalized_penalty - closed_form) / closed_form
    report(6, "closed-form average cost", cost_ok and sim_gap < 0.02,
           f"avg_cost = {sol.avg_cost:.6f} (target {closed_form:.6f}); 1e6-slot sim off by {sim_gap:.2%}")


def test_criterion_07_dual_feasibility_and_lower_bound(grid_config, grid_system, grid_runs):
    trace = grid_system.trace
    channels = grid_config.channels
    _, lam_acc, rate_acc = trace.iterations[-1]
    feasible = trace.converged and grid_system.lambda_star >= 0.0
    feasible &= lam_acc == grid_system.lambda_star
    feasible &= abs(rate_acc - channels) <= 0.05 * channels

    bound = dual_lower_bound(
        list(grid_system.solutions), list(grid_config.classes), channels
    ) / grid_config.agent_count
    margins = {}
    for policy, recs in grid_runs.items():
        mean, se = mean_se([r.normalized_penalty for r in recs])
        margins[policy] = (mean - 3 * se) - bound
    bound_ok = all(m >= 0 for m in margins.values())
    worst = min(margins, key=margins.get)
    report(7, "dual ascent feasibility", feasible and bound_ok,
           f"rate at lambda*={grid_system.lambda_star:.3f} is {rate_acc:.3f} (budget {channels}); "
           f"bound/agent {bound:.4f} clears every policy (tightest {worst} by {margins[worst]:.4f})")


def test_criterion_08_policy_ordering_and_gain_bands(grid_runs):
    penalties = {
        p: np.array([r.normalized_penalty for r in grid_runs[p]]) for p in POLICY_ORDER
    }
    means = {p: float(v.mean()) for p, v in penalties.items()}
    ordered = means["mgf"] < means["maf"] < means["randomized"] < means["random_queue"]

    gaps_ok = True
    for better, worse in zip(POLICY_ORDER, POLICY_ORDER[1:]):
        diff = penalties[worse] - penalties[better]
        mean, se = mean_se(diff)
        gaps_ok &= mean >= 2 * se
    ratios = (
        means["random_queue"] / means["mgf"],
        means["randomized"] / means["mgf"],
        means["maf"] / means["mgf"],
    )
    bands_ok = ratios[0] >= 4.0 and ratios[1] >= 1.5 and ratios[2] >= 1.2
    report(8, "policy ordering", ordered and gaps_ok and bands_ok,
           "means " + " < ".join(f"{p}={means[p]:.4f}" for p in POLICY_ORDER)
           + f"; gains vs mgf: queue {ratios[0]:.2f}x, randomized {ratios[1]:.2f}x, maf {ratios[2]:.2f}x")


def test_criterion_09_boundary_peak_profile(grid_config, grid_system):
    q_peaks, spread_ok, alpha_peaks = [], True, []
    for i, cls in enumerate(grid_config.classes):
        q = grid_system.penalties[i].values
        gain = grid_system.solutions[i].gain
        q_peaks.append(int(np.argmax(q[1])) + 1)
        previous = None
        for delta in (1, 2, 5, 10):
            above = set(np.flatnonzero(q[delta] > 0.5 * q[delta].max()).tolist())
            if previous is not None:
                spread_ok &= previous <= above
            previous = above
        alpha_peaks.append(int(np.argmax(gain[1])) + 1)
    q_ok = all(row in BOUNDARY_ROWS for row in q_peaks)
    alpha_ok = all(row in BOUNDARY_ROWS for row in alpha_peaks)
    # The alpha clause is expected to fail for the fast class: the age-1 gain
    # tracks two-step uncertainty, whose peak sits one row inside the band
    # (row 12), confirmed by the independent fixed-sweep oracle. The README
    # carries the analysis.
    report(9, "boundary-peak profile", q_ok and spread_ok and alpha_ok,
           f"q(1,.) peaks at rows {q_peaks}; half-max sets non-shrinking: {spread_ok}; "
           f"alpha(1,.) peaks at rows {alpha_peaks} (boundary set {sorted(BOUNDARY_ROWS)})")


def test_criterion_10_scaling_trend(scaling_results):
    values, penalties, bounds = scaling_results
    means = {r: float(penalties[r].mean()) for r in values}
    trend_ok, gap_ok = True, True
    for small, large in zip(values, values[1:]):
        diff = penalties[large] - penalties[small]  # paired by seed
        mean, se = mean_se(diff)
        trend_ok &= mean <= 2 * se
        gap_small = means[small] - bounds[small]
        gap_large = means[large] - bounds[large]
        gap_ok &= gap_large <= gap_small + 2 * se
    detail = "; ".join(
        f"r={r}: penalty {means[r]:.4f}, bound {bounds[r]:.4f}" for r in values
    )
    report(10, "scaling trend", trend_ok and gap_ok, detail)


def test_channel_sweep_improves_every_policy(grid_config):
    """More channels never hurt: penalty non-increasing in M within noise."""
    cfg = SimConfig(grid_config.classes, channels=2, slots=20_000, seed=301)
    values = [2, 6, 10]
    records = run_sweep(cfg, "channels", values, policies=list(POLICY_ORDER), replications=6)
    for policy in POLICY_ORDER:
        by_m = {
            m: np.array(
                [r.normalized_penalty for r in records if r.policy == policy and r.channels == m]
            )
            for m in values
        }
        for small, large in zip(values, values[1:]):
            diff = by_m[large] - by_m[small]  # worlds are shared per seed across M
            mean, se = mean_se(diff)
            assert mean <= 2 * se, f"{policy}: penalty rose from M={small} to M={large}"


def test_criterion_11_byte_identical_reruns(tmp_path):
    from pathlib import Path

    repo = Path(__file__).resolve().parent.parent
    cfg = str(repo / "configs" / "chain_pair.yaml")
    outs = []
    for i in (1, 2):
        out = tmp_path / f"run{i}.csv"
        rc = main(["simulate", "--config", cfg, "--slots", "20000", "--output", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    sim_same = outs[0] == outs[1]

    solves = []
    for i in (1, 2):
        out_dir = tmp_path / f"solve{i}"
        rc = main(["solve", "--config", cfg, "--output", str(out_dir)])
        assert rc == 0
        solves.append((out_dir / "tables_0_pair.csv").read_bytes() + (out_dir / "dual_trace.csv").read_bytes())
    solve_same = solves[0] == solves[1]
    report(11, "deterministic reruns", sim_same and solve_same,
           f"simulate bodies identical: {sim_same}; solve tables identical: {solve_same}")
