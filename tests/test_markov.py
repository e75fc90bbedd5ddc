import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_guard import (
    AgentClassSpec,
    ConvergenceError,
    LossMatrix,
    MarkovSource,
    SimConfig,
    ValidationError,
    banded_safety_map,
    build_grid_walk,
    build_tables,
    is_primitive,
    stationary_distribution,
)
from aoi_guard.markov import (
    LUMP_TOL,
    SafetyMap,
    cumulative_rows,
    lumpable_partition,
    recurrent_states,
    stack_padded,
    stationary_law,
    successor_table,
)

import aoi_guard.markov as markov
import aoi_guard.simulate as simulate
from conftest import identity_classes, identity_safety_map, random_primitive_source
from oracles import row_chain_matrix


class TestMarkovSource:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValidationError, match="row 1"):
            MarkovSource([[0.5, 0.5], [0.5, 0.49]])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            MarkovSource([[1.2, -0.2], [0.5, 0.5]])

    def test_rejects_nan_entries(self):
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            MarkovSource([[np.nan, 1.0], [0.5, 0.5]])

    def test_transition_is_read_only(self, chain_a):
        with pytest.raises(ValueError):
            chain_a.transition[0, 0] = 0.0


def step_law(source: MarkovSource, x: int, delta: int) -> np.ndarray:
    """Row x of P^delta as build_tables propagates it.

    With the identity safety map and a loss that charges 1 whenever the true
    state is k, whatever the estimate, the tabulated penalty at (delta, x)
    is exactly the probability of state k delta steps after observing x.
    """
    n = source.state_count
    law = np.empty(n)
    for k in range(n):
        charge = np.zeros((n, n))
        charge[k] = 1.0
        cls = AgentClassSpec(source, identity_safety_map(n), LossMatrix(charge))
        law[k] = build_tables(cls, max(delta, 1))[0].values[delta, x]
    return law


class TestStepDistribution:
    def test_one_step_equals_row(self, chain_a):
        assert step_law(chain_a, 0, 1) == pytest.approx((0.9, 0.1))

    def test_zero_steps_is_identity(self, chain_a):
        assert step_law(chain_a, 0, 0) == pytest.approx((1.0, 0.0))

    def test_two_steps_matches_hand_product(self, chain_a):
        # [[0.9, 0.1], [0.2, 0.8]]^2 row 0 = (0.81 + 0.02, 0.09 + 0.08)
        assert step_law(chain_a, 0, 2) == pytest.approx((0.83, 0.17))

    def test_rows_always_sum_to_one(self):
        rng = np.random.default_rng(8)
        src = random_primitive_source(rng, 5)
        for delta in (0, 1, 17, 100):
            dist = step_law(src, 3, delta)
            assert abs(dist.sum() - 1.0) < 1e-12
            assert (dist >= 0).all()


class TestSafetyDistribution:
    """Label law delta steps after observing x: row x of P^delta @ indicator."""

    def test_identity_map_is_passthrough(self, chain_a):
        got = np.linalg.matrix_power(chain_a.transition, 2)[0] @ identity_safety_map(2).indicator()
        assert got == pytest.approx((0.83, 0.17))

    def test_constant_map_gives_point_mass(self, chain_a):
        constant = SafetyMap(1, np.zeros(2, dtype=int))
        for x in (0, 1):
            got = np.linalg.matrix_power(chain_a.transition, 5)[x] @ constant.indicator()
            assert got == pytest.approx((1.0,))

    def test_row_chain_boundary_rule(self):
        # Row 7 of the 20-row grid sits just inside the cautious band.
        src = build_grid_walk(20, 1, 0.3, 0.3)
        safety = banded_safety_map(20, (6, 13))
        row = np.linalg.matrix_power(src.transition, 1)[6]  # row 7 is state 6
        got = np.bincount(safety.assignment, weights=row, minlength=safety.label_count)
        assert got == pytest.approx((0.3, 0.7, 0.0))


class TestStationaryDistribution:
    def test_chain_a_closed_form(self, chain_a):
        assert stationary_distribution(chain_a) == pytest.approx((2 / 3, 1 / 3), abs=1e-10)

    def test_identity_source_is_rejected(self):
        frozen = MarkovSource(np.eye(3), name="frozen")
        assert not is_primitive(frozen)
        with pytest.raises(ConvergenceError, match="frozen"):
            stationary_distribution(frozen)

    def test_two_cycle_is_rejected(self):
        with pytest.raises(ConvergenceError):
            stationary_distribution(MarkovSource([[0.0, 1.0], [1.0, 0.0]]))

    def test_doubly_stochastic_is_uniform(self):
        src = MarkovSource(np.full((4, 4), 0.25))
        assert stationary_distribution(src) == pytest.approx([0.25] * 4, abs=1e-12)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(3)
        src = random_primitive_source(rng, 6)
        pi = stationary_distribution(src)
        assert np.abs(pi @ src.transition - pi).max() < 1e-10

    def test_slow_mixing_chain_is_solved_exactly(self):
        # Power iteration from the uniform law closes only 3e-7 of its gap
        # per step on this chain, so 200,000 steps leave it 6% short. The
        # solve is accurate to about machine epsilon over the 3e-7 gap.
        src = MarkovSource([[1 - 1e-7, 1e-7], [2e-7, 1 - 2e-7]], name="sticky")
        assert stationary_distribution(src) == pytest.approx((2 / 3, 1 / 3), abs=1e-9)

    def test_law_must_be_unique_and_fixed(self):
        with pytest.raises(ConvergenceError, match="more than one"):
            stationary_law(np.eye(2), "two frozen states")
        with pytest.raises(ConvergenceError, match="residual") as err:
            stationary_law(np.full((2, 2), 0.25), "a leaking matrix")
        assert err.value.residual > 0.1

    def test_rows_converge_to_stationary_monotonically(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            src = random_primitive_source(rng, 5)
            pi = stationary_distribution(src)
            gaps = [
                max(np.abs(np.linalg.matrix_power(src.transition, d)[x] - pi).sum() for x in range(5))
                for d in range(30, 61)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def wielandt_chain(n: int) -> MarkovSource:
    """i -> i+1, and n-1 -> 0 or 1 at 0.5 each: cycles of lengths n and n-1.

    Primitive, with (n-1)^2 + 1 the first power of P that is entrywise
    positive (Wielandt's bound is attained).
    """
    p = np.zeros((n, n))
    p[np.arange(n - 1), np.arange(1, n)] = 1.0
    p[n - 1, :2] = 0.5
    return MarkovSource(p, name=f"wielandt({n})")


def positive_power_exists(support: np.ndarray) -> bool:
    """Some power up to Wielandt's bound (n-1)^2 + 1 is entrywise positive."""
    n = support.shape[0]
    reach = support.astype(int)
    for _ in range((n - 1) ** 2 + 1):
        if reach.all():
            return True
        reach = np.minimum(reach @ support, 1)
    return False


@st.composite
def support_matrices(draw):
    n = draw(st.integers(1, 7))
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    support = np.array(cells, dtype=bool).reshape(n, n)
    for x in np.flatnonzero(~support.any(axis=1)):
        support[x, draw(st.integers(0, n - 1))] = True
    return support


class TestRecurrentStates:
    def test_closed_classes(self):
        cases = (
            ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.45, 0.55]], [False, True, True]),
            ([[0.5, 0.5], [0.0, 1.0]], [False, True]),
            (np.eye(3), [True, True, True]),
            (np.kron(np.eye(2), [[0.9, 0.1], [0.2, 0.8]]), [True] * 4),
            ([[0.0, 1.0], [1.0, 0.0]], [True, True]),
        )
        for matrix, expected in cases:
            assert recurrent_states(np.array(matrix)).tolist() == expected

    def test_long_path_into_a_closed_class(self):
        # 0 -> 1 -> ... -> 29 -> 29: only the last state is recurrent, and the
        # closure needs log2(30) squarings to see it.
        p = np.zeros((30, 30))
        p[np.arange(29), np.arange(1, 30)] = 1.0
        p[29, 29] = 1.0
        assert recurrent_states(p).tolist() == [False] * 29 + [True]
        assert recurrent_states(wielandt_chain(30).transition).all()


class TestIsPrimitive:
    def test_wielandt_chain_beyond_old_cap(self):
        # The first positive power is 842, past the old 512-step search cap.
        src = wielandt_chain(30)
        reach = np.linalg.matrix_power(src.transition, 841) > 0
        assert not reach.all() and (reach.astype(float) @ src.transition > 0).all()
        assert is_primitive(src)
        pi = stationary_distribution(src)
        assert abs(pi.sum() - 1.0) < 1e-12
        assert np.abs(pi @ src.transition - pi).max() < 1e-11

    def test_reducible_and_periodic(self):
        assert not is_primitive(MarkovSource([[1.0, 0.0], [0.5, 0.5]]))  # 0 never reaches 1
        assert not is_primitive(MarkovSource([[0.5, 0.5], [0.0, 1.0]]))  # 1 never reaches 0
        three_cycle = np.roll(np.eye(3), 1, axis=1)
        assert not is_primitive(MarkovSource(three_cycle))
        assert is_primitive(MarkovSource([[1.0]]))

    @settings(max_examples=300, deadline=None)
    @given(support_matrices())
    def test_matches_boolean_powers(self, support):
        p = support / support.sum(axis=1, keepdims=True)
        assert is_primitive(MarkovSource(p)) == positive_power_exists(support)


def block_masses(p: np.ndarray, block: np.ndarray) -> np.ndarray:
    """mass[x, b] = P(x -> block b), by explicit column sums."""
    return np.stack([p[:, block == b].sum(axis=1) for b in range(block.max() + 1)], axis=1)


@st.composite
def planted_lumpable_chains(draw):
    """A chain lumpable by construction onto planted blocks inside label classes.

    Every member of planted block b sends mass Q[b, c] into block c, spread
    over c's members by its own random weights; labels are constant on
    planted blocks; states are shuffled so blocks are not contiguous.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    k = len(sizes)
    planted = rng.permutation(np.repeat(np.arange(k), sizes))
    label_of_block = rng.integers(0, draw(st.integers(1, k)), size=k)
    q = rng.dirichlet(np.ones(k), size=k)
    n = planted.size
    p = np.zeros((n, n))
    for x in range(n):
        for c in range(k):
            members = np.flatnonzero(planted == c)
            p[x, members] = q[planted[x], c] * rng.dirichlet(np.ones(members.size))
    return p, label_of_block[planted], planted


class TestLumpablePartition:
    def test_grid_walk_lumps_onto_rows(self):
        p = build_grid_walk(6, 5, 0.2, 0.2, 0.2, 0.2).transition
        labels = banded_safety_map(6, (2, 4), 5).assignment
        assert (lumpable_partition(p, labels) == np.arange(30) // 5).all()

    def test_row_chain_is_its_own_quotient(self):
        for up, down in ((0.3, 0.3), (0.05, 0.05)):
            src = build_grid_walk(20, 1, up, down)
            block = lumpable_partition(src.transition, banded_safety_map(20, (6, 13)).assignment)
            assert (block == np.arange(20)).all()

    def test_blocks_numbered_by_first_member(self):
        # Labels 2, 0, 2, 0: the quotient keeps state 0 in block 0.
        p = np.full((4, 4), 0.25)
        assert lumpable_partition(p, [2, 0, 2, 0]).tolist() == [0, 1, 0, 1]

    def test_masses_must_agree_within_tolerance(self):
        row2 = [0.2, 0.3, 0.5]
        for eps, blocks in ((1e-14, [0, 0, 1]), (1e-9, [0, 1, 2])):
            p = [[0.5, 0.25, 0.25], [0.5, 0.25 - eps, 0.25 + eps], row2]
            assert lumpable_partition(p, [0, 0, 1]).tolist() == blocks

    @settings(max_examples=120, deadline=None)
    @given(planted_lumpable_chains())
    def test_planted_blocks_found(self, chain):
        p, labels, planted = chain
        block = lumpable_partition(p, labels)
        for b in range(block.max() + 1):
            members = np.flatnonzero(block == b)
            assert len(set(labels[members])) == 1  # refines the labels
        for c in range(planted.max() + 1):
            assert len(set(block[planted == c])) == 1  # no finer than the planted blocks
        _, first = np.unique(block, return_index=True)
        assert (np.diff(first) > 0).all() and block[0] == 0
        mass = block_masses(p, block)
        for b in range(block.max() + 1):
            members = np.flatnonzero(block == b)
            assert np.abs(mass[members] - mass[members[0]]).max() <= LUMP_TOL


class TestBuildRowChain:
    # A row chain is the one-column grid walk.
    def test_interior_row_probabilities(self):
        src = build_grid_walk(20, 1, 0.3, 0.3)
        assert src.transition[10, 9:12] == pytest.approx((0.3, 0.4, 0.3))

    def test_top_row_folds_up_into_stay(self):
        src = build_grid_walk(20, 1, 0.3, 0.3)
        assert src.transition[0, 0] == pytest.approx(0.7)
        assert src.transition[0, 1] == pytest.approx(0.3)

    def test_bottom_row_folds_down_into_stay(self):
        src = build_grid_walk(20, 1, 0.3, 0.3)
        assert src.transition[19, 19] == pytest.approx(0.7)
        assert src.transition[19, 18] == pytest.approx(0.3)

    def test_slow_class_interior_stay(self):
        src = build_grid_walk(20, 1, 0.05, 0.05)
        assert src.transition[7, 7] == pytest.approx(0.9)

    def test_probability_validation(self):
        with pytest.raises(ValidationError):
            build_grid_walk(20, 1, 0.6, 0.6)
        with pytest.raises(ValidationError):
            build_grid_walk(20, 1, -0.1, 0.3)
        with pytest.raises(ValidationError):
            build_grid_walk(1, 1, 0.1, 0.1)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 30),
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
        st.booleans(),
    )
    def test_bytes_match_the_row_chain_oracle(self, rows, up, down, rounded):
        # Same matrix, byte for byte, and rejected exactly when the oracle's
        # matrix is not a valid source. Both clamp the stay mass at 0, so a
        # sum of moves that rounds past 1 leaves no negative entry; the
        # `rounded` branch makes 1 - up - down exactly -1 ulp to reach it.
        if up + down > 1.0:
            up, down = up / 2, down / 2
        if rounded:
            down = math.nextafter(1.0 - up, 2.0)
        expected = row_chain_matrix(rows, up, down)
        try:
            MarkovSource(expected)
        except ValidationError:
            with pytest.raises(ValidationError):
                build_grid_walk(rows, 1, up, down)
            return
        assert build_grid_walk(rows, 1, up, down).transition.tobytes() == expected.tobytes()

    def test_stay_rounding_below_zero_is_clamped(self):
        # 1.0 - 1.0 - 8.9e-268 is -8.9e-268: the interior stay is 0, not negative.
        p = build_grid_walk(3, 1, 1.0, 8.9e-268).transition
        assert p[1, 1] == 0.0
        assert (p >= 0.0).all()
        assert (p.sum(axis=1) == 1.0).all()


class TestBuildGridWalk:
    def test_interior_cell_moves_four_ways(self):
        p = build_grid_walk(3, 4, 0.1, 0.2, 0.3, 0.15).transition
        s = 1 * 4 + 1  # cell (1, 1)
        assert p[s, [s - 4, s + 4, s - 1, s + 1, s]] == pytest.approx((0.1, 0.2, 0.3, 0.15, 0.25))
        assert np.count_nonzero(p[s]) == 5

    def test_corner_folds_off_grid_moves_into_stay(self):
        p = build_grid_walk(3, 4, 0.1, 0.2, 0.3, 0.15).transition
        assert p[0, 0] == pytest.approx(0.25 + 0.1 + 0.3)
        assert p[0, [1, 4]] == pytest.approx((0.15, 0.2))
        assert p[11, 11] == pytest.approx(0.25 + 0.2 + 0.15)

    def test_observed_by_rows_it_is_the_row_chain(self):
        # Sideways moves never change the row: summing each row's cells
        # gives the one-column walk's row law from every cell.
        rows, cols = 5, 3
        p = build_grid_walk(rows, cols, 0.2, 0.1, 0.3, 0.3).transition
        by_row = p.reshape(rows * cols, rows, cols).sum(axis=2)
        chain = build_grid_walk(rows, 1, 0.2, 0.1).transition
        assert np.allclose(by_row, np.repeat(chain, cols, axis=0), atol=1e-15)

    @pytest.mark.parametrize("rows,cols,moves", [
        (1, 1, (0.1, 0.1, 0.1, 0.1)),  # a single cell
        (0, 5, (0.1, 0.1, 0.1, 0.1)),
        (-1, -2, (0.1, 0.1, 0.1, 0.1)),  # the product is 2, the grid still empty
        (3, 3, (0.3, 0.3, 0.3, 0.3)),  # moves sum past 1
        (3, 3, (0.5, -0.1, 0.1, 0.1)),
        (3, 3, (np.nan, 0.1, 0.1, 0.1)),
        (2, 1, (1.0 + 1e-9, 0.0, 0.0, 0.0)),
    ])
    def test_rejections(self, rows, cols, moves):
        with pytest.raises(ValidationError):
            build_grid_walk(rows, cols, *moves)


def world_path(sources, members, slots: int, seed: int) -> np.ndarray:
    """Every slot's keys, (slots, N), of a one-lane simulator world with `members[i]` agents of `sources[i]`."""
    world = simulate._WorldStream(SimConfig(identity_classes(sources, members), channels=1, slots=slots), [seed], 1)
    path = []
    while world.advance():
        path.append(world.keys[1 : 1 + world.t1 - world.t0, 0].copy())
    return np.concatenate(path)


class TestSampleNext:
    def test_deterministic_row(self):
        path = world_path([MarkovSource(np.roll(np.eye(5), 1, axis=1))], [5], 300, 0)
        assert (path[1:] == (path[:-1] + 1) % 5).all()

    def test_same_seed_same_draws(self, chain_a):
        assert (world_path([chain_a], [5], 300, 42) == world_path([chain_a], [5], 300, 42)).all()

    def test_law_of_large_numbers(self, chain_a):
        # Agents of two classes step together, keys cls * 3 + x; the
        # transitions out of each class's state 0 follow its own row, and
        # the narrow class never lands on padding.
        wide = MarkovSource(np.full((3, 3), 1 / 3))
        path = world_path([chain_a, wide], [300, 600], 1000, 123)
        before, after = path[:-1].ravel(), path[1:].ravel()
        freq_a = np.bincount(after[before == 0], minlength=3) / (before == 0).sum()
        freq_w = np.bincount(after[before == 3] - 3, minlength=3) / (before == 3).sum()
        assert min((before == 0).sum(), (before == 3).sum()) > 190_000
        assert np.abs(freq_a - (0.9, 0.1, 0.0)).max() < 0.003
        assert np.abs(freq_w - 1 / 3).max() < 0.005


class TestSuccessorTable:
    def test_cells_and_levels_of_mixed_widths(self):
        # Class 0 (2 states) has levels 0.2 and 0.9, class 1 (3 states) the
        # levels 1/3 and 2/3 of its uniform rows, class 2 (one state) none:
        # 2 x 3 + 3 x 3 + 1 x 1 cells, each class's rows from its first cell on.
        cums = [cumulative_rows(np.array(p)) for p in
                ([[0.9, 0.1], [0.2, 0.8]], np.full((3, 3), 1 / 3), [[1.0]])]
        table, first, cell_key, levels = successor_table(cums, ["a", "b", "c"], 3)
        assert [lv.tolist() for lv in levels] == [[0.2, 0.9], [1 / 3, 2 / 3], []]
        assert table.size == cell_key.size == 16
        assert first.tolist() == [0, 3, 0, 6, 9, 12, 15, 0, 0]
        assert cell_key[first[[0, 1, 3, 4, 5, 6]]].tolist() == [0, 1, 3, 4, 5, 6]
        # state 0 of class 0 stays below 0.9 (ranks 0 and 1) and moves at rank 2
        assert table[0:3].tolist() == [0, 0, 3]
        assert table[15] == 15  # the one-state class never moves

    def test_a_table_past_the_cell_budget_names_the_class(self):
        # A dense 170-state chain has about 170 x 169 distinct CDF levels, so
        # its table would hold some 4.9 M cells, past SUCCESSOR_CELLS; a
        # 100-state one fits. The check runs before any cell is built.
        rng = np.random.default_rng(3)
        small, dense = (cumulative_rows(rng.dirichlet(np.ones(s), size=s)) for s in (100, 170))
        table, _, _, (level,) = successor_table([small], ["small"], 100)
        assert table.size == 100 * (level.size + 1) <= markov.SUCCESSOR_CELLS
        with pytest.raises(ValidationError, match=r"class dense: m_c = \d+ CDF levels on 170 states"):
            successor_table([small, dense], ["small", "dense"], 170)


class TestStackPadded:
    def test_pads_every_axis_and_keeps_dtype(self):
        small = np.arange(6).reshape(2, 3)
        big = np.arange(12).reshape(4, 3) + 100
        tall = np.ones((1, 5), dtype=int)
        out = stack_padded([small, big, tall], -1)
        assert out.dtype == small.dtype
        assert out.shape == (3, 4, 5)
        for i, a in enumerate((small, big, tall)):
            assert (out[i, : a.shape[0], : a.shape[1]] == a).all()
            pad = np.ones(out.shape[1:], dtype=bool)
            pad[: a.shape[0], : a.shape[1]] = False
            assert (out[i][pad] == -1).all()

    def test_masks_and_labels(self):
        masks = stack_padded([np.ones((3, 2), dtype=bool), np.ones((3, 4), dtype=bool)], False)
        assert masks.dtype == bool and masks.shape == (2, 3, 4)
        assert masks.sum() == 3 * 2 + 3 * 4
        labels = stack_padded([np.array([0, 1]), np.array([2, 2, 1])], 0)
        assert labels.tolist() == [[0, 1, 0], [2, 2, 1]]


class TestSafetyMap:
    def test_banded_edges(self):
        safety = banded_safety_map(20, (6, 13))
        assert safety.label_count == 3
        assert list(safety.assignment[:6]) == [0] * 6
        assert list(safety.assignment[6:13]) == [1] * 7
        assert list(safety.assignment[13:]) == [2] * 7

    def test_bad_labels_rejected(self):
        with pytest.raises(ValidationError):
            SafetyMap(2, np.array([0, 1, 2]))

    def test_bad_edges_rejected(self):
        with pytest.raises(ValidationError):
            banded_safety_map(10, (7, 3))

    @pytest.mark.parametrize("edges", [(3, 3), (0, 4), (4, 10)])
    def test_every_band_must_be_nonempty(self, edges):
        with pytest.raises(ValidationError, match="increasing"):
            banded_safety_map(10, edges)

    def test_grid_cells_take_their_row_band(self):
        safety = banded_safety_map(4, (1, 3), cols=3)
        assert safety.label_count == 3
        assert safety.assignment.tolist() == [0] * 3 + [1] * 6 + [2] * 3
