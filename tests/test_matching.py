"""The assignment solver, its sparse front end and both of its uses."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from math import fsum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvteval import evaluate, matching, metrics
from mvteval.core import Dataset, EvalConfig, Point, Role
from mvteval.matching import (
    assign_temporal_ids,
    first_min_cost,
    match_frame,
    minimize_cost,
    near_pairs,
    solve_assignment,
)
from mvteval.synth import SynthConfig, generate
from oracles import (
    all_optimal_assignments,
    canonical_assignment,
    hungarian_reference,
    min_cost_assignment_by_permutations,
    near_pairs_oracle,
    oracle_match_frame,
    thresholded_matrix,
)

CONFIG = EvalConfig(alpha=6.0)
DIMS = (100, 100)
BOUND = math.hypot(*DIMS)


def by_index(i):
    return i


def solve_by_index(pairs, dims=DIMS):
    """``solve_assignment`` with rows and columns keyed by their index."""
    return solve_assignment(pairs, dims, by_index, by_index)


def pt(x, y, id=None, view=0, frame=0):
    return Point(view=view, frame=frame, x=x, y=y, id=id)


def total(matrix, pairs):
    return fsum(matrix[r][c] for r, c in pairs)


def exact_total(matrix, pairs):
    return sum(Fraction(matrix[r][c]) for r, c in pairs)


# ---------------------------------------------------------------------------
# solver


def test_solver_single_cell():
    assert minimize_cost(((0,),)) == ((0, 0),)


def test_solver_symmetric_two_by_two():
    assert minimize_cost(((1, 2), (2, 1))) == ((0, 0), (1, 1))


@pytest.mark.parametrize("shape", [(5, 5), (6, 4), (4, 6), (1, 7), (7, 1)])
def test_solver_equals_permutation_enumeration(shape):
    rng = random.Random(str(shape))
    for _ in range(60):
        mat = tuple(
            tuple(rng.uniform(0, 50) for _ in range(shape[1])) for _ in range(shape[0])
        )
        got = first_min_cost(mat)
        want_cost, want_pairs = min_cost_assignment_by_permutations(mat)
        assert total(mat, got) == want_cost
        assert got == want_pairs


# found by test_solver_optimality_property: a solve in floats could not
# see the 1.5e-76 cell, and it pinned a total that is not the least
FOUND_BELOW_THE_POTENTIALS_RESOLUTION = (
    (0, 0, 255, 0),
    (0, 0, 254.8458709117612, 0),
    (1.5219710646900248e-76, 1.7242963896769368, 257, 2),
    (0, 1.7242963896769368, 257, 2),
)


# small ints tie often; ints far past 2**53 would lose digits in floats
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.integers(1, 6).flatmap(
            lambda m: st.lists(
                st.lists(
                    st.one_of(st.integers(0, 3), st.integers(-(2**70), 2**70)),
                    min_size=m,
                    max_size=m,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_solver_optimality_property(rows):
    # minimize_cost returns some optimum of an int matrix, any of the tied ones
    _, optima = all_optimal_assignments(rows)
    assert minimize_cost(rows) in optima


def test_solver_finds_an_optimum_below_the_potentials_resolution():
    rows = FOUND_BELOW_THE_POTENTIALS_RESOLUTION
    want_cost, _ = min_cost_assignment_by_permutations(rows)
    assert want_cost == 256.5701673014381
    assert total(rows, first_min_cost(rows)) == want_cost


SMALL_INT_MATRICES = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, 3), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@given(SMALL_INT_MATRICES)
@settings(max_examples=300, deadline=None)
def test_solver_returns_lexicographically_smallest_optimum(rows):
    mat = tuple(tuple(float(x) for x in row) for row in rows)
    got = first_min_cost(mat)
    best, optima = all_optimal_assignments(mat)
    assert exact_total(mat, got) == best
    assert got == optima[0]


# a float is a mantissa times a power of two: exponents from deep below the
# unit up to 2**8 put gains far apart in scale beside one another
DYADIC = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 255.0]),
    st.builds(
        lambda mantissa, k: math.ldexp(mantissa, k),
        st.one_of(st.integers(1, 3), st.integers(1, 2**53 - 1)),
        st.integers(-300, 8),
    ),
)


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.integers(1, 5).flatmap(
            lambda m: st.lists(
                st.lists(DYADIC, min_size=m, max_size=m), min_size=n, max_size=n
            )
        )
    )
)
# a total one unit in the last place above the optimum's rounds to it
@example([[1.0, 2.0**-54], [1.0, 0.0]])
@settings(max_examples=300, deadline=None)
def test_solver_returns_the_exact_lexicographically_first_optimum_of_a_float_matrix(rows):
    got = first_min_cost(rows)
    best, optima = all_optimal_assignments(rows)
    assert exact_total(rows, got) == best
    assert got == optima[0]


@st.composite
def grid_points(draw):
    # a coarse integer grid: many equal distances, many bound-priced cells
    n = draw(st.integers(1, 6))
    coords = st.integers(0, 4).map(lambda k: 2 * k)
    return [pt(draw(coords), draw(coords)) for _ in range(n)]


TIE_HEAVY_GRIDS = (grid_points(), grid_points(), st.sampled_from([1.5, 2.5, 4.5]))


@given(*TIE_HEAVY_GRIDS)
@settings(max_examples=300, deadline=None)
def test_solver_lexicographic_on_tie_heavy_grid_matrices(gts, preds, alpha):
    pairs = near_pairs(gts, preds, alpha)
    mat = thresholded_matrix(len(gts), len(preds), pairs, DIMS)
    best, optima = all_optimal_assignments(mat)
    got = first_min_cost(mat)
    assert exact_total(mat, got) == best
    assert got == optima[0]
    assert solve_by_index(pairs) == canonical_assignment(pairs, BOUND, by_index, by_index)


@st.composite
def mixed_points(draw, max_points=8):
    # coarse-grid points tie often; uniform points and far false positives
    # near (90, 90) leave many rows and columns with no cell below alpha
    grid = st.integers(0, 4).map(lambda k: 2.0 * k)
    kinds = st.sampled_from([grid, grid, st.floats(0, 100), st.floats(85, 100)])
    points = []
    for _ in range(draw(st.integers(0, max_points))):
        coords = draw(kinds)
        points.append(pt(draw(coords), draw(coords)))
    return points


# the last radius exceeds the 141.4 px diagonal: every cell is a distance
RADII = st.sampled_from([1.5, 2.5, 4.5, 30.0, 150.0])


@st.composite
def pairs_of_points(draw, max_points=8):
    """Within-radius pairs of two point sets, in a shuffled order."""
    gts, preds = draw(mixed_points(max_points)), draw(mixed_points(max_points))
    return draw(st.permutations(near_pairs(gts, preds, draw(RADII))))


@st.composite
def pairs_beside_the_bound(draw):
    """Pairs at, one ulp below and far below the bound, where a pair at
    exactly the bound, of gain 0, shares a row or a column with another."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(2 if n == 1 else 1, 6))
    distances = st.one_of(
        st.sampled_from([1.0, 2.0, math.nextafter(BOUND, 0), BOUND]), st.floats(0, BOUND)
    )
    cells = {}
    for _ in range(draw(st.integers(0, 6))):
        cells[draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))] = draw(distances)
    r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
    cells[r, c] = draw(st.floats(0, 10))
    if n == 1 or (m > 1 and draw(st.booleans())):
        cells[r, (c + draw(st.integers(1, m - 1))) % m] = BOUND
    else:
        cells[(r + draw(st.integers(1, n - 1))) % n, c] = BOUND
    return draw(st.permutations([(d, r, c) for (r, c), d in cells.items()]))


@st.composite
def keyed(draw, pairs):
    """(pairs, row key, column key), the keys ordering the rows and columns
    of ``pairs`` at random."""
    pairs = draw(pairs)
    rows = sorted({r for _, r, _ in pairs})
    cols = sorted({c for _, _, c in pairs})
    row_keys = dict(zip(rows, draw(st.permutations(rows))))
    col_keys = dict(zip(cols, draw(st.permutations(cols))))
    return pairs, row_keys.__getitem__, col_keys.__getitem__


# 15 points a side at the smaller radii: many components, some of them large
@given(
    keyed(
        st.one_of(
            pairs_of_points(),
            pairs_of_points(max_points=15).filter(lambda pairs: len(pairs) <= 30),
            pairs_beside_the_bound(),
        )
    )
)
# two rows contest a column one ulp below the bound: a star, whose tie goes
# to the smaller row key without a solve
@example(([(math.nextafter(BOUND, 0), r, 2) for r in (0, 1)], by_index, by_index))
# a pair at exactly the bound gains nothing, but a row without a pair comes
# after every column, so the pair is kept ...
@example(([(1.0, 0, 1), (BOUND, 1, 0)], by_index, by_index))
# ... and it decides a tie inside a component that needs a solve: keeping
# (0, 0) and (1, 1) gains as much as keeping (0, 1) alone, whichever row
# comes first
@example(([(BOUND, 0, 0), (1.0, 0, 1), (1.0, 1, 1)], by_index, by_index))
@example(([(BOUND, 0, 0), (1.0, 0, 1), (1.0, 1, 1)], lambda r: -r, by_index))
# gains closer than a float solve's round-off: keeping (0, 2) and (2, 0)
# gains 1e-308 more than keeping (0, 0) and (1, 2)
@example(
    (
        [
            (1.0, 2, 0),
            (1.0, 0, 0),
            (0.0, 0, 2),
            (1.1125369292536007e-308, 1, 2),
            (141.4213562373095, 2, 2),
        ],
        by_index,
        by_index,
    )
)
@settings(max_examples=600, deadline=None)
def test_solve_assignment_equals_the_oracle(case):
    pairs, row_key, col_key = case
    got = solve_assignment(pairs, DIMS, row_key, col_key)
    assert got == canonical_assignment(pairs, BOUND, row_key, col_key)


@given(mixed_points(max_points=15), mixed_points(max_points=15), RADII)
@settings(max_examples=150, deadline=None)
def test_solve_assignment_reaches_the_optimum_scipy_finds(gts, preds, alpha):
    optimize = pytest.importorskip("scipy.optimize")
    n, m = len(gts), len(preds)
    pairs = near_pairs(gts, preds, alpha)
    got = solve_by_index(pairs)
    assert set(got) <= {(r, c, d) for d, r, c in pairs}
    if n and m:
        mat = thresholded_matrix(n, m, pairs, DIMS)
        rows, cols = optimize.linear_sum_assignment(mat)
        want = fsum(mat[r][c] for r, c in zip(rows, cols))
        # every row or column left out of the kept pairs takes a cell at the bound
        kept = fsum([d for _, _, d in got]) + BOUND * (min(n, m) - len(got))
        assert math.isclose(kept, want, rel_tol=1e-12)


def test_solve_assignment_keeps_a_pair_just_below_the_bound():
    # one ulp below the bound a pair's gain is tiny, but positive
    pairs = [(math.nextafter(BOUND, 0), 0, 1)]
    assert solve_by_index(pairs) == [(0, 1, pairs[0][0])]
    assert solve_by_index(pairs) == canonical_assignment(pairs, BOUND, by_index, by_index)


def test_a_solve_in_an_image_near_the_float_range_stays_finite():
    # four rows contest two columns, so two rows keep no pair; as floats,
    # their private columns at the 1e308 bound would sum past the float
    # range, and as ints they sum exactly
    gts = [pt(10, 10, "a"), pt(12, 12, "b"), pt(14, 10, "c"), pt(18, 10, "d")]
    preds = [pt(12, 10, "p"), pt(16, 10, "q")]
    m = match_frame(gts, preds, CONFIG, (10**308, 100))
    assert m.tp_pairs == (("a", "p", 2.0), ("c", "q", 2.0))


def count_solves(monkeypatch):
    """Count Hungarian solves, minimize_cost calls and match_frame calls, and
    record the shape of each matrix that minimize_cost solves and the
    Hungarian solves each of its calls makes."""
    calls = {"solves": 0, "minimize": 0, "frames": 0, "shapes": [], "solves_per_call": []}
    hungarian, minimize, frame = matching._hungarian, matching.minimize_cost, metrics.match_frame

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            if key != "minimize":
                return fn(*args)
            calls["shapes"].append((len(args[0]), len(args[0][0])))
            before = calls["solves"]
            result = fn(*args)
            calls["solves_per_call"].append(calls["solves"] - before)
            return result

        return wrapper

    monkeypatch.setattr(matching, "_hungarian", counted("solves", hungarian))
    monkeypatch.setattr(matching, "minimize_cost", counted("minimize", minimize))
    monkeypatch.setattr(metrics, "minimize_cost", counted("minimize", minimize))
    monkeypatch.setattr(metrics, "match_frame", counted("frames", frame))
    return calls


def oracle_tp_pairs(gts, preds):
    """The (gt id, pred id, distance) of the oracle's true positives, in gt order."""
    tp, _, _ = oracle_match_frame(gts, preds, CONFIG.alpha, BOUND)
    return tuple((g.id, p.id, d) for g, p, d in tp)


@pytest.mark.parametrize("swap", [False, True])
def test_conflict_free_frame_needs_no_solve(monkeypatch, swap):
    calls = count_solves(monkeypatch)
    gts = [pt(10, 10, "a"), pt(40, 10, "b"), pt(10, 40, "c"), pt(60, 60, "missed")]
    preds = [pt(41, 11, "q"), pt(90, 90, "fp"), pt(12, 10, "p"), pt(10, 43, "r")]
    crowded = gts + [pt(14, 10, "d")]  # as close to p as a is
    chained = (crowded, preds + [pt(16, 10, "s")])  # as close to d as p is
    frames = [(gts, preds), (crowded, preds), chained]
    if swap:
        frames = [(b, a) for a, b in frames]
    for frame in frames:
        assert match_frame(*frame, CONFIG, DIMS).tp_pairs == oracle_tp_pairs(*frame)
    calls.update(solves=0, minimize=0, shapes=[])

    m = match_frame(*frames[0], CONFIG, DIMS)
    assert calls["solves"] == calls["minimize"] == 0
    assert m.tp == 3
    assert {frozenset(pair[:2]) for pair in m.tp_pairs} == {
        frozenset("ap"), frozenset("bq"), frozenset("cr")
    }
    assert set(m.fn_ids) | set(m.fp_ids) == {"missed", "fp"}

    # a and d contest p alone: a star, whose tie goes to the smaller (x, y)
    # without a solve
    m = match_frame(*frames[1], CONFIG, DIMS)
    assert calls["solves"] == calls["minimize"] == 0
    assert {frozenset(pair[:2]) for pair in m.tp_pairs} == {
        frozenset("ap"), frozenset("bq"), frozenset("cr")
    }

    # a, p, d and s form a chain, solved once on its own two rows and two
    # columns, each row with a private column at the bound
    m = match_frame(*frames[2], CONFIG, DIMS)
    assert calls["minimize"] == 1
    assert calls["shapes"] == [(2, 4)]
    assert m.tp == 4


@pytest.mark.parametrize("strip_ids", [False, True])
def test_each_minimize_cost_call_solves_once_or_twice(monkeypatch, strip_ids):
    # every call is a single solve: IDF1 leaves ties open, and a frame
    # component settles its ties by weighting its costs first. Conflict-free
    # frames need no solve at all; without that shortcut these scenes
    # average 2.8-3.8 solves per match_frame call, linker and IDF1 solves
    # included
    calls = count_solves(monkeypatch)
    for seed in (1, 2, 3):
        gt, pred = generate(
            SynthConfig(
                n_views=2,
                n_frames=10,
                n_points=20,
                pred_noise_sigma=1.5,
                pred_miss_rate=0.1,
                pred_fp_rate=0.5,
                view_drop_prob=0.15,
                id_switch_prob=0.02,
                seed=seed,
            )
        )
        if strip_ids:
            pred = pred.with_points(pt(p.x, p.y, view=p.view, frame=p.frame) for p in pred.points)
        evaluate(gt, pred)
    assert calls["minimize"] > 0
    assert set(calls["solves_per_call"]) == {1}
    assert calls["solves"] / calls["frames"] <= 1


@pytest.mark.parametrize(
    "matrix, want",
    [
        (((1.0, 2.0), (2.0, 1.0)), ((0, 0), (1, 1))),
        # an unweighted solve may keep (0, 1), (2, 2) and (3, 0) at the same
        # total, but (0, 1), (1, 0) and (3, 2) come first: row 1 left
        # unassigned reads as a column past the last
        (((2, 1, 2), (1, 1, 2), (2, 2, 1), (0, 0, 0)), ((0, 1), (1, 0), (3, 2))),
    ],
)
def test_first_min_cost_settles_a_tie_in_one_solve(monkeypatch, matrix, want):
    calls = count_solves(monkeypatch)
    assert first_min_cost(matrix) == want
    assert calls["solves"] == calls["minimize"] == 1


def test_solver_tie_between_bound_and_real_pairs():
    # Two ground truths both 3px from the single reachable column; either
    # may take it at equal total cost. Lexicographic order settles it: row
    # 0 takes the leftmost (bound-priced) column, row 1 the real match.
    bound = math.sqrt(20000)
    mat = ((bound, 3.0, bound), (bound, 3.0, bound))
    assert first_min_cost(mat) == ((0, 0), (1, 1))


# ---------------------------------------------------------------------------
# the fast kernels against the plain loops


@st.composite
def band_edge_points(draw):
    """(points_a, points_b, alpha) with x offsets on and one ulp beside ``±alpha``.

    Coordinates reach 1e15 with radii down to 0.5, integers run past 2**53
    (a point may hold one; its float conversion rounds), radii run past the
    100 x 100 diagonal, x values repeat, and either side may be empty.
    """
    alpha = draw(st.one_of(st.sampled_from([0.5, 1.5, 6.0, 150.0]), st.floats(1e-3, 1e3)))
    coord = draw(
        st.sampled_from([
            st.floats(0, 100),
            st.floats(-1e15, 1e15),
            st.integers(2**53 - 500, 2**53 + 500),
            st.integers(2**60 - 500, 2**60 + 500),
        ])
    )
    anchors = draw(st.lists(coord, min_size=1, max_size=4))

    def x():
        ax = draw(st.sampled_from(anchors))
        kind = draw(st.sampled_from(["anchor", "edge", "edge", "free"]))
        if kind == "anchor":
            return ax
        if kind == "free":
            return draw(coord)
        edge = ax + draw(st.sampled_from([alpha, -alpha]))
        return draw(st.sampled_from([edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf)]))

    # y values mostly equal, so the distance is the x offset itself
    y = st.one_of(st.sampled_from([0.0, 5e-324, 1e-9, 1.0]), st.floats(0, 100))
    points_a = [pt(x(), draw(y)) for _ in range(draw(st.integers(0, 8)))]
    points_b = [pt(x(), draw(y)) for _ in range(draw(st.integers(0, 8)))]
    return points_a, points_b, alpha


@given(band_edge_points())
@settings(max_examples=600, deadline=None)
def test_near_pairs_equals_the_double_loop(case):
    got, want = near_pairs(*case), near_pairs_oracle(*case)
    assert [(r, c, d.hex()) for d, r, c in got] == [(r, c, d.hex()) for d, r, c in want]


@st.composite
def cost_submatrices(draw):
    """(cost, rows, cols): an int matrix, tie-heavy or not, and the submatrix to solve.

    Tie-heavy matrices hold many cells at one large cost and equal small
    costs; either side may be the longer one.
    """
    n, m = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    ties = st.sampled_from([0, 1, 2, 142, 142, 142])
    cell = draw(st.sampled_from([ties, st.one_of(ties, st.integers(-1000, 1000))]))
    cost = [[draw(cell) for _ in range(m)] for _ in range(n)]
    rows = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    cols = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))
    return cost, rows, cols


@given(cost_submatrices())
@settings(max_examples=600, deadline=None)
def test_hungarian_equals_the_full_column_scan(case):
    assert matching._hungarian(*case) == hungarian_reference(*case)


# ---------------------------------------------------------------------------
# frame matching


def test_match_frame_within_radius_is_tp():
    for pred_x, distance in ((12, 2.0), (10, 0.0)):  # nearby, then coincident
        m = match_frame([pt(10, 10, "g")], [pt(pred_x, 10, "p")], CONFIG, DIMS)
        assert m.tp_pairs == (("g", "p", distance),)
        assert m.fp_ids == () and m.fn_ids == ()


def test_match_frame_beyond_radius_splits_fn_fp():
    m = match_frame([pt(10, 10, "g")], [pt(19, 10, "p")], CONFIG, DIMS)
    assert m.tp_pairs == ()
    assert m.fn_ids == ("g",) and m.fp_ids == ("p",)


def test_match_frame_prefers_closest_prediction():
    m = match_frame(
        [pt(10, 10, "g")], [pt(14, 10, "far"), pt(12, 10, "near")], CONFIG, DIMS
    )
    assert m.tp_pairs == (("g", "near", 2.0),)
    assert m.fp_ids == ("far",)


@pytest.mark.parametrize(
    "gts, preds, want",
    [
        ([pt(10, 10, "a"), pt(14, 10, "b")], [pt(600, 400, "far"), pt(12, 10, "p")], "a"),
        ([pt(14, 10, "b"), pt(10, 10, "a")], [pt(12, 10, "p")], "a"),
        ([pt(10, 10, "b"), pt(14, 10, "a")], [pt(12, 10, "p")], "b"),
    ],
    ids=["far-prediction-first", "b-listed-first", "ids-swapped"],
)
def test_a_tie_goes_by_position_whatever_else_the_frame_holds(gts, preds, want):
    # the points at (10, 10) and (14, 10) lie 2 px either side of p: the one
    # at the smaller x takes it, whether a false positive far from both is
    # listed first, the other is, or the two swap ids
    m = match_frame(gts, preds, CONFIG, (640, 480))
    assert m.tp_pairs == ((want, "p", 2.0),)


def test_the_linker_breaks_a_tie_between_identities_by_last_position():
    # z and a were last seen 2 px either side of the id-less point: the
    # identity last seen at the smaller x takes it, whatever the ids' order
    pred = Dataset(
        1,
        2,
        *DIMS,
        (pt(10, 10, "z"), pt(14, 10, "a"), pt(12, 10, None, frame=1)),
        Role.PREDICTION,
    )
    linked = assign_temporal_ids(pred, CONFIG)
    assert linked.at(0, 1)[0].id == "z"


@st.composite
def tie_heavy_frames(draw):
    """(gts, preds, alpha) on a 7 x 7 integer grid, where many distances tie
    and points may coincide, predictions among them. Ids come in an order
    unrelated to the points', and any of the predictions may have none."""
    cell = st.tuples(st.integers(0, 6), st.integers(0, 6))
    gt_cells = draw(st.lists(cell, max_size=7))
    pred_cells = draw(
        st.lists(st.one_of(cell, st.sampled_from(gt_cells)) if gt_cells else cell, max_size=7)
    )
    gt_ids = draw(st.permutations([f"g{i}" for i in range(len(gt_cells))]))
    pred_ids = [
        None if draw(st.booleans()) else i
        for i in draw(st.permutations([f"p{i}" for i in range(len(pred_cells))]))
    ]
    gts = [pt(x, y, i) for (x, y), i in zip(gt_cells, gt_ids)]
    preds = [pt(x, y, i) for (x, y), i in zip(pred_cells, pred_ids)]
    return gts, preds, draw(st.sampled_from([1.5, 2.5, 3.5]))


@given(tie_heavy_frames())
@settings(max_examples=400, deadline=None)
def test_match_frame_equals_the_oracle_on_tie_heavy_grids(case):
    gts, preds, alpha = case
    m = match_frame(gts, preds, EvalConfig(alpha=alpha), DIMS)
    tp, fp, fn = oracle_match_frame(gts, preds, alpha, BOUND)
    assert m.tp_pairs == tuple((g.id, p.id, d) for g, p, d in tp)
    assert m.fp_ids == tuple(p.id for p in fp)
    assert m.fn_ids == tuple(g.id for g in fn)


def test_match_frame_radius_beyond_the_diagonal(monkeypatch):
    # opposite corners sit exactly one diagonal apart, a true distance below
    # this radius; a point outside the image is farther than the bound
    calls = count_solves(monkeypatch)
    config = EvalConfig(alpha=200.0)
    corner = match_frame([pt(0, 0, "g")], [pt(100, 100, "p")], config, DIMS)
    assert corner.tp_pairs == (("g", "p", math.hypot(*DIMS)),)
    assert calls["minimize"] == 0  # a pair at the bound costs what any other cell does
    outside = match_frame([pt(0, 0, "g")], [pt(300, 0, "p")], config, DIMS)
    assert outside.tp_pairs == ()
    assert outside.fn_ids == ("g",) and outside.fp_ids == ("p",)


def test_idf1_solves_only_over_ids_with_a_hit(monkeypatch):
    # view 0: a and b trade p and q in the last frame, and two spurious
    # prediction ids lie far from every ground-truth point; view 1: its
    # only prediction is never within alpha of its ground truth
    calls = count_solves(monkeypatch)
    gts, preds = [], []
    for f, (near_a, near_b) in enumerate(["pq", "pq", "qp"]):
        gts += [pt(10, 10, "a", frame=f), pt(40, 10, "b", frame=f), pt(10, 10, "c", 1, f)]
        preds += [pt(11, 10, near_a, frame=f), pt(41, 10, near_b, frame=f)]
        preds += [pt(90, 90, "far1", frame=f), pt(90, 60, "far2", frame=f), pt(80, 80, "r", 1, f)]
    gt = Dataset(2, 3, *DIMS, tuple(gts), Role.GROUND_TRUTH)
    pred = Dataset(2, 3, *DIMS, tuple(preds), Role.PREDICTION)
    report = evaluate(gt, pred, CONFIG)
    # every frame is conflict-free, so IDF1 of view 0 is the only solve
    assert calls["shapes"] == [(2, 2)]
    # IDTP 4 of 6 ground-truth and 12 prediction points; no hit in view 1
    assert [v.idf1 for v in report.per_view] == [8 / 18, 0.0]


def test_match_frame_empty_inputs():
    m = match_frame([], [], CONFIG, DIMS)
    assert m.tp_pairs == () and m.fp_ids == () and m.fn_ids == ()
    m = match_frame([], [pt(1, 1, "p")], CONFIG, DIMS)
    assert m.tp_pairs == () and m.fp_ids == ("p",) and m.fn_ids == ()
    m = match_frame([pt(1, 1, "g")], [], CONFIG, DIMS)
    assert m.tp_pairs == () and m.fp_ids == () and m.fn_ids == ("g",)
    assert solve_by_index([]) == []


@st.composite
def frame_points(draw, max_points=5):
    n = draw(st.integers(0, max_points))
    coords = st.integers(0, 100)
    return [
        pt(draw(coords), draw(coords), id=f"x{i}")
        for i in range(n)
    ]


@given(frame_points(), frame_points())
@settings(max_examples=200, deadline=None)
def test_match_frame_counts_and_threshold(gts, preds):
    gts = [pt(p.x, p.y, f"g{i}") for i, p in enumerate(gts)]
    preds = [pt(p.x, p.y, f"p{i}") for i, p in enumerate(preds)]
    m = match_frame(gts, preds, CONFIG, DIMS)
    assert m.tp + len(m.fp_ids) == len(preds)
    assert m.tp + len(m.fn_ids) == len(gts)
    for _, _, d in m.tp_pairs:
        assert d < CONFIG.alpha


@given(frame_points(), frame_points())
@settings(max_examples=150, deadline=None)
def test_match_frame_swap_symmetry(gts, preds):
    gts = [pt(p.x, p.y, f"g{i}") for i, p in enumerate(gts)]
    preds = [pt(p.x, p.y, f"p{i}") for i, p in enumerate(preds)]
    forward = match_frame(gts, preds, CONFIG, DIMS)
    backward = match_frame(preds, gts, CONFIG, DIMS)
    assert forward.tp == backward.tp
    assert set(forward.fp_ids) == set(backward.fn_ids)
    assert set(forward.fn_ids) == set(backward.fp_ids)


@given(frame_points(), frame_points(), st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=150, deadline=None)
def test_match_frame_translation_invariance(gts, preds, dx, dy):
    gts = [pt(p.x, p.y, f"g{i}") for i, p in enumerate(gts)]
    preds = [pt(p.x, p.y, f"p{i}") for i, p in enumerate(preds)]
    dims = (200, 200)
    moved_gts = [pt(p.x + dx + 50, p.y + dy + 50, p.id) for p in gts]
    moved_preds = [pt(p.x + dx + 50, p.y + dy + 50, p.id) for p in preds]
    grown = [pt(p.x + 50, p.y + 50, p.id) for p in gts]
    grown_preds = [pt(p.x + 50, p.y + 50, p.id) for p in preds]
    base = match_frame(grown, grown_preds, CONFIG, dims)
    moved = match_frame(moved_gts, moved_preds, CONFIG, dims)
    assert base.tp_pairs == moved.tp_pairs
    assert base.fp_ids == moved.fp_ids
    assert base.fn_ids == moved.fn_ids


# ---------------------------------------------------------------------------
# temporal id assignment


def prediction_dataset(points, n_frames=5, n_views=1, size=200):
    return Dataset(
        n_views=n_views,
        n_frames=n_frames,
        image_width=size,
        image_height=size,
        points=tuple(points),
        role=Role.PREDICTION,
    )


def test_static_point_keeps_one_id():
    ds = prediction_dataset([pt(50, 50, frame=f) for f in range(3)], n_frames=3)
    out = assign_temporal_ids(ds, CONFIG)
    ids = {p.id for p in out.points}
    assert len(ids) == 1 and None not in ids


def test_reappearing_point_regains_its_id():
    ds = prediction_dataset(
        [
            pt(100, 100, frame=0),
            pt(101, 100, frame=1),
            pt(103, 100, frame=4),
        ]
    )
    out = assign_temporal_ids(ds, CONFIG)
    assert out.points[0].id == out.points[2].id


def test_far_reappearance_gets_fresh_id():
    ds = prediction_dataset([pt(100, 100, frame=0), pt(150, 100, frame=1)], n_frames=2)
    out = assign_temporal_ids(ds, CONFIG)
    assert out.points[0].id != out.points[1].id


def test_points_with_ids_pass_through():
    ds = prediction_dataset(
        [pt(10, 10, id="keep", frame=0), pt(40, 40, frame=0)], n_frames=1
    )
    out = assign_temporal_ids(ds, CONFIG)
    assert out.points[0].id == "keep"
    assert out.points[1].id is not None and out.points[1].id != "keep"


def test_fresh_ids_avoid_pass_through_collision():
    for points, expected in (
        ([pt(10, 10, id="v0t0"), pt(40, 40)], {"v0t0", "v0t1"}),
        # the counter skips the supplied v0t1 between the two names it mints
        ([pt(10, 10), pt(25, 25, id="v0t1"), pt(40, 40)], {"v0t0", "v0t1", "v0t2"}),
    ):
        out = assign_temporal_ids(prediction_dataset(points, n_frames=1), CONFIG)
        ids = [p.id for p in out.points]
        assert len(set(ids)) == len(ids) and set(ids) == expected


@pytest.mark.parametrize("other_id", ["zzz", "v0t0"])
def test_fresh_ids_avoid_another_views_ids(other_id):
    # view 0 mints an id for its id-less detection of g; view 1 holds one
    # far false positive with a supplied id, where g is not annotated
    gt = Dataset(
        2, 1, 100, 100, (pt(10, 10, "g"), pt(50, 50, "h", view=1)), Role.GROUND_TRUTH
    )
    pred = prediction_dataset(
        [pt(11, 10), pt(90, 90, other_id, view=1)], n_frames=1, n_views=2, size=100
    )
    linked = assign_temporal_ids(pred, CONFIG)
    assert linked.points[0].id not in (None, other_id)
    report = evaluate(gt, pred, CONFIG)
    # had view 0 minted the other view's id, that id's presence in view 1
    # would count as a false correspondence: CorresAcc and mvHOTA 0
    assert report.tallies["fpc"] == 0
    assert report.corres_acc == 1.0
    assert report.mv_hota == pytest.approx(0.693, abs=5e-4)


def test_linker_on_a_long_id_less_sequence_equals_the_oracle(monkeypatch):
    # each linker frame faces every identity seen so far in its view, most
    # of them out of reach, so most of its pairs are components of their own
    gt, pred = generate(
        SynthConfig(
            n_views=2,
            n_frames=200,
            n_points=10,
            motion_amplitude=5.0,
            pred_noise_sigma=1.5,
            pred_miss_rate=0.1,
            pred_fp_rate=0.5,
            view_drop_prob=0.15,
            id_switch_prob=0.02,
            seed=2,
        )
    )
    pred = pred.with_points(dataclasses.replace(p, id=None) for p in pred.points)
    fast = metrics.evaluate_detailed(gt, pred)
    monkeypatch.setattr(
        matching,
        "solve_assignment",
        lambda pairs, dims, row_key, col_key: canonical_assignment(
            pairs, math.hypot(*dims), row_key, col_key
        ),
    )
    searched = metrics.evaluate_detailed(gt, pred)
    assert fast.report == searched.report
    assert fast.matches == searched.matches
    assert fast.pred_with_ids.points == searched.pred_with_ids.points


def test_assignment_is_deterministic():
    rng = random.Random(5)
    points = [
        pt(rng.uniform(10, 190), rng.uniform(10, 190), frame=f)
        for f in range(6)
        for _ in range(4)
    ]
    ds = prediction_dataset(points, n_frames=6)
    first = assign_temporal_ids(ds, CONFIG)
    second = assign_temporal_ids(ds, CONFIG)
    assert first == second


def _brute_force_two_track_labelling(frames):
    """All ways of labelling two per-frame detections with two track ids."""
    best_cost, best_key = None, None
    for flips in itertools.product((False, True), repeat=len(frames)):
        tracks = {0: [], 1: []}
        for (a, b), flip in zip(frames, flips):
            tracks[0].append(b if flip else a)
            tracks[1].append(a if flip else b)
        cost = sum(
            math.dist(track[i], track[i + 1])
            for track in tracks.values()
            for i in range(len(track) - 1)
        )
        key = frozenset(frozenset(t) for t in tracks.values())
        if best_cost is None or cost < best_cost - 1e-12:
            best_cost, best_key = cost, key
    return best_key


def test_slow_swap_matches_global_minimum_labelling():
    frames = [((50.0 + 5.5 * f, 50.0), (72.0 - 5.5 * f, 70.0)) for f in range(5)]
    points = [
        pt(x, y, frame=f) for f, pair in enumerate(frames) for (x, y) in pair
    ]
    out = assign_temporal_ids(prediction_dataset(points), CONFIG)
    tracks: dict[str, set] = {}
    for p in out.points:
        tracks.setdefault(p.id, set()).add((p.x, p.y))
    got = frozenset(frozenset(t) for t in tracks.values())
    assert got == _brute_force_two_track_labelling(frames)
