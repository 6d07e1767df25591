"""Thresholded minimum-cost bipartite matching and its two uses.

A detection counts only within the detection radius, so both uses start
from the sparse list of within-radius pairs. The objective they stand for
prices each pair at its distance and every other (row, column) cell at the
image diagonal, an upper bound on any true distance, so a complete
assignment always exists. Cells assigned at the bound are not matches, so
``solve_assignment`` reports only the pairs the assignment keeps; every
point outside them is a miss or a spurious detection.

Ties between optima are broken lexicographically by re-solving with one
cell forced at a time. The optimal dual potentials of the first solve
rule out every cell with a positive reduced cost, since by complementary
slackness no optimal assignment uses one, so only the remaining tight
cells are probed and the result is the same as probing them all.

A within-radius pair that shares no point with another pair is in every
optimum, so ``solve_assignment`` writes it down without a solve. Most
frames need no solver at all: when every pair is isolated like that,
every other cell costs exactly the bound, and the kept pairs are those
pairs themselves, without building a matrix. The bound-priced cells that
complete the assignment are walked only where a pair lies at exactly the
image diagonal, since only there can one of them be a pair. Otherwise only
the contested rest goes to the solver: the other rows, the columns that
hold a pair, and as many of the interchangeable pair-free columns as
there are rows (see its docstring for the argument).

Both kernels are exact. ``near_pairs`` tests only the points in an x-sorted
band around each row, and ``_hungarian`` scans only the columns not yet on
its augmenting path. Each returns, bit for bit, what testing every pair and
scanning every column return (``tests/oracles.py`` keeps both plain loops).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from math import fsum
from typing import Sequence

from .core import Dataset, EvalConfig, Point, Role


@dataclass(frozen=True)
class FrameMatch:
    """Matching outcome for one (view, frame)."""

    view: int
    frame: int
    tp_pairs: tuple[tuple[str, str, float], ...]  # (gt id, pred id, distance)
    fp_ids: tuple[str, ...]
    fn_ids: tuple[str, ...]

    @property
    def tp(self) -> int:
        return len(self.tp_pairs)


def near_pairs(
    points_a: Sequence[Point], points_b: Sequence[Point], alpha: float
) -> list[tuple[float, int, int]]:
    """Every pair closer than ``alpha`` as (distance, index in a, index in b).

    Pairs come in row-major order. The distance is
    ``math.hypot(a.x - b.x, a.y - b.y)``, the cost of assigning the pair.

    ``points_b`` is sorted by x once, and each row tests only the points
    whose x lies in the band ``[ax - reach, ax + reach]``, where ``reach =
    alpha + (alpha + |ax|) * 1e-9``. No pair is lost. The widening is many
    orders of magnitude above the rounding of the band's edges, including
    that of an integer x beyond 2**53, which the edges round and the
    difference does not. So a point outside the band has ``|fl(ax - bx)|
    >= alpha``. ``math.hypot`` (error under 1 ulp since CPython 3.10) never
    returns less than its larger argument, so that point's distance is not
    below ``alpha`` either. The x coordinates of ``points_b`` must not be
    NaN, which no dataset holds.
    """
    pairs = []
    order = sorted([(b.x, c, b.y) for c, b in enumerate(points_b)])
    xs = [t[0] for t in order]
    hypot = math.hypot
    for r, a in enumerate(points_a):
        ax, ay = a.x, a.y
        reach = alpha + (alpha + abs(ax)) * 1e-9
        lo = bisect_left(xs, ax - reach)
        hi = bisect_right(xs, ax + reach, lo)
        if hi - lo == 1:
            bx, c, by = order[lo]
            d = hypot(ax - bx, ay - by)
            if d < alpha:
                pairs.append((d, r, c))
        elif hi > lo:
            hits = []
            for bx, c, by in order[lo:hi]:
                d = hypot(ax - bx, ay - by)
                if d < alpha:
                    hits.append((c, d))
            hits.sort()
            for c, d in hits:
                pairs.append((d, r, c))
    return pairs


def _hungarian(
    cost: Sequence[Sequence[float]], rows: Sequence[int], cols: Sequence[int]
) -> tuple[list[tuple[int, int]], dict[int, float], dict[int, float]]:
    """Minimum-cost complete assignment on a submatrix, with its duals.

    Shortest augmenting path formulation with row/column potentials.
    ``rows`` and ``cols`` select the active submatrix; returned pairs use
    the original indices and are sorted by row. The potentials come back
    as dicts from original row and column index to value: every pair has
    zero reduced cost ``cost[r][c] - u[r] - v[c]``, no cell has a negative
    one, the potentials of the longer side are at most zero, and zero
    wherever that side is left unassigned, so together they are an optimal
    dual of the assignment problem.
    """
    n, m = len(rows), len(cols)
    if n == 0 or m == 0:
        return [], {}, {}
    transposed = n > m
    if transposed:
        a = [[0.0, *[cost[r][c] for r in rows]] for c in cols]
        n, m = m, n
    else:
        a = [[0.0, *[cost[r][c] for c in cols]] for r in rows]
    # each row is padded with a leading 0.0, so column j is a[i - 1][j]

    inf = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    match = [0] * (m + 1)  # 1-based row matched to each column, 0 = free
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        free = list(range(1, m + 1))  # columns not on the path, ascending
        used = [0]
        while True:
            i0 = match[j0]
            row = a[i0 - 1]
            ui = u[i0]
            delta = inf
            j1 = 0
            for j in free:
                cur = row[j] - ui - v[j]
                mj = minv[j]
                if cur < mj:
                    minv[j] = cur
                    way[j] = j0
                    if cur < delta:
                        delta = cur
                        j1 = j
                elif mj < delta:
                    delta = mj
                    j1 = j
            # A zero delta changes nothing. u and v start at +0.0 and never
            # hold -0.0, as a sum or difference is -0.0 only if an operand
            # already is, so adding either zero leaves them as they are. A
            # -0.0 delta would turn a -0.0 in minv into +0.0, but the two
            # compare equal, and minv reaches u and v only as a delta
            if delta != 0.0:
                for j in used:
                    u[match[j]] += delta
                    v[j] -= delta
                for j in free:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
            free.remove(j0)
            used.append(j0)
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1

    pairs = []
    for j in range(1, m + 1):
        if match[j]:
            if transposed:
                pairs.append((rows[j - 1], cols[match[j] - 1]))
            else:
                pairs.append((rows[match[j] - 1], cols[j - 1]))
    pairs.sort()
    if transposed:
        row_pot = {r: v[j] for j, r in enumerate(rows, 1)}
        col_pot = {c: u[i] for i, c in enumerate(cols, 1)}
    else:
        row_pot = {r: u[i] for i, r in enumerate(rows, 1)}
        col_pot = {c: v[j] for j, c in enumerate(cols, 1)}
    return pairs, row_pot, col_pot


def solve_assignment(
    n: int, m: int, pairs: Sequence[tuple[float, int, int]], image_dims: tuple[int, int]
) -> list[tuple[int, int, float]]:
    """The pairs that the canonical assignment of n rows to m columns keeps.

    ``pairs`` holds each within-radius ``(d, r, c)`` as ``near_pairs`` gives
    it, in any order; every other cell costs the image diagonal ``B``, as
    does a pair at exactly ``d == B``. The result is the ``(r, c, d)`` of
    each pair that the canonical assignment uses, sorted by row: the pair
    cells of what ``minimize_cost`` returns on the dense n x m matrix. Its
    other cells cost the bound and are no matches, so they are not listed.

    Call a pair isolated when it lies more than the tolerance ``1e-9 * (n +
    m) * max(1, B)`` of ``minimize_cost`` below ``B`` and no other pair
    below ``B``, even one within the tolerance, shares its row or its
    column. When every pair below ``B`` is isolated, the result is written
    down from the pairs without a solve. The closed form is exactly what
    ``minimize_cost`` keeps on the dense matrix:

    1. Every optimum contains every isolated pair ``(r, c)``. Take a complete
       assignment without it, pair ``r`` with ``c`` and pair their old
       partners with each other. The cells given up cost ``B``, since no
       other pair below ``B`` holds row ``r`` or column ``c``, and the new
       cell between the old partners costs at most ``B``. The cost changes
       by ``d - B`` if only one of ``r`` and ``c`` had a partner and by at
       most ``d + B - 2B`` if both did. Both are negative.
    2. Every other cell costs ``B`` exactly, so every completion of these
       forced pairs has the same multiset of costs and the same ``fsum``.
       All completions tie, and the lexicographically smallest one fills
       the rows in order, each row without a forced pair taking the
       smallest column that is neither forced nor taken, while one remains.
       A row without a forced pair holds no pair below ``B``, so such a
       fill-in lands on a pair only where that pair lies at exactly ``B``,
       which takes a radius past the image diagonal. Only then are the
       fill-ins walked.
    3. The gap ``B - d`` exceeds the tolerance, which is far above one ulp
       of the total, so the exact ``fsum`` comparisons of ``minimize_cost``
       separate the same totals.

    Otherwise the frame holds a conflict. The isolated pairs are still
    written down, and ``minimize_cost`` solves only the rest: the other
    rows against every untaken column that holds a pair below ``B`` and the
    ``len(rows)`` smallest columns that hold none. Its result, merged with
    the isolated pairs, is again what the dense matrix gives:

    4. Isolated pairs are forced. The swap of step 1 looks only at row
       ``r`` and column ``c``, so every optimum contains an isolated pair
       whatever other pairs conflict, and the row-by-row rule of
       ``minimize_cost`` picks ``c`` for ``r``.
    5. Pair-free columns are interchangeable. Such a column costs ``B`` in
       every row, so swapping a used one for a smaller unused one keeps the
       total and gives a lexicographically smaller sequence. The rule
       therefore only ever uses the ``len(rows)`` smallest of them.
    6. The costs of the isolated pairs must enter every total, so they go
       to ``minimize_cost`` as its ``fixed`` costs and each total is
       rounded as the dense matrix's would be. Without them, the pairs
       ``(141.42135623730948, 2, 0)``, ``(1.8135998598228724, 0, 1)`` and
       ``(141.4213562373095, 1, 1)`` on 3 x 3 with ``B = hypot(100, 100)``
       give ``((0, 1), (1, 0), (2, 2))``; the dense matrix gives
       ``((0, 1), (1, 2), (2, 0))``.
    """
    bound = math.hypot(image_dims[0], image_dims[1])
    below = bound - 1e-9 * (n + m) * max(1.0, bound)
    kept: list[tuple[int, int, float]] = []
    rows: set[int] = set()  # the rows and columns of the forced pairs
    taken: set[int] = set()
    at_bound: set[tuple[int, int]] = set()  # pairs that cost what any other cell costs
    for d, r, c in pairs:
        if d == bound:
            at_bound.add((r, c))
            continue
        if d >= below or r in rows or c in taken:
            break
        kept.append((r, c, d))
        rows.add(r)
        taken.add(c)
    else:
        if at_bound:
            # step 2's fill-ins, each kept where it lands on a pair
            free = (c for c in range(m) if c not in taken)
            for r in range(n):
                if r not in rows:
                    c = next(free, None)
                    if c is None:
                        break
                    if (r, c) in at_bound:
                        kept.append((r, c, bound))
        kept.sort()
        return kept
    # a conflict: write the isolated pairs down and solve only the rest
    # (steps 4-6)
    live = [(d, r, c) for d, r, c in pairs if d != bound]
    row_pairs = Counter(r for _, r, _ in live)
    col_pairs = Counter(c for _, _, c in live)
    forced: dict[int, int] = {}
    fixed: list[float] = []
    for d, r, c in live:
        if d < below and row_pairs[r] == 1 and col_pairs[c] == 1:
            forced[r] = c
            fixed.append(d)
    rest = [r for r in range(n) if r not in forced]
    taken = set(forced.values())
    spare = (c for c in range(m) if c not in col_pairs)
    cols = sorted([*(c for c in col_pairs if c not in taken), *islice(spare, len(rest))])
    row_at = {r: i for i, r in enumerate(rest)}
    col_at = {c: j for j, c in enumerate(cols)}
    sub = [[bound] * len(cols) for _ in rest]
    for d, r, c in live:
        if r not in forced:
            sub[row_at[r]][col_at[c]] = d
    solved = minimize_cost(sub, fixed)
    distance = {(r, c): d for d, r, c in pairs}
    return [
        (r, c, distance[r, c])
        for r, c in sorted([*forced.items(), *((rest[i], cols[j]) for i, j in solved)])
        if (r, c) in distance
    ]


def minimize_cost(
    entries: Sequence[Sequence[float]], fixed: Sequence[float] = ()
) -> tuple[tuple[int, int], ...]:
    """Canonical minimum-cost maximal assignment of any finite matrix.

    Among equal-cost optima the lexicographically smallest (row, col) pair
    sequence is returned, so repeated runs and platform changes cannot
    reshuffle tied matches.

    ``fixed`` holds the costs of cells already assigned outside ``entries``,
    as ``solve_assignment`` passes its isolated pairs. They are added to
    the target and to every probe total, so each total is rounded exactly
    as that of the whole matrix the cells came from; they change no
    choice other than through that rounding.

    A first solve pins the optimal total, one optimal completion and an
    optimal dual ``(u, v)``. Rows are then fixed in order: columns smaller
    than the completion's choice are probed with a reduced solve, and the
    first one that still reaches the total wins. Totals are compared as
    exact correctly-rounded sums, so equal multisets of entries always
    compare equal.

    Only columns that are tight under the dual are probed. The dual is
    feasible (no reduced cost ``entries[r][c] - u[r] - v[c]`` is negative)
    and the potentials of the longer side are at most zero, zero where the
    first solve leaves that side unassigned. Any complete assignment that
    contains a cell therefore costs at least the optimum plus that cell's
    reduced cost, so by complementary slackness no optimal assignment, with
    any rows already fixed, uses a cell whose reduced cost is positive, and
    the probe of such a cell could only fail. The potentials carry float
    round-off, so a cell counts as tight up to a tolerance of
    ``1e-9 * (n + m) * max(1, max |entry|)``, many orders of magnitude
    above that round-off. A looser tolerance would only probe more cells,
    never change the result.
    """
    n = len(entries)
    m = len(entries[0]) if n else 0
    if n == 0 or m == 0:
        return ()

    base, u, v = _hungarian(entries, range(n), range(m))
    target = fsum([*fixed, *(entries[r][c] for r, c in base)])
    k = min(n, m)
    tolerance = 1e-9 * (n + m) * max(1.0, max(max(map(abs, row)) for row in entries))

    # invariant: settled + current reaches the target; current covers rows > r
    current = dict(base)
    settled: list[tuple[int, int]] = []
    used: set[int] = set()
    for r in range(n):
        if len(settled) == k:
            break
        fallback = current.get(r)
        chosen = fallback
        row, ur = entries[r], u[r]
        # no optimal assignment uses a cell that is not tight
        tight = [
            c
            for c in range(m if fallback is None else fallback)
            if c not in used and row[c] - ur - v[c] <= tolerance
        ]
        free_cols = [c for c in range(m) if c not in used] if tight else []
        for c in tight:
            rest, _, _ = _hungarian(entries, range(r + 1, n), [x for x in free_cols if x != c])
            total = fsum(
                [*fixed]
                + [entries[rr][cc] for rr, cc in settled]
                + [entries[r][c]]
                + [entries[rr][cc] for rr, cc in rest]
            )
            if total == target:
                chosen = c
                current = dict(rest)
                break
        if chosen is None:
            continue  # no optimal completion assigns this row
        settled.append((r, chosen))
        used.add(chosen)

    return tuple(settled)


def match_frame(
    gt_points: Sequence[Point],
    pred_points: Sequence[Point],
    config: EvalConfig,
    image_dims: tuple[int, int],
    view: int = 0,
    frame: int = 0,
    pairs: Sequence[tuple[float, int, int]] | None = None,
) -> FrameMatch:
    """Match one frame's ground truth against its predictions.

    The within-radius pairs that ``solve_assignment`` keeps become true
    positives; every other point is a miss or a false detection. A caller
    that already holds the frame's within-radius pairs, as ``near_pairs``
    gives them and in any order, passes them as ``pairs``; ``config.alpha``
    then goes unused. Each true positive keeps its pair's
    distance, which is the true one even where the radius exceeds the
    image diagonal and a pair lies farther apart than the bound.
    """
    if pairs is None:
        pairs = near_pairs(gt_points, pred_points, config.alpha)
    kept = solve_assignment(len(gt_points), len(pred_points), pairs, image_dims)
    fn_ids: tuple[str, ...] = ()
    if len(kept) < len(gt_points):
        tp_rows = {r for r, _, _ in kept}
        fn_ids = tuple(g.id for i, g in enumerate(gt_points) if i not in tp_rows)
    fp_ids: tuple[str, ...] = ()
    if len(kept) < len(pred_points):
        tp_cols = {c for _, c, _ in kept}
        fp_ids = tuple(p.id for j, p in enumerate(pred_points) if j not in tp_cols)
    return FrameMatch(
        view=view,
        frame=frame,
        tp_pairs=tuple([(gt_points[r].id, pred_points[c].id, d) for r, c, d in kept]),
        fp_ids=fp_ids,
        fn_ids=fn_ids,
    )


def assign_temporal_ids(pred: Dataset, config: EvalConfig) -> Dataset:
    """Give every prediction an identity by temporal matching, per view.

    Predictions that already carry an id pass through unchanged and still
    move their identity's last known position. Id-less points in each
    frame are matched against the last known positions of all identities
    seen so far (not just the previous frame), so tracks survive gaps;
    leftovers get fresh ids ``v{view}t{n}`` from a per-view counter that
    skips every id the predictions carry, in any view, and ids already
    minted in the view. A minted id that another view's prediction carries
    would otherwise read as that point's presence in the other view and
    count as a false correspondence. Memory is unbounded on
    purpose: a point that leaves the scene and reappears near its old
    location gets its old identity back, and no aging horizon is part of
    the matching contract.
    """
    if pred.role is not Role.PREDICTION:
        raise ValueError("assign_temporal_ids expects a prediction dataset")

    dims = (pred.image_width, pred.image_height)
    # (view, frame) -> an iterator over the ids given to its id-less points,
    # in input order
    assigned = {}
    reserved = {p.id for p in pred.points if p.id is not None}
    for view in range(pred.n_views):
        # each identity's latest point, in the order identities were first seen
        last: dict[str, Point] = {}
        minted = 0
        for frame in range(pred.n_frames):
            points = pred.at(view, frame)
            nameless = [p for p in points if p.id is None]
            claimed = {p.id for p in points}
            candidates = [t for t in last if t not in claimed]
            near = near_pairs(nameless, [last[t] for t in candidates], config.alpha)

            ids: list[str | None] = [None] * len(nameless)
            for r, c, _ in solve_assignment(len(nameless), len(candidates), near, dims):
                ids[r] = candidates[c]
            for r in range(len(ids)):
                while ids[r] is None:
                    fresh = f"v{view}t{minted}"
                    minted += 1
                    if fresh not in reserved and fresh not in last:
                        ids[r] = fresh

            unnamed = iter(ids)
            for p in points:
                last[p.id if p.id is not None else next(unnamed)] = p
            assigned[view, frame] = iter(ids)

    # a frame's assigned ids are distinct and none is kept by a point of
    # that frame, so ids stay unique per (view, frame)
    return pred._with_valid_points(
        p if p.id is not None else Point(
            view=p.view,
            frame=p.frame,
            x=p.x,
            y=p.y,
            id=next(assigned[p.view, p.frame]),
            class_label=p.class_label,
        )
        for p in pred.points
    )
