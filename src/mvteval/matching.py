"""Thresholded maximum-gain bipartite matching and its two uses.

A detection counts only within the detection radius, so both uses start
from the sparse list of within-radius pairs, and the matching is defined
on those pairs alone. With ``B`` the image diagonal, an upper bound on the
distance between two points of the image, it keeps the injective set of
pairs whose summed gain ``B - d`` is largest, compared exactly. That is a
minimum-cost complete assignment with every other cell priced at ``B``.
Whenever ``min(n, m) * alpha <= B`` it keeps as many pairs as possible and,
of those, the ones with the least total distance. Every point outside the
kept pairs is a miss or a spurious detection.

Ties go by content, not by file position. Every row and column has a key,
and of the tied sets the one kept gives the rows, taken in key order, the
smallest column keys. A key is a position ``(x, y)`` first and an id only
after it: ``match_frame`` keys each point by its ``(x, y)``, then its id,
and the linker keys its id-less points by ``(x, y)`` and its identities by
their last position, then id. The rule splits by connected component of
the graph the pairs form, so ``solve_assignment`` solves each component on
its own. A point farther than the radius from every other, or one in
another component, cannot move a match, and neither can the order of the
input; renaming ids can only decide between points at one position.

Both kernels are exact. ``near_pairs`` tests only the points in an x-sorted
band around each row, and ``_hungarian`` scans only the columns not yet on
its augmenting path. Each returns, bit for bit, what testing every pair and
scanning every column return (``tests/oracles.py`` keeps both plain loops).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Sequence

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
    cost: Sequence[Sequence[int]], rows: Sequence[int], cols: Sequence[int]
) -> list[tuple[int, int]]:
    """Minimum-cost complete assignment on a submatrix of ints.

    Shortest augmenting path formulation with row/column potentials.
    ``rows`` and ``cols`` select the active submatrix; returned pairs use
    the original indices and are sorted by row. Every step is exact on
    ints.
    """
    n, m = len(rows), len(cols)
    if n == 0 or m == 0:
        return []
    transposed = n > m
    if transposed:
        a = [[0, *[cost[r][c] for r in rows]] for c in cols]
        n, m = m, n
    else:
        a = [[0, *[cost[r][c] for c in cols]] for r in rows]
    # each row is padded with a leading 0, so column j is a[i - 1][j]

    inf = math.inf
    u = [0] * (n + 1)
    v = [0] * (m + 1)
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
            # a zero delta changes nothing
            if delta:
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
    return pairs


def solve_assignment(
    pairs: Sequence[tuple[float, int, int]],
    image_dims: tuple[int, int],
    row_key: Callable[[int], Any],
    col_key: Callable[[int], Any],
) -> list[tuple[int, int, float]]:
    """The canonical injective set of pairs, as ``(r, c, d)`` sorted by row.

    ``pairs`` holds each within-radius ``(d, r, c)`` as ``near_pairs`` gives
    it, in any order; rows and columns without a pair take no part. With
    ``B`` the image diagonal, the result is the injective set of pairs that:

    1. maximises the sum of ``B - d``, compared exactly, so a pair farther
       apart than ``B`` is never kept;
    2. of those, gives the rows, taken in the order of ``row_key``, the
       smallest columns in the order of ``col_key``, a row without a pair
       coming after every column.

    The gains add up over the connected components of the graph that the
    pairs form, and the first row where two sets differ lies in one
    component, so the rule picks each component's part on its own. Only a
    component's own rows, columns and keys decide it, whatever else the
    frame holds. Each component is solved by the cheapest means:

    - a single pair is kept;
    - a star, whose pairs all share one row or one column, keeps its
      nearest pair, a tie going to the smallest key;
    - any other component goes to ``first_min_cost``, rows and columns
      in key order. Each row gets a private column at ``B`` after the pair
      columns, and every other cell costs the least int above ``B``. No
      optimum uses such a cell: moving each row on one to its own private
      column, which only such a row can hold, lowers the total. The total
      is then ``B`` times the rows less the gain, and a row on its private
      column is a row without a pair, so ``first_min_cost``'s exact,
      lexicographically smallest optimum is the rule's.
    """
    bound = math.hypot(image_dims[0], image_dims[1])
    kept: list[tuple[int, int, float]] = []
    rows: set[int] = set()
    cols: set[int] = set()
    for d, r, c in pairs:
        if r in rows or c in cols or d > bound:
            break
        kept.append((r, c, d))
        rows.add(r)
        cols.add(c)
    else:
        # every pair is a component of its own
        kept.sort()
        return kept

    row_pairs: dict[int, list[tuple[float, int, int]]] = {}
    col_pairs: dict[int, list[tuple[float, int, int]]] = {}
    for pair in pairs:
        if pair[0] <= bound:
            row_pairs.setdefault(pair[1], []).append(pair)
            col_pairs.setdefault(pair[2], []).append(pair)
    kept = []
    reached: set[int] = set()  # the rows of every component walked so far
    for start in row_pairs:
        if start in reached:
            continue
        reached.add(start)
        todo, edges, n_rows, cols = [start], [], 0, set()
        while todo:
            n_rows += 1
            for pair in row_pairs[todo.pop()]:
                edges.append(pair)
                c = pair[2]
                if c not in cols:
                    cols.add(c)
                    for _, r, _ in col_pairs[c]:
                        if r not in reached:
                            reached.add(r)
                            todo.append(r)
        if len(edges) == 1:
            # a star too, but a lone pair needs no key call, and most
            # components of a contested frame are lone pairs: this path saves
            # about 4% of an untraced pass over the benchmark's id-less
            # scenes (2-vCPU VM)
            d, r, c = edges[0]
            kept.append((r, c, d))
        elif n_rows == 1 or len(cols) == 1:
            least = min(d for d, _, _ in edges)
            nearest = [(r, c) for d, r, c in edges if d == least]
            if n_rows == 1:
                r, c = min(nearest, key=lambda rc: col_key(rc[1]))
            else:
                r, c = min(nearest, key=lambda rc: row_key(rc[0]))
            kept.append((r, c, least))
        else:
            kept.extend(_solve_component(edges, bound, row_key, col_key))
    kept.sort()
    return kept


def _solve_component(
    edges: list[tuple[float, int, int]],
    bound: float,
    row_key: Callable[[int], Any],
    col_key: Callable[[int], Any],
) -> list[tuple[int, int, float]]:
    """The pairs ``first_min_cost`` keeps of one component (see ``solve_assignment``)."""
    rows = sorted({r for _, r, _ in edges}, key=row_key)
    cols = sorted({c for _, _, c in edges}, key=col_key)
    row_at = {r: i for i, r in enumerate(rows)}
    col_at = {c: j for j, c in enumerate(cols)}
    n_cols = len(cols)
    # any price above the bound keeps a row off the cell; an int one cannot
    # overflow, however large the image
    above = math.floor(bound) + 1
    matrix = [[above] * (n_cols + len(rows)) for _ in rows]
    for i, row in enumerate(matrix):
        row[n_cols + i] = bound
    for d, r, c in edges:
        matrix[row_at[r]][col_at[c]] = d
    return [(rows[i], cols[j], matrix[i][j]) for i, j in first_min_cost(matrix) if j < n_cols]


def minimize_cost(entries: Sequence[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    """A minimum-cost maximal assignment of a matrix of ints, as sorted pairs.

    The solve is exact. Which of several tied optima comes back is left
    open: IDF1 reads only the total, and ``first_min_cost`` settles ties
    for the callers that keep the pairs.
    """
    n = len(entries)
    m = len(entries[0]) if n else 0
    return tuple(_hungarian(entries, range(n), range(m)))


def first_min_cost(entries: Sequence[Sequence[float]]) -> tuple[tuple[int, int], ...]:
    """Lexicographically first minimum-cost maximal assignment of any finite matrix.

    The result is exact on every matrix of ints and floats: of the
    assignments with the least total, summed without rounding, it is the
    one whose (row, col) pair sequence is lexicographically smallest, so
    repeated runs and platform changes cannot reshuffle tied matches. With
    a row left unassigned read as column ``m``, one past the last, that is
    the assignment whose columns, read row by row, come first. A float is
    an int over a power of two, so the matrix is first scaled once by the
    largest denominator of its entries, which turns every entry into an
    exact int and keeps every ordering of sums.

    One ``minimize_cost`` solve then settles the tie, on ``x * (m+1)**n +
    (c - m) * (m+1)**(n-1-r)`` for the scaled entry ``x`` at row ``r`` and
    column ``c``. Over a complete assignment the second terms add up, less
    a constant, to the base ``m + 1`` number whose digits are the rows'
    columns in order; a row left unassigned adds no term, as its column
    ``m`` would. That number is below ``(m+1)**n``, while two different
    totals of ints differ by at least ``(m+1)**n`` once weighted. So the
    weighted matrix has a single optimum: of the original optima, the one
    whose columns come first.
    """
    n = len(entries)
    m = len(entries[0]) if n else 0
    if n == 0 or m == 0:
        return ()
    ratios = [[x.as_integer_ratio() for x in row] for row in entries]
    scale = max(den for row in ratios for _, den in row)
    top = (m + 1) ** n
    weighted = [
        [num * (scale // den) * top + (c - m) * digit for c, (num, den) in enumerate(row)]
        for row, digit in zip(ratios, [(m + 1) ** (n - 1 - r) for r in range(n)])
    ]
    return minimize_cost(weighted)


def _tie_key(p: Point) -> tuple[float, float, str]:
    """A point's place in tie order: its position, then its id, with no id
    counting as the empty string."""
    return (p.x, p.y, p.id or "")


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
    then goes unused. Ties go by each point's ``(x, y)``, then by its id,
    an id-less prediction ahead of a named one at the same place. Each true
    positive keeps its pair's distance.
    """
    if pairs is None:
        pairs = near_pairs(gt_points, pred_points, config.alpha)
    kept = solve_assignment(
        pairs,
        image_dims,
        lambda r: _tie_key(gt_points[r]),
        lambda c: _tie_key(pred_points[c]),
    )
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
    seen so far (not just the previous frame), so tracks survive gaps.
    Ties between identities go by their last position, then by id, and
    id-less points take part in order of ``(x, y)``. Leftovers get fresh
    ids ``v{view}t{n}``, in order of ``(x, y)``, from a per-view counter that
    skips every id the predictions carry, in any view. A minted id that
    another view's prediction carries would otherwise read as that point's
    presence in the other view and count as a false correspondence. Memory
    is unbounded on purpose: a point that leaves the scene and reappears
    near its old location gets its old identity back, and no aging horizon
    is part of the matching contract.
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
            for r, c, _ in solve_assignment(
                near,
                dims,
                lambda r: _tie_key(nameless[r]),
                # an identity's key is its last position, then its id
                lambda c: (last[candidates[c]].x, last[candidates[c]].y, candidates[c]),
            ):
                ids[r] = candidates[c]
            # leftovers are named in tie order, so no name depends on input order
            leftovers = [r for r, t in enumerate(ids) if t is None]
            for r in sorted(leftovers, key=lambda r: _tie_key(nameless[r])):
                while ids[r] is None:
                    fresh = f"v{view}t{minted}"
                    minted += 1
                    if fresh not in reserved:
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
