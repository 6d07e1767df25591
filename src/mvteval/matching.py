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
    dual of the assignment problem. ``minimize_cost`` reads them to check,
    without another solve, that the assignment is its canonical optimum.
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
    # zeros of the matrix's type: an int matrix keeps int potentials, so
    # every step is exact
    zero = type(a[0][1])()
    u = [zero] * (n + 1)
    v = [zero] * (m + 1)
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
            # A zero delta changes nothing. u and v start at +0.0 (or an int
            # 0) and never hold -0.0, as a sum or difference is -0.0 only if
            # an operand already is, so adding either zero leaves them as they
            # are. A -0.0 delta would turn a -0.0 in minv into +0.0, but the
            # two compare equal, and minv reaches u and v only as a delta
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
    - any other component goes to ``minimize_cost`` once, rows and columns
      in key order. Each row gets a private column at ``B`` after the pair
      columns, and every other cell costs the least int above ``B``. No
      optimum uses such a cell: moving each row on one to its own private
      column, which only such a row can hold, lowers the total. The total
      is then ``B`` times the rows less the gain, and a row on its private
      column is a row without a pair, so ``minimize_cost``'s exact,
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
    """The pairs ``minimize_cost`` keeps of one component (see ``solve_assignment``)."""
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
    return [(rows[i], cols[j], matrix[i][j]) for i, j in minimize_cost(matrix) if j < n_cols]


def minimize_cost(entries: Sequence[Sequence[float]]) -> tuple[tuple[int, int], ...]:
    """Canonical minimum-cost maximal assignment of any finite matrix.

    The result is exact on every matrix of ints and floats: of the
    assignments with the least total, summed without rounding, it is the
    one whose (row, col) pair sequence is lexicographically smallest, so
    repeated runs and platform changes cannot reshuffle tied matches. With
    a row left unassigned read as column ``m``, one past the last, that is
    the assignment whose columns, read row by row, come first. A float is
    an int over a power of two, so a matrix holding any float is first
    scaled once by the largest denominator of its entries, which turns
    every entry into an exact int and keeps every ordering of sums.

    A first solve gives one optimum and an optimal dual ``(u, v)``: no
    reduced cost ``entries[r][c] - u[r] - v[c]`` is negative, and the
    potentials of the longer side are at most zero, zero where the solve
    leaves that side unassigned. A complete assignment therefore costs the
    optimum, plus the reduced costs of its cells, plus the magnitudes of
    the longer side's potentials that it leaves unassigned, so every cell
    of every optimum is tight, with a reduced cost of exactly zero. Take an
    optimum that comes before the first: at the first row where the two
    differ, it takes a tight column to the left of the first's, one that
    the earlier rows, the same in both, leave free. So when no row of the
    first optimum has such a column, no optimum comes before it, and it is
    returned.

    Otherwise one more solve settles the tie, on ``x * (m+1)**n + (c - m) *
    (m+1)**(n-1-r)`` for the entry ``x`` at row ``r`` and column ``c``. Over
    a complete assignment the second terms add up, less a constant, to the
    base ``m + 1`` number whose digits are the rows' columns in order; a
    row left unassigned adds no term, as its column ``m`` would. That
    number is below ``(m+1)**n``, while two different totals of ints differ
    by at least ``(m+1)**n`` once scaled. So the weighted matrix has a
    single optimum: of the original optima, the one whose columns come
    first.
    """
    n = len(entries)
    m = len(entries[0]) if n else 0
    if n == 0 or m == 0:
        return ()
    if not all(type(x) is int for row in entries for x in row):
        ratios = [[x.as_integer_ratio() for x in row] for row in entries]
        scale = max(den for row in ratios for _, den in row)
        entries = [[num * (scale // den) for num, den in row] for row in ratios]

    first, u, v = _hungarian(entries, range(n), range(m))
    col_of = dict(first)
    taken: set[int] = set()  # the columns of the rows checked so far
    for r, row in enumerate(entries):
        c_r, u_r = col_of.get(r, m), u[r]
        # a list runs faster here than any() over a generator
        if [c for c in range(c_r) if row[c] - u_r == v[c] and c not in taken]:
            break
        taken.add(c_r)
    else:
        return tuple(first)

    top = (m + 1) ** n
    weighted = [
        [x * top + (c - m) * digit for c, x in enumerate(row)]
        for row, digit in zip(entries, [(m + 1) ** (n - 1 - r) for r in range(n)])
    ]
    return tuple(_hungarian(weighted, range(n), range(m))[0])


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
