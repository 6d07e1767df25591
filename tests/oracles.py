"""Independent brute-force oracles used to check the real implementations.

Everything in here favours obviousness over speed: assignments are found
by enumeration (permutations, or exhaustive recursion over subsets for
slightly larger instances), and every score is recomputed straight from
its definition with plain dictionaries and loops. Nothing imports the
production matching or metrics code.
"""

from __future__ import annotations

import itertools
import math
from math import fsum

from mvteval.core import Dataset, EvalConfig


# ---------------------------------------------------------------------------
# assignment oracles


def min_cost_assignment_by_permutations(matrix):
    """Exhaustive minimum-cost maximal assignment.

    Returns (total_cost, pairs) where pairs is the lexicographically
    smallest optimal pair sequence. Totals are exact (fsum), so two
    assignments with the same multiset of entries compare equal.
    """
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    if n == 0 or m == 0:
        return 0.0, ()
    best_cost = None
    best_pairs = None
    if n <= m:
        candidates = (
            tuple((i, cols[i]) for i in range(n))
            for cols in itertools.permutations(range(m), n)
        )
    else:
        candidates = (
            tuple(sorted((rows[j], j) for j in range(m)))
            for rows in itertools.permutations(range(n), m)
        )
    for pairs in candidates:
        cost = fsum(matrix[i][j] for i, j in pairs)
        if (
            best_cost is None
            or cost < best_cost
            or (cost == best_cost and pairs < best_pairs)
        ):
            best_cost, best_pairs = cost, pairs
    return best_cost, best_pairs


def all_optimal_assignments(matrix):
    """Every maximal assignment reaching the minimum total cost."""
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    if n == 0 or m == 0:
        return 0.0, [()]
    costs = {}
    if n <= m:
        for cols in itertools.permutations(range(m), n):
            pairs = tuple((i, cols[i]) for i in range(n))
            costs[pairs] = fsum(matrix[i][j] for i, j in pairs)
    else:
        for rows in itertools.permutations(range(n), m):
            pairs = tuple(sorted((rows[j], j) for j in range(m)))
            costs[pairs] = fsum(matrix[i][j] for i, j in pairs)
    best = min(costs.values())
    return best, sorted(p for p, c in costs.items() if c == best)


def thresholded_matrix(n, m, pairs, image_dims):
    """The dense n x m cost matrix that within-radius (d, r, c) pairs stand for.

    Each pair's cell holds its distance and every other cell the image
    diagonal.
    """
    bound = math.hypot(*image_dims)
    rows = [[bound] * m for _ in range(n)]
    for d, r, c in pairs:
        rows[r][c] = d
    return tuple(map(tuple, rows))


def kept_pairs(assignment, pairs):
    """The cells of ``assignment`` that are within-radius pairs, as (r, c, d).

    ``pairs`` holds (d, r, c) triples; every other cell of the thresholded
    matrix costs the bound and is no match. Cells keep the assignment's
    order.
    """
    distance = {(r, c): d for d, r, c in pairs}
    return [(r, c, distance[r, c]) for r, c in assignment if (r, c) in distance]


# ---------------------------------------------------------------------------
# the plain loops that the fast matching kernels must reproduce bit for bit


def near_pairs_oracle(points_a, points_b, alpha):
    """Every pair closer than ``alpha`` by testing all of them, in row-major order."""
    pairs = []
    for r, a in enumerate(points_a):
        ax, ay = a.x, a.y
        for c, b in enumerate(points_b):
            d = math.hypot(ax - b.x, ay - b.y)
            if d < alpha:
                pairs.append((d, r, c))
    return pairs


def hungarian_reference(cost, rows, cols):
    """The shortest augmenting path solver scanning every column on each step.

    Same contract as ``matching._hungarian``: (pairs sorted by row, row
    potentials, column potentials) on the submatrix ``rows`` x ``cols``.
    """
    n, m = len(rows), len(cols)
    if n == 0 or m == 0:
        return [], {}, {}
    transposed = n > m
    if transposed:
        a = [[cost[r][c] for r in rows] for c in cols]
        n, m = m, n
    else:
        a = [[cost[r][c] for c in cols] for r in rows]

    inf = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    match = [0] * (m + 1)  # 1-based row matched to each column, 0 = free
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = a[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
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


# ---------------------------------------------------------------------------
# frame matching oracle


def _distance(a, b):
    return math.hypot(a.x - b.x, a.y - b.y)


def oracle_match_frame(gt_points, pred_points, alpha, diagonal):
    """Frame-level matching by exhaustive search over sub-threshold pairs.

    A complete minimum-cost assignment on the bounded matrix keeps exactly
    the injective set of sub-threshold pairs maximising the summed gain
    (diagonal - distance); everything else decomposes into misses and
    spurious detections. The recursion below visits every such set, memoised
    on (ground-truth index, used-prediction mask). Equal-gain ties prefer
    the lexicographically smallest (gt index, pred index) sequence.
    """
    gains: list[list[tuple[int, float]]] = []
    relevant: list[int] = []
    for i, g in enumerate(gt_points):
        row = []
        for j, p in enumerate(pred_points):
            d = _distance(g, p)
            if d < alpha:
                if j not in relevant:
                    relevant.append(j)
                row.append((j, diagonal - d))
        gains.append(row)
    relevant.sort()
    bit = {j: 1 << k for k, j in enumerate(relevant)}

    memo: dict[tuple[int, int], tuple[float, tuple]] = {}

    def solve(i: int, mask: int) -> tuple[float, tuple]:
        if i == len(gt_points):
            return 0.0, ()
        key = (i, mask)
        if key in memo:
            return memo[key]
        best_gain, best_pairs = solve(i + 1, mask)  # gt i stays unmatched
        for j, gain in gains[i]:
            if mask & bit[j]:
                continue
            sub_gain, sub_pairs = solve(i + 1, mask | bit[j])
            cand_gain = gain + sub_gain
            cand_pairs = ((i, j),) + sub_pairs
            if cand_gain > best_gain or (
                cand_gain == best_gain and cand_pairs < best_pairs
            ):
                best_gain, best_pairs = cand_gain, cand_pairs
        memo[key] = (best_gain, best_pairs)
        return memo[key]

    _, pairs = solve(0, 0)
    rows = {i for i, _ in pairs}
    cols = {j for _, j in pairs}
    tp = [
        (gt_points[i], pred_points[j], _distance(gt_points[i], pred_points[j]))
        for i, j in pairs
    ]
    fn = [g for i, g in enumerate(gt_points) if i not in rows]
    fp = [p for j, p in enumerate(pred_points) if j not in cols]
    return tp, fp, fn


# ---------------------------------------------------------------------------
# full evaluation oracle


def corres_terms(n_views, gt_present, pred_present, tp_gt, v, f, g, p):
    """(TPC, FPC, FNC) of the true positive (v, f, g, p), one other view at a time.

    ``gt_present`` and ``pred_present`` hold (view, frame, id) of every
    point, ``tp_gt`` (view, frame, gt id) of every true positive.
    """
    tpc = fpc = fnc = 0
    for w in range(n_views):
        if w == v:
            continue
        if (w, f, g) in gt_present:
            if (w, f, g) in tp_gt:
                tpc += 1
            else:
                fnc += 1
        elif (w, f, p) in pred_present:
            fpc += 1
        else:
            tpc += 1
    return tpc, fpc, fnc


def oracle_evaluate(gt: Dataset, pred: Dataset, config: EvalConfig | None = None):
    """Recompute every reported score straight from the definitions.

    Predictions must already carry ids. Returns a flat dict of scores
    keyed like the production report.
    """
    config = config or EvalConfig()
    alpha = config.alpha
    diagonal = math.hypot(gt.image_width, gt.image_height)
    n_views = max(gt.n_views, pred.n_views)
    n_frames = max(gt.n_frames, pred.n_frames)

    # Per-frame matching, independently of the production solver.
    tp_all = []  # (view, frame, gt_id, pred_id, distance)
    fp_all = []  # (view, frame, pred_id)
    fn_all = []  # (view, frame, gt_id)
    for v in range(n_views):
        for f in range(n_frames):
            tp, fp, fn = oracle_match_frame(gt.at(v, f), pred.at(v, f), alpha, diagonal)
            tp_all.extend((v, f, g.id, p.id, d) for g, p, d in tp)
            fp_all.extend((v, f, p.id) for p in fp)
            fn_all.extend((v, f, g.id) for g in fn)

    tp_count, fp_count, fn_count = len(tp_all), len(fp_all), len(fn_all)
    total = tp_count + fp_count + fn_count
    det_acc = tp_count / total if total else 0.0
    precision = tp_count / (tp_count + fp_count) if tp_count + fp_count else 0.0
    recall = tp_count / (tp_count + fn_count) if tp_count + fn_count else 0.0
    loc_acc = fsum(d for _, _, _, _, d in tp_all) / tp_count if tp_count else 0.0

    # Temporal association tallies, per view.
    pair_frames: dict[tuple, int] = {}
    gt_frames: dict[tuple, int] = {}
    pred_frames: dict[tuple, int] = {}
    for p in gt.points:
        gt_frames[(p.view, p.id)] = gt_frames.get((p.view, p.id), 0) + 1
    for p in pred.points:
        pred_frames[(p.view, p.id)] = pred_frames.get((p.view, p.id), 0) + 1
    for v, f, g, p, _ in tp_all:
        pair_frames[(v, g, p)] = pair_frames.get((v, g, p), 0) + 1

    def ass_score(v, g, p):
        tpa = pair_frames[(v, g, p)]
        return tpa / (gt_frames[(v, g)] + pred_frames[(v, p)] - tpa)

    ass_acc = (
        fsum(ass_score(v, g, p) for v, _, g, p, _ in tp_all) / tp_count
        if tp_count
        else config.zero_tp_policy
    )

    # Cross-view correspondence, per true positive.
    gt_present = {(p.view, p.frame, p.id) for p in gt.points}
    pred_present = {(p.view, p.frame, p.id) for p in pred.points}
    tp_gt = {(v, f, g) for v, f, g, _, _ in tp_all}

    def corres_score(v, f, g, p):
        tpc, fpc, fnc = corres_terms(n_views, gt_present, pred_present, tp_gt, v, f, g, p)
        denom = tpc + fpc + fnc
        return tpc / denom if denom else 1.0

    corres_acc = (
        fsum(corres_score(v, f, g, p) for v, f, g, p, _ in tp_all) / tp_count
        if tp_count
        else config.zero_tp_policy
    )

    mv_hota = (det_acc * ass_acc * corres_acc) ** (1.0 / 3.0)

    # Per-view baseline metrics, averaged exactly as reported.
    f1s, motas, idf1s, hotas = [], [], [], []
    for v in range(n_views):
        v_tp = [t for t in tp_all if t[0] == v]
        v_fp = [t for t in fp_all if t[0] == v]
        v_fn = [t for t in fn_all if t[0] == v]
        v_gt_total = sum(1 for p in gt.points if p.view == v)
        v_pred_total = sum(1 for p in pred.points if p.view == v)
        if v_gt_total + v_pred_total == 0:
            continue
        f1s.append(2 * len(v_tp) / (2 * len(v_tp) + len(v_fp) + len(v_fn)))

        # identity switches: a ground-truth id changing its matched partner
        matched: dict[str, list[tuple[int, str]]] = {}
        for _, f, g, p, _ in sorted(v_tp, key=lambda t: t[1]):
            matched.setdefault(g, []).append((f, p))
        idsw = sum(
            1
            for seq in matched.values()
            for prev, cur in zip(seq, seq[1:])
            if prev[1] != cur[1]
        )
        if v_gt_total:
            motas.append(1.0 - (len(v_fn) + len(v_fp) + idsw) / v_gt_total)

        idtp = _max_trajectory_overlap(gt, pred, v, alpha)
        idf1s.append(2 * idtp / (v_gt_total + v_pred_total))

        v_det_total = len(v_tp) + len(v_fp) + len(v_fn)
        v_det = len(v_tp) / v_det_total if v_det_total else 0.0
        v_ass = (
            fsum(ass_score(v, g, p) for _, _, g, p, _ in v_tp) / len(v_tp)
            if v_tp
            else config.zero_tp_policy
        )
        hotas.append(math.sqrt(v_det * v_ass))

    def mean(xs):
        return fsum(xs) / len(xs) if xs else None

    return {
        "det_acc": det_acc,
        "precision": precision,
        "recall": recall,
        "loc_acc": loc_acc,
        "ass_acc": ass_acc,
        "corres_acc": corres_acc,
        "mv_hota": mv_hota,
        "f1": mean(f1s),
        "mota": mean(motas),
        "idf1": mean(idf1s),
        "hota": mean(hotas),
        "tp": tp_count,
        "fp": fp_count,
        "fn": fn_count,
        "oi_simple": oracle_occlusion_simple(gt),
        "oi_weighted": oracle_occlusion_weighted(gt),
    }


def _max_trajectory_overlap(gt: Dataset, pred: Dataset, view: int, alpha: float) -> int:
    """Maximum summed per-frame overlap over injective id pairings.

    The overlap of one (gt id, pred id) pair counts frames where both are
    present within the detection radius of each other. Search is an
    exhaustive memoised recursion over prediction-id subsets.
    """
    pos_gt: dict[tuple[str, int], tuple[float, float]] = {}
    pos_pred: dict[tuple[str, int], tuple[float, float]] = {}
    for p in gt.points:
        if p.view == view:
            pos_gt[(p.id, p.frame)] = (p.x, p.y)
    for p in pred.points:
        if p.view == view:
            pos_pred[(p.id, p.frame)] = (p.x, p.y)
    gt_ids = sorted({g for g, _ in pos_gt})
    pred_ids = sorted({p for p, _ in pos_pred})
    frames_gt: dict[str, set[int]] = {}
    frames_pred: dict[str, set[int]] = {}
    for g, f in pos_gt:
        frames_gt.setdefault(g, set()).add(f)
    for p, f in pos_pred:
        frames_pred.setdefault(p, set()).add(f)

    overlap: dict[tuple[str, str], int] = {}
    for g in gt_ids:
        for p in pred_ids:
            o = sum(
                1
                for f in frames_gt[g] & frames_pred[p]
                if math.hypot(
                    pos_gt[(g, f)][0] - pos_pred[(p, f)][0],
                    pos_gt[(g, f)][1] - pos_pred[(p, f)][1],
                )
                < alpha
            )
            if o:
                overlap[(g, p)] = o

    useful = sorted({p for _, p in overlap})
    bit = {p: 1 << k for k, p in enumerate(useful)}
    memo: dict[tuple[int, int], int] = {}

    def solve(i: int, used: int) -> int:
        if i == len(gt_ids):
            return 0
        key = (i, used)
        if key in memo:
            return memo[key]
        best = solve(i + 1, used)
        for p in useful:
            if used & bit[p]:
                continue
            o = overlap.get((gt_ids[i], p))
            if o:
                best = max(best, o + solve(i + 1, used | bit[p]))
        memo[key] = best
        return best

    return solve(0, 0)


# ---------------------------------------------------------------------------
# occlusion oracles


def oracle_occlusion_simple(gt: Dataset):
    """One minus the share of points visible in every view of their frame."""
    present: dict[tuple[str, int], set[int]] = {}
    for p in gt.points:
        present.setdefault((p.id, p.frame), set()).add(p.view)
    if not present:
        return None
    full = sum(1 for views in present.values() if len(views) == gt.n_views)
    return 1.0 - full / len(present)


def oracle_occlusion_weighted(gt: Dataset):
    """Per-view occlusion index from the double sum, averaged over ids."""
    if not gt.points:
        return None
    present = {(p.id, p.frame, p.view) for p in gt.points}
    ids = sorted({p.id for p in gt.points})
    per_view = []
    for v in range(gt.n_views):
        values = []
        for gid in ids:
            acc = 0.0
            for f in range(gt.n_frames):
                c_f = (
                    sum(1 for w in range(gt.n_views) if (gid, f, w) in present)
                    / gt.n_views
                )
                p_vf = 1.0 if (gid, f, v) in present else 0.0
                acc += p_vf * c_f
            values.append(1.0 - acc / gt.n_frames)
        per_view.append(fsum(values) / len(values))
    return per_view
