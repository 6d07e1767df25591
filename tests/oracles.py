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
from fractions import Fraction
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
    """Every maximal assignment reaching the minimum total cost.

    Returns (total, sorted pairs of every optimum). Totals are summed as
    exact fractions, so two assignments tie only when their sums are equal.
    """
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    if n == 0 or m == 0:
        return Fraction(0), [()]
    costs = {}
    if n <= m:
        for cols in itertools.permutations(range(m), n):
            pairs = tuple((i, cols[i]) for i in range(n))
            costs[pairs] = sum(Fraction(matrix[i][j]) for i, j in pairs)
    else:
        for rows in itertools.permutations(range(n), m):
            pairs = tuple(sorted((rows[j], j) for j in range(m)))
            costs[pairs] = sum(Fraction(matrix[i][j]) for i, j in pairs)
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


def canonical_assignment(pairs, diagonal, row_key, col_key):
    """The canonical injective set of within-radius pairs, by exhaustive search.

    ``pairs`` holds (d, r, c) triples. Of the injective sets of pairs, the
    result maximises the summed gain (diagonal - d), added up as exact
    fractions; of those, it gives the rows, taken in the order of
    ``row_key``, the smallest columns in the order of ``col_key``, a row
    left without a pair coming after every column. The search is a
    recursion over the rows in key order, memoised on (row, used-column
    mask), over the whole frame at once. Returns (r, c, d) sorted by row.
    """
    bound = Fraction(diagonal)
    rows = sorted({r for _, r, _ in pairs}, key=row_key)
    cols = sorted({c for _, _, c in pairs}, key=col_key)
    rank = {c: k for k, c in enumerate(cols)}
    options = {r: [] for r in rows}
    for d, r, c in pairs:
        options[r].append((rank[c], d))
    unmatched = len(cols)
    memo = {}

    def solve(i, used):
        """(gain, column ranks of rows i.., kept (r, c, d)) of the best completion."""
        if i == len(rows):
            return Fraction(0), (), ()
        if (i, used) in memo:
            return memo[i, used]
        gain, ranks, kept = solve(i + 1, used)
        best = gain, (unmatched,) + ranks, kept
        for k, d in options[rows[i]]:
            if used >> k & 1:
                continue
            gain, ranks, kept = solve(i + 1, used | 1 << k)
            candidate = (gain + bound - Fraction(d), (k,) + ranks, ((rows[i], cols[k], d),) + kept)
            if candidate[0] > best[0] or (candidate[0] == best[0] and candidate[1] < best[1]):
                best = candidate
        memo[i, used] = best
        return best

    return sorted(solve(0, 0)[2])


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

    Same contract as ``matching._hungarian``: the pairs of the submatrix
    ``rows`` x ``cols``, sorted by row.
    """
    n, m = len(rows), len(cols)
    if n == 0 or m == 0:
        return []
    transposed = n > m
    if transposed:
        a = [[cost[r][c] for r in rows] for c in cols]
        n, m = m, n
    else:
        a = [[cost[r][c] for c in cols] for r in rows]

    inf = math.inf
    u = [0] * (n + 1)
    v = [0] * (m + 1)
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
    return pairs


# ---------------------------------------------------------------------------
# frame matching oracle


def _distance(a, b):
    return math.hypot(a.x - b.x, a.y - b.y)


def oracle_match_frame(gt_points, pred_points, alpha, diagonal):
    """Frame-level matching by exhaustive search over sub-threshold pairs.

    Tests every pair against ``alpha`` and keeps the canonical set of
    ``canonical_assignment``, with ties ordered by each point's (x, y),
    then its id, no id counting as the empty string; everything else
    decomposes into misses and spurious detections.
    """
    pairs = [
        (_distance(g, p), i, j)
        for i, g in enumerate(gt_points)
        for j, p in enumerate(pred_points)
        if _distance(g, p) < alpha
    ]

    def key(p):
        return (p.x, p.y, p.id or "")

    kept = canonical_assignment(
        pairs, diagonal, lambda i: key(gt_points[i]), lambda j: key(pred_points[j])
    )
    rows = {i for i, _, _ in kept}
    cols = {j for _, j, _ in kept}
    tp = [(gt_points[i], pred_points[j], d) for i, j, d in kept]
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
        else 0.0
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
        else 0.0
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
            else 0.0
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
