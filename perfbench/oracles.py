"""Independent reference computations for the benchmark's check phase.

Each oracle recomputes a tubelab output from first principles (or from the
scalar reference functions `point_in_tube`, `wedge_volume`, `line_metric`)
and returns a list of human-readable discrepancies; an empty list means the
output agrees.  Nothing here calls the code path it is checking.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: Cell centers closer than this to a tube boundary may fall either way under
#: floating-point rounding; the raster oracles accept both answers for them.
BAND = 1e-9


def unit_ball_volume(m: int) -> float:
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def capsule_volume(n: int, radius: float, length: float) -> float:
    """Volume of the radius-neighbourhood of a segment in R^n."""
    return unit_ball_volume(n - 1) * radius ** (n - 1) * length + unit_ball_volume(n) * radius**n


def grid_cells_per_axis(h: float, extent: float) -> int:
    return max(int(math.ceil(2.0 * extent / h - 1e-12)), 1)


def _capsule_distance(points: np.ndarray, center: np.ndarray, u: np.ndarray, length: float) -> np.ndarray:
    rel = points - center
    t = np.clip(rel @ u, -0.5 * length, 0.5 * length)
    return np.sqrt(np.sum((rel - t[:, None] * u[None, :]) ** 2, axis=1))


def brute_force_cells(n: int, h: float, extent: float, center, u, radius: float, length: float = 1.0):
    """Every cell of the grid over [-extent, extent]^n whose center lies in the tube.

    Tests each cell center of the tube's bounding box.  Returns (inside,
    boundary): linear cell indices (C order) clearly inside, and those within
    BAND of the boundary.
    """
    center = np.asarray(center, dtype=float)
    u = np.asarray(u, dtype=float)
    m = grid_cells_per_axis(h, extent)
    lo = -extent
    e0 = center - 0.5 * length * u
    e1 = center + 0.5 * length * u
    a = np.minimum(e0, e1) - radius
    b = np.maximum(e0, e1) + radius
    i_lo = np.clip(np.floor((a - lo) / h - 0.5).astype(np.int64) - 1, 0, m - 1)
    i_hi = np.clip(np.ceil((b - lo) / h - 0.5).astype(np.int64) + 1, 0, m - 1)
    weights = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rest = [np.arange(i_lo[k], i_hi[k] + 1) for k in range(1, n)]
    rest_idx = (
        np.stack([g.ravel() for g in np.meshgrid(*rest, indexing="ij")], axis=1)
        if rest
        else np.zeros((1, 0), np.int64)
    )
    rest_lin = rest_idx @ weights[1:]
    rest_pts = lo + (rest_idx + 0.5) * h
    # Chunks of whole slabs along axis 0 keep the point array near 2M rows.
    step = max(1, 2_000_000 // rest_idx.shape[0])
    inside, boundary = [], []
    for s0 in range(int(i_lo[0]), int(i_hi[0]) + 1, step):
        first = np.arange(s0, min(s0 + step, int(i_hi[0]) + 1))
        pts = np.empty((first.size, rest_idx.shape[0], n))
        pts[:, :, 0] = (lo + (first + 0.5) * h)[:, None]
        pts[:, :, 1:] = rest_pts[None, :, :]
        dist = _capsule_distance(pts.reshape(-1, n), center, u, length)
        lin = (first[:, None] * weights[0] + rest_lin[None, :]).ravel()
        inside.append(lin[dist < radius - BAND])
        boundary.append(lin[np.abs(dist - radius) <= BAND])
    return np.concatenate(inside), np.concatenate(boundary)


def brute_force_counts(tubes, n: int, h: float, extent: float):
    """Per-cell tube counts of a family from brute-force rasters.

    Returns (low, high): count arrays over occupied cells counting only
    clearly-inside cells, and counting boundary cells too.  Any correct
    rasterization has its counts between the two.
    """
    inside, both = [], []
    for t in tubes:
        a, b = brute_force_cells(n, h, extent, t.segment_center, t.direction.u, t.radius, t.length)
        inside.append(a)
        both.append(np.concatenate([a, b]))
    low = np.unique(np.concatenate(inside), return_counts=True)[1]
    high = np.unique(np.concatenate(both), return_counts=True)[1]
    return low, high


def compare_cells(cells: np.ndarray, inside: np.ndarray, boundary: np.ndarray) -> tuple[int, int]:
    """(missing, extra): cells the oracle puts clearly inside that the output
    lacks, and output cells the oracle puts clearly outside."""
    cells = np.asarray(cells, dtype=np.int64)
    missing = np.setdiff1d(inside, cells, assume_unique=False).size
    extra = np.setdiff1d(cells, np.union1d(inside, boundary), assume_unique=False).size
    return int(missing), int(extra)


def check_raster(label: str, cells, n, h, extent, tube) -> list[str]:
    """Compare one `rasterize_tube` output with the brute-force cell set."""
    errors = []
    cells = np.asarray(cells, dtype=np.int64)
    if np.unique(cells).size != cells.size:
        errors.append(f"{label}: repeated cells in the raster")
    inside, boundary = brute_force_cells(
        n, h, extent, tube.segment_center, tube.direction.u, tube.radius, tube.length
    )
    missing, extra = compare_cells(cells, inside, boundary)
    if missing or extra:
        errors.append(
            f"{label}: {missing} of {inside.size} cells missing, {extra} extra "
            f"(h = delta/{tube.radius / h:g})"
        )
    return errors


# ---------------------------------------------------------------------------
# multilinear cell sums
# ---------------------------------------------------------------------------


def multilinear_reference(families, n: int, h: float, extent: float, point_in_tube, wedge_volume):
    """Explicit tuple enumeration of the k-fold transversality sum per cell.

    Candidate cells come from brute-force rasters; membership of each
    candidate center is decided by `point_in_tube` and every ordered tuple
    (one tube per family, all containing the center) contributes its
    `wedge_volume`.  Returns ({cell: (value, tuples)}, ambiguous cells).
    """
    unions = []
    for fam in families:
        cells = [
            np.concatenate(brute_force_cells(n, h, extent, t.segment_center, t.direction.u, t.radius, t.length))
            for t in fam.tubes
        ]
        unions.append(np.unique(np.concatenate(cells)))
    cand = unions[0]
    for u in unions[1:]:
        cand = np.intersect1d(cand, u)
    m = grid_cells_per_axis(h, extent)
    centers = -extent + (np.stack(np.unravel_index(cand, (m,) * n), axis=1) + 0.5) * h
    wedge_cache: dict[tuple, float] = {}
    values: dict[int, float] = {}
    ambiguous = set()
    for cell, x in zip(cand.tolist(), centers):
        members = []
        for f, fam in enumerate(families):
            hit = []
            for i, t in enumerate(fam.tubes):
                d = float(_capsule_distance(x[None, :], t.segment_center, t.direction.u, t.length)[0])
                if abs(d - t.radius) <= BAND:
                    ambiguous.add(cell)
                if point_in_tube(t, x):
                    hit.append(i)
            members.append(hit)
        total = 0.0
        for combo in itertools.product(*members):
            key = tuple(enumerate(combo))
            w = wedge_cache.get(key)
            if w is None:
                w = wedge_volume(np.stack([families[f].tubes[i].direction.u for f, i in key]))
                wedge_cache[key] = w
            total += w
        if total > 0.0:
            values[cell] = (total, math.prod(len(hit) for hit in members))
    return values, ambiguous


#: Absolute error allowed per tuple: a wedge of nearly parallel directions is
#: the square root of a determinant near 0, so rounding of order 1e-16 in
#: the determinant becomes about 1.5e-8 in the wedge, in either evaluator.
TUPLE_ATOL = 3e-8


def check_multilinear(label: str, cells, vals, reference, ambiguous, rel: float = 1e-9) -> list[str]:
    errors = []
    got = {int(c): float(v) for c, v in zip(np.asarray(cells), np.asarray(vals))}
    bad = 0
    for c in set(got) | set(reference):
        if c in ambiguous:
            continue
        a = got.get(c, 0.0)
        b, tuples = reference.get(c, (0.0, 0))
        if abs(a - b) > rel * abs(b) + TUPLE_ATOL * max(tuples, 1):
            bad += 1
    if bad:
        errors.append(f"{label}: {bad} of {len(reference)} cell values differ from tuple enumeration")
    if not reference:
        errors.append(f"{label}: reference has no non-zero cell; the check is vacuous")
    return errors


# ---------------------------------------------------------------------------
# ball scans
# ---------------------------------------------------------------------------


def pairwise_line_distances(c_feet, c_dirs, feet, dirs) -> np.ndarray:
    """|x - x'| + sqrt(1 - (u.u')^2) for every (center, line) pair."""
    foot = np.sqrt(((c_feet[:, None, :] - feet[None, :, :]) ** 2).sum(axis=2))
    dots = np.minimum(np.abs(c_dirs @ dirs.T), 1.0)
    return foot + np.sqrt(1.0 - dots**2)


def check_scan(label: str, scan_max: float, r: float, centers, lines, line_metric) -> list[str]:
    """Scan maximum against an all-pairs count over the same net centers.

    Counts use the metric recomputed for every (center, line) pair; the
    attaining center is re-counted with the scalar `line_metric`.  Pairs
    within BAND of the radius may count either way.
    """
    if not centers:
        return [] if scan_max == 0.0 else [f"{label}: scan found {scan_max} with no centers"]
    c_feet = np.stack([c.x for c in centers])
    c_dirs = np.stack([c.u.u for c in centers])
    feet = np.stack([l.x for l in lines])
    dirs = np.stack([l.u.u for l in lines])
    dist = pairwise_line_distances(c_feet, c_dirs, feet, dirs)
    sure = (dist <= r - BAND).sum(axis=1)
    loose = (dist <= r + BAND).sum(axis=1)
    errors = []
    if not sure.max() <= scan_max <= loose.max():
        errors.append(
            f"{label}: scan max {scan_max} at r={r} outside all-pairs range [{sure.max()}, {loose.max()}]"
        )
    best = int(np.argmax(loose))
    scalar = sum(1 for l in lines if line_metric(l, centers[best]) <= r + 1e-12)
    if not sure[best] <= scalar <= loose[best]:
        errors.append(f"{label}: line_metric count {scalar} disagrees with the pairwise count at r={r}")
    return errors


# ---------------------------------------------------------------------------
# fits and known values
# ---------------------------------------------------------------------------


def loglog_slope(scales, values) -> float:
    """Least-squares slope of log(value) against log(scale)."""
    x = np.log(np.asarray(scales, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    xc = x - x.mean()
    return float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))


def check_close(label: str, value: float, target: float, tol: float) -> list[str]:
    if not (math.isfinite(value) and abs(value - target) <= tol):
        return [f"{label}: {value!r} not within {tol} of {target}"]
    return []


def check_rel(label: str, value: float, target: float, rel: float = 1e-9) -> list[str]:
    if not abs(value - target) <= rel * max(abs(target), 1e-300):
        return [f"{label}: {value!r} differs from independent value {target!r}"]
    return []
