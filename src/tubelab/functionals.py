"""Grid evaluation of tube-sum functionals.

Integrals of powers of sum(chi_T) and of the multilinear transversality
expressions are approximated by midpoint sampling on a uniform grid: a cell
belongs to a tube exactly when its center does.  Indicator integrands make
higher-order quadrature pointless, and the midpoint rule is unbiased on
unions of slabs.

Tubes are rasterized by a scanline over their capsules, a batch of tubes at
a time (`_tube_runs`): rows of cells along the axis closest to each tube's
direction, one closed-form interval of candidates per row, and the exact
distance test to the core segment, elementwise one coordinate at a time and
so independent of the batch, as the only membership decision.  The test runs
on the cells at both ends of an interval; the distance to a segment is convex
along a row, so the cells between two ends that pass with a margin are kept
untested, and the kept cells of a row form one run.  A family is rasterized
once per grid into a `FamilyRaster`: its runs are counted in an int32 field
(FIELD_DTYPE) by differences along each row and a cumulative sum, or by
`np.unique` for sparse families of at most PER_TUBE_LIMIT tubes, with the
counts of the occupied cells kept as int64 either way, and small families
also keep their runs, the one per-tube index.  `rasterize_tube` is the one-tube
case.  The raster carries its family and is passed to every evaluation on
that grid, so norms, cap and coarse-tube groupings and multilinear sums
share one rasterization.  Multilinear sums keep the (cell, tube) pairs of
the candidate cells alone, group those cells into faces, the cells contained
in the same tubes of every slot, and evaluate each face's wedges once, from
its own tubes, in chunks of at most WEDGE_TUPLE_LIMIT tuples; neither the N^k
wedge table nor the k-fold product over cells is ever materialized.  Grouped
norms expand the runs into sorted per-tube cell lists for the length of one
call and merge a group's lists with one stable sort, and the rho-coarsening
tests the lattice candidates of every (tube, cap) pair in one array pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linegeom
from .linegeom import (
    GeometryError,
    Line,
    Tube,
    _complete_unit_rows,
    _ragged,
    build_cap_cover,
    gram_wedges,
    lattice_points,
    line_of_tube,
    row_labels,
    rowdot,
    segment_point_distances,
    sorted_distinct,
)

#: Length of the segments of coarse covering tubes.  Unit tubes anywhere in
#: the unit ball fit inside a length-3 coarse tube on a unit longitudinal
#: lattice; unit-length coarse tubes could not contain longitudinally offset
#: unit tubes without unbounded overlap.
COARSE_LENGTH = 3.0

#: Families with more tubes than this keep no runs, so multilinear sums and
#: grouped norms refuse them (norms only), and are always counted in the
#: dense count field.
PER_TUBE_LIMIT = 4000

#: Largest dense count field, in bytes (FIELD_DTYPE.itemsize per grid
#: cell), that `FamilyRaster.build` allocates.  Every family counted in a
#: field is counted in place, a batch of tubes at a time, so the field is the
#: whole full-size allocation of a build, and this limit counts it alone.
DENSE_BYTES_LIMIT = 2**30

#: Cell type of the dense count field.  A count never exceeds the family's
#: tube count, which is far below 2^31 for any family held in memory, so
#: int32 holds every count in half the bytes of int64.
FIELD_DTYPE = np.dtype(np.int32)


class UnderResolvedGridError(ValueError):
    """Grid too coarse to resolve the tubes placed on it."""


def coarse_overlap_bound(n: int) -> int:
    """Maximum number of coarse tubes any fine tube may be assigned to."""
    return 4 * 10**n


# ---------------------------------------------------------------------------
# families and grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TubeFamily:
    """A finite set of tubes at one scale with problem parameters (d, beta).

    Segments (not just centers) must lie in B(0, ball_radius) so that grid
    bounds of extent ball_radius + delta cover every tube without clipping.
    """

    tubes: tuple[Tube, ...]
    delta: float
    n: int
    d: int
    beta: float
    ball_radius: float = 1.0

    def __init__(self, tubes, delta: float, n: int, d: int, beta: float, ball_radius: float = 1.0):
        tubes = tuple(tubes)
        if not 0.0 < delta <= 0.5:
            raise GeometryError(f"family scale must lie in (0, 1/2], got {delta}")
        if not (isinstance(d, (int, np.integer)) and 1 <= d < n):
            raise GeometryError(f"need integer 1 <= d < n, got d={d}, n={n}")
        if not 0.0 <= beta <= 1.0:
            raise GeometryError(f"beta must lie in [0, 1], got {beta}")
        _check_tubes(tubes, delta, n, ball_radius)
        object.__setattr__(self, "tubes", tubes)
        object.__setattr__(self, "delta", float(delta))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "beta", float(beta))
        object.__setattr__(self, "ball_radius", float(ball_radius))

    def __len__(self) -> int:
        return len(self.tubes)

    @property
    def p_prime(self) -> float:
        return self.d + self.beta

    @property
    def p(self) -> float:
        """Conjugate exponent of p' = d + beta."""
        if self.beta == 0.0:
            raise ValueError("beta = 0 is unsupported here: the estimates are checked for beta in (0, 1]")
        return self.p_prime / (self.p_prime - 1.0)

    def direction_matrix(self) -> np.ndarray:
        return np.stack([t.direction.u for t in self.tubes]) if self.tubes else np.zeros((0, self.n))

    def sum_volume(self) -> float:
        return float(np.array([t.volume() for t in self.tubes]).sum())

    def lines(self) -> list[Line]:
        return [line_of_tube(t) for t in self.tubes]


def _check_tubes(tubes: tuple[Tube, ...], delta: float, n: int, ball_radius: float) -> None:
    """Raise for the first tube that fails a family check, with the checks
    in the order dimension, radius, center, endpoints, in one stacked pass.

    The endpoints are c -+ 0.5 * length * u, as `Tube.endpoints` gives them.
    A norm is the root of `rowdot` of a row with itself, the vector dot that
    `np.linalg.norm` of one row uses, so every comparison is the one a check
    per tube makes.
    """
    k = next((i for i, t in enumerate(tubes) if t.n != n), len(tubes))
    head = tubes[:k]
    if head:
        c = np.stack([t.segment_center for t in head])
        half = (0.5 * np.array([t.length for t in head]))[:, None] * np.stack([t.direction.u for t in head])
        pts = np.stack([c, c - half, c + half])
        outside = np.sqrt(rowdot(pts, pts)) > ball_radius + 1e-9
        fails = (
            np.abs(np.array([t.radius for t in head]) - delta) > 1e-12,
            outside[0],
            outside[1] | outside[2],
        )
        bad = np.flatnonzero(fails[0] | fails[1] | fails[2])
        if bad.size:
            i = int(bad[0])
            if fails[0][i]:
                raise GeometryError(f"tube {i} has radius {head[i].radius}, family scale {delta}")
            if fails[1][i]:
                raise GeometryError(f"tube {i} center outside B(0, {ball_radius})")
            raise GeometryError(f"tube {i} segment leaves B(0, {ball_radius})")
    if k < len(tubes):
        raise GeometryError(f"tube {k} lives in R^{tubes[k].n}, family in R^{n}")


@dataclass(frozen=True)
class Grid:
    """Uniform grid over [-extent, extent]^n sampled at cell centers."""

    n: int
    h: float
    extent: float

    def __init__(self, n: int, h: float, extent: float):
        if h <= 0 or extent <= 0:
            raise GeometryError("grid step and extent must be positive")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "h", float(h))
        object.__setattr__(self, "extent", float(extent))

    @classmethod
    def for_family(cls, F: TubeFamily, factor: int = 4) -> "Grid":
        """Grid with bounds [-(R + delta), R + delta]^n and h = delta/factor."""
        return cls(F.n, F.delta / factor, F.ball_radius + F.delta)

    @property
    def m(self) -> int:
        """Cells per axis."""
        return max(int(math.ceil(2.0 * self.extent / self.h - 1e-12)), 1)

    @property
    def total_cells(self) -> int:
        return self.m**self.n

    @property
    def lo(self) -> float:
        return -self.extent

    @property
    def cell_volume(self) -> float:
        return self.h**self.n

    def check_resolves(self, F: TubeFamily) -> None:
        if self.h > F.delta / 2.0 + 1e-12:
            raise UnderResolvedGridError(
                f"grid step {self.h} exceeds delta/2 = {F.delta / 2}"
            )
        if self.n != F.n:
            raise GeometryError("grid and family dimensions differ")
        if self.extent + 1e-9 < F.ball_radius + F.delta:
            raise GeometryError("grid bounds do not cover the family's ball")

    def centers_of_linear(self, linear: np.ndarray) -> np.ndarray:
        multi = np.stack(np.unravel_index(linear, (self.m,) * self.n), axis=1)
        return self.lo + (multi + 0.5) * self.h

    def key(self) -> tuple:
        return (self.n, self.h, self.extent)


def rasterize_tube(grid: Grid, tube: Tube) -> np.ndarray:
    """Sorted linear indices of the grid cells whose center lies inside the tube.

    The one-tube case of `FamilyRaster.build`: the tube's kept runs from
    `_tube_runs`, expanded to cells and sorted.  A cell is kept exactly when
    `segment_point_distances(...) <= r + 1e-12` holds at its center; the
    candidates of `_scan_cells` include every such cell at any grid step and
    are unique by construction, so the cells come out complete and without
    repeats.
    """
    _, start, count, step = _run_arrays(grid, _tube_runs(grid, [tube]))
    cells = _run_cells(start, count, step)
    cells.sort()
    return cells


#: Radius slack of the scanline, so that roundoff in its closed forms never
#: loses a cell that the final distance test keeps.
_SCAN_SLACK = 1e-9

#: Below this tilt off the scan axis the cylinder chord is taken to span the
#: whole slab (the axis-parallel branch); the closed form divides by the tilt.
_MIN_TILT = 1e-6

#: Margin by which the two inner end cells of a candidate run must clear the
#: membership threshold before the cells between them are kept untested.  It
#: lies far above the roundoff of a computed distance (about 1e-16 here).
_RUN_MARGIN = 1e-11

#: Estimated candidate rows per batch of tubes: a 128th of the grid's cells,
#: within these bounds.  A row takes about 500 bytes of temporaries while its
#: batch is tested, so a batch takes about the count field's bytes (4 per
#: cell).
_BATCH_ROWS = (1024, 16384)


def _tube_runs(grid: Grid, tubes):
    """Yield (a, tube, start, count) per batch of tubes: the kept runs of the
    batch along its scan axis a, as tube index (into `tubes`), linear index of
    the run's first cell and its cell count.  The cells of a run are
    start + i * m^(n-1-a) for 0 <= i < count.

    A batch holds tubes with the same scan axes at every level of
    `_scan_cells` (`_scan_axes`), in family order, and about `_BATCH_ROWS`
    candidate rows.  Batches come grouped by a, in descending order: the
    count field needs no differencing for its first axis, and differences
    slowest along the last.
    """
    n, h = grid.n, grid.h
    if not tubes:
        return
    centers = np.stack([t.segment_center for t in tubes])
    dirs = np.stack([t.direction.u for t in tubes])
    lengths = np.array([t.length for t in tubes])
    radii = np.array([t.radius for t in tubes])
    keys = _scan_axes(dirs)
    order = np.lexsort((*keys.T[:0:-1], -keys[:, 0]))
    # Rows per tube: about the cell count of the capsule's shadow along its axis.
    width = 2.0 * radii / h + 3.0
    tilt = np.sqrt(np.maximum(1.0 - np.max(dirs * dirs, axis=1), 0.0))
    rows = ((lengths * tilt / h + width) * width ** (n - 2))[order]
    per_batch = min(max(grid.total_cells // 128, _BATCH_ROWS[0]), _BATCH_ROWS[1])
    new_key = np.ones(len(tubes), dtype=bool)
    new_key[1:] = np.any(keys[order[1:]] != keys[order[:-1]], axis=1)
    groups = [*np.flatnonzero(new_key).tolist(), len(tubes)]
    for g0, g1 in zip(groups[:-1], groups[1:]):
        batch = (np.cumsum(rows[g0:g1]) - rows[g0:g1]) // per_batch
        cuts = [g0, *(g0 + np.flatnonzero(np.diff(batch)) + 1).tolist(), g1]
        axes = keys[order[g0]].tolist()
        for b0, b1 in zip(cuts[:-1], cuts[1:]):
            idx = order[b0:b1]
            tube, start, count = _batch_runs(grid, axes, centers[idx], dirs[idx], lengths[idx], radii[idx])
            yield axes[0], idx[tube], start, count


def _batch_runs(grid: Grid, axes, c, u, length, r):
    """(tube, start, count) of the kept runs of one batch of `_tube_runs`.

    A cell is kept exactly when `segment_point_distances(...) <= r + 1e-12`
    holds at its center, but the test runs only on the two cells at each end
    of a candidate run of `_scan_cells`.  The distance to a segment is
    convex along a row, so when the inner two of them pass with
    `_RUN_MARGIN` to spare, every cell between them passes too, and is kept
    untested.  A row where that fails (a grazing row, a row with no kept
    cell among the four) and a row of at most four cells get the test on
    every cell.
    """
    n, m, h, lo = grid.n, grid.m, grid.h, grid.lo
    a = axes[0]
    others = [ax for ax in range(n) if ax != a]
    tube, row_cells, first, last = _scan_cells(m, (c - lo) / h, u, length / (2.0 * h), (r + _SCAN_SLACK) / h, axes)
    thr = r[tube] + 1e-12
    # Cell centers are `lo + (multi + 0.5) * h`, here one coordinate at a time.
    row_x = lo + (row_cells + 0.5) * h
    span = last - first + 1
    # The two cells at each end of every row of more than four.
    long = np.flatnonzero(span > 4)
    t = tube[long]
    x = np.empty((4, long.size, n))
    for k, ax in enumerate(others):
        x[:, :, ax] = row_x[k, long]
    x[:, :, a] = lo + (np.stack([first[long], first[long] + 1, last[long] - 1, last[long]]) + 0.5) * h
    dist = segment_point_distances(x, c[t], u[t], length[t])
    kept = dist <= thr[long]
    sure = thr[long] - _RUN_MARGIN
    ok = (dist[1] <= sure) & (dist[2] <= sure)
    fast = long[ok]
    # Every cell of the other rows.
    slow = np.sort(np.concatenate([np.flatnonzero(span <= 4), long[~ok]]))
    row, j = _ragged(span[slow])
    row = slow[row]
    pos = first[row] + j
    t = tube[row]
    x = np.empty((row.size, n))
    x[:, others] = row_x[:, row].T
    x[:, a] = lo + (pos + 0.5) * h
    slow_row, slow_first, slow_last = _kept_runs(row, pos, segment_point_distances(x, c[t], u[t], length[t]) <= thr[row])
    run_row = np.concatenate([fast, slow_row])
    run_first = np.concatenate([first[fast] + (1 - kept[0, ok]), slow_first])
    run_last = np.concatenate([last[fast] - (1 - kept[3, ok]), slow_last])
    start = run_first * m ** (n - 1 - a)
    for k, ax in enumerate(others):
        start += row_cells[k, run_row] * m ** (n - 1 - ax)
    return tube[run_row], start, run_last - run_first + 1


def _kept_runs(row: np.ndarray, pos: np.ndarray, kept: np.ndarray):
    """(row, first, last) of the maximal runs of kept consecutive cells, given
    cells (row, pos) in row-major order."""
    row, pos = row[kept], pos[kept]
    new = np.ones(row.size, dtype=bool)
    new[1:] = (row[1:] != row[:-1]) | (pos[1:] != pos[:-1] + 1)
    end = np.ones(row.size, dtype=bool)
    end[:-1] = new[1:]
    return row[new], pos[new], pos[end]


def _run_arrays(grid: Grid, runs) -> tuple[np.ndarray, ...]:
    """(tube, start, count, step) per kept run of `_tube_runs`, where step is
    the linear distance m^(n-1-a) between consecutive cells of the run."""
    parts = [(tube, start, count, np.full(tube.size, grid.m ** (grid.n - 1 - a))) for a, tube, start, count in runs]
    if not parts:
        return tuple(np.empty(0, dtype=np.int64) for _ in range(4))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _run_cells(start: np.ndarray, count: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Linear indices of the cells of runs (start, count, step), run by run.

    Every run holds a cell, so the cells are the cumulative sum of the steps
    with each run's first step replaced by the jump from the previous cell:
    one array of the cells' size.
    """
    cells = np.repeat(step, count)
    cells[np.cumsum(count) - count] = start - np.append(0, start[:-1] + (count[:-1] - 1) * step[:-1])
    return np.cumsum(cells, out=cells)


def _scan_axes(u: np.ndarray) -> np.ndarray:
    """Scan axes of `_scan_cells` for directions u (T, d): column l holds the
    axis of recursion level l, indexed among the axes that the levels above
    leave: the largest component of the level's (shadow) direction."""
    T, d = u.shape
    cols = []
    while d > 1:
        a = np.argmax(np.abs(u), axis=1)
        cols.append(a)
        uo = u[np.arange(d) != a[:, None]].reshape(T, d - 1)
        tilt = np.sqrt(np.einsum("ij,ij->i", uo, uo))[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            u = np.where(tilt > 0, uo / tilt, np.eye(d - 1)[0])
        d -= 1
    return np.stack(cols, axis=1)


def _scan_cells(m: int, c: np.ndarray, u: np.ndarray, half: np.ndarray, r: np.ndarray, axes):
    """Candidate runs of a batch of capsules: capsule i has radius r[i] around
    the segment c[i] +- half[i] u[i], in grid units (cell x has its center at
    x + 1/2 on each axis, and 0 <= x < m).  Returns (tube, rows, first, last)
    for each row that meets a capsule: the capsule's index, the row's cell
    index along each axis other than axes[0] (ascending; one line of `rows`
    per axis), and the first and last candidate cell along axes[0].

    A scanline, the scanline form of Amanatides & Woo, "A Fast Voxel
    Traversal Algorithm for Ray Tracing" (Eurographics 1987), over a batch
    of capsules that share their scan axes (`_scan_axes`) at every level.
    The scan axis a = axes[0] is the largest component of each u.  The rows
    are the cell rows over the other d-1 axes that hold the capsule's
    shadow, its projection along axis a: a (d-1)-dimensional capsule with the
    projected segment and the same radius, whose candidates this function
    finds the same way (scan axes axes[1:]).  A capsule is convex, so each
    row meets it in one interval: the hull of the two end-ball chords and of
    the infinite-cylinder chord clipped to the slab |axial coordinate| <=
    half, each solved in closed form.  Every interval is padded by one cell,
    so the candidates hold every cell whose center lies within r.
    """
    d = c.shape[1]
    if d == 1:
        reach = half * np.abs(u[:, 0]) + r
        first = np.maximum(np.ceil(c[:, 0] - reach - 1.5), 0.0)
        last = np.minimum(np.floor(c[:, 0] + reach + 0.5), m - 1.0)
        tube = np.flatnonzero(last >= first)
        return tube, np.empty((0, tube.size), dtype=np.int64), first[tube].astype(np.int64), last[tube].astype(np.int64)
    a = axes[0]
    others = [ax for ax in range(d) if ax != a]
    # Orient u so that u_a > 0 (a capsule is symmetric under u -> -u) and
    # renormalize, so that u_a^2 + tilt^2 = 1 holds to roundoff.
    v = u * (np.where(u[:, a] > 0, 1.0, -1.0) / np.sqrt(np.einsum("ij,ij->i", u, u)))[:, None]
    ua, uo = v[:, a], v[:, others]
    tilt2 = np.einsum("ij,ij->i", uo, uo)
    tilt = np.sqrt(tilt2)
    with np.errstate(invalid="ignore", divide="ignore"):
        shadow_u = np.where(tilt[:, None] > 0, uo / tilt[:, None], np.eye(d - 1)[0])
    tube, srows, sfirst, slast = _scan_cells(m, c[:, others], shadow_u, half * tilt, r, axes[1:])
    # The shadow's candidate cells are the rows.
    row, j = _ragged(slast - sfirst + 1)
    tube = tube[row]
    sa = axes[1] if d > 2 else 0
    rows = np.empty((d - 1, row.size), dtype=np.int64)
    rows[[ax for ax in range(d - 1) if ax != sa]] = srows[:, row]
    rows[sa] = sfirst[row] + j
    # Offsets w of the row centers from c.  Along a row, s = x_a - c_a, and
    # the axial coordinate of a point is s u_a + b.
    w = rows + (0.5 - c[:, others].T)[:, tube]
    b = np.einsum("ij,ij->j", w, uo.T[:, tube])
    ww = np.einsum("ij,ij->j", w, w)
    # Per-capsule terms, taken to the rows.
    ends, ua_half, end2, half2 = (half * ua)[tube], (half / ua)[tube], ((half * tilt) ** 2)[tube], (2.0 * half)[tube]
    near = ((r + half * tilt) ** 2)[tube]
    ua, tilt, tilt2, r = ua[tube], tilt[tube], tilt2[tube], r[tube]
    r2 = r * r
    end2 += ww
    half2b = half2 * b
    with np.errstate(invalid="ignore", divide="ignore"):
        # End-ball chords around s = -+ half u_a; NaN where the row misses.
        q_lo = np.sqrt(r2 - (end2 + half2b))
        q_hi = np.sqrt(r2 - (end2 - half2b))
        # Infinite-cylinder chord, clipped to the slab |s u_a + b| <= half.
        bu = b / ua
        slab_lo, slab_hi = -ua_half - bu, ua_half - bu
        # Below _MIN_TILT, the axis-parallel branch: the chord spans the slab
        # whenever the row passes within r of the axis somewhere along the
        # segment.  Tilted rows narrow the slab in place to the chord.
        cyl_lo, cyl_hi = slab_lo, slab_hi
        cyl = ww <= near
        tilted = np.flatnonzero(tilt > _MIN_TILT)
        if tilted.size:
            bt, ut, t2 = b[tilted], ua[tilted], tilt2[tilted]
            mid = bu[tilted] * (ut * ut / t2)
            hw = np.sqrt(r2[tilted] - ww[tilted] + bt * bt / t2) / tilt[tilted]
            cyl_lo[tilted] = np.maximum(mid - hw, slab_lo[tilted])
            cyl_hi[tilted] = np.minimum(mid + hw, slab_hi[tilted])
            cyl[tilted] = cyl_lo[tilted] <= cyl_hi[tilted]
        s_lo = np.fmin(np.fmin(-ends - q_lo, ends - q_hi), np.where(cyl, cyl_lo, np.nan))
        s_hi = np.fmax(np.fmax(-ends + q_lo, ends + q_hi), np.where(cyl, cyl_hi, np.nan))
        # Cells whose centers lie in [c_a + s_lo, c_a + s_hi], padded by one
        # cell; rows that miss the capsule carry NaN and get no candidates.
        ca = c[:, a][tube]
        first = np.maximum(np.ceil(s_lo + (ca - 1.5)), 0.0)
        last = np.minimum(np.floor(s_hi + (ca + 0.5)), m - 1.0)
        hit = np.flatnonzero(last >= first)
    return tube[hit], rows[:, hit], first[hit].astype(np.int64), last[hit].astype(np.int64)


def _field_bytes(grid: Grid) -> int:
    """Bytes of the dense count field of `grid`."""
    return grid.total_cells * FIELD_DTYPE.itemsize


def _check_dense_size(F: TubeFamily, grid: Grid) -> None:
    """Raise MemoryError, naming the largest grid factor that fits, when the
    dense count field of `grid` exceeds DENSE_BYTES_LIMIT."""
    need, limit = _field_bytes(grid), DENSE_BYTES_LIMIT
    if need <= limit:
        return
    factor = math.floor(F.delta / grid.h + 1e-9)
    while factor >= 1 and _field_bytes(Grid(grid.n, F.delta / factor, grid.extent)) > limit:
        factor -= 1
    hint = (
        f"the largest grid factor that fits is {factor} (h = delta/{factor})"
        if factor >= 2
        else "no grid with h <= delta/2 fits"
    )
    raise MemoryError(
        f"dense count field of {grid.m}^{grid.n} cells (h = {grid.h:g}, delta = {F.delta:g}) "
        f"needs {need / 2**20:.0f} MiB, above DENSE_BYTES_LIMIT = {limit / 2**20:.0f} MiB; "
        + hint
    )


def _field_counts(grid: Grid, runs) -> tuple[np.ndarray, np.ndarray, int]:
    """(occ, counts, entries) of the kept runs of `_tube_runs`, counted in one
    FIELD_DTYPE field of the grid's cells; the counts come out as int64.

    For each scan axis a, the field is differenced along a in place, each
    run adds +1 at its first cell and -1 one past its last (none when the run
    ends on the grid's last cell along a, which would spill into the next
    row), and a cumulative sum along a, in place, restores the counts.  The
    field is the only full-size allocation.  The updates and the sum stay in
    the field's type: numpy's `ufunc.at` fast path needs a scalar of that
    type, and `cumsum` accumulates small integer types in int64 unless told.
    """
    m, n = grid.m, grid.n
    one = FIELD_DTYPE.type(1)
    dense = np.zeros(grid.total_cells, dtype=FIELD_DTYPE)
    cube = dense.reshape((m,) * n)
    entries = 0
    for a, batches in itertools.groupby(runs, key=lambda b: b[0]):
        if entries:
            _difference(np.moveaxis(cube, a, 0))
        step = m ** (n - 1 - a)
        for _, _, start, count in batches:
            entries += int(count.sum())
            np.add.at(dense, start, one)
            inside = start // step % m + count < m
            np.subtract.at(dense, start[inside] + count[inside] * step, one)
        np.cumsum(cube, axis=a, dtype=FIELD_DTYPE, out=cube)
    occ = np.flatnonzero(dense)
    return occ, dense[occ].astype(np.int64), entries


def _difference(slabs: np.ndarray) -> None:
    """Replace `slabs` by its first differences along axis 0, in place, one
    slab at a time, so that no full-size temporary is made."""
    for i in range(len(slabs) - 1, 0, -1):
        np.subtract(slabs[i], slabs[i - 1], out=slabs[i])


def _tube_cell_lists(raster: FamilyRaster) -> list[np.ndarray]:
    """Sorted cell list of each tube of the raster, expanded from its kept
    runs; the run arrays are freed when this returns."""
    tube, start, count, step = _run_arrays(raster.grid, raster.require_tube_cells())
    order = np.argsort(tube, kind="stable")
    cells = _run_cells(start[order], count[order], step[order])
    lists = np.split(cells, np.cumsum(np.bincount(tube, count, len(raster.family)).astype(np.int64)))[:-1]
    for c in lists:
        c.sort()
    return lists


@dataclass
class FamilyRaster:
    """Rasterization of one family on one grid.

    `FamilyRaster.build` scans the family's tubes in batches into kept runs
    along rows of cells (`_tube_runs`) and counts the runs in one
    FIELD_DTYPE field (`_field_counts`).  Families of more than
    PER_TUBE_LIMIT tubes are always counted in the field.  A smaller family
    is counted by `np.unique` over its cells instead when they number under
    a quarter of the grid's cells (its arrays, about four int64 copies of
    the cells, then take under 8 bytes per grid cell, at most twice the
    4-byte field, and less time), or when the field exceeds
    DENSE_BYTES_LIMIT.  `counts` is int64 on both paths.

    `tube_cells` holds the kept runs of families of at most PER_TUBE_LIMIT
    tubes, the batches of `_tube_runs`, the one per-tube index: multilinear
    sums keep their pairs on candidate cells, and grouped norms expand them
    into per-tube cell lists for one call.  Larger families keep only
    aggregate counts, and `tube_cells` is None.
    """

    family: TubeFamily
    grid: Grid
    occ: np.ndarray  # sorted linear indices of occupied cells
    counts: np.ndarray  # multiplicity per occupied cell
    entries: int  # sum over tubes of cells per tube
    tube_cells: list | None = None

    @classmethod
    def build(cls, F: TubeFamily, grid: Grid) -> "FamilyRaster":
        grid.check_resolves(F)
        if len(F) > PER_TUBE_LIMIT:
            _check_dense_size(F, grid)
            return cls(F, grid, *_field_counts(grid, _tube_runs(grid, F.tubes)), None)
        runs = list(_tube_runs(grid, F.tubes))
        entries = sum(int(count.sum()) for _, _, _, count in runs)
        if 4 * entries >= grid.total_cells and _field_bytes(grid) <= DENSE_BYTES_LIMIT:
            occ, counts, _ = _field_counts(grid, runs)
        else:
            _, start, count, step = _run_arrays(grid, runs)
            occ, counts = np.unique(_run_cells(start, count, step), return_counts=True)
        return cls(F, grid, occ, counts, entries, runs)

    def require_tube_cells(self) -> list:
        if self.tube_cells is None:
            raise GeometryError(
                "family too large for per-tube runs; this evaluation needs a "
                f"family of at most PER_TUBE_LIMIT = {PER_TUBE_LIMIT} tubes"
            )
        return self.tube_cells

    def lp_norm(self, p: float) -> float:
        """Grid L^p norm of sum(chi_T): (h^n * sum counts^p)^(1/p)."""
        if self.occ.size == 0:
            return 0.0
        return float((self.grid.cell_volume * np.sum(self.counts.astype(float) ** p)) ** (1.0 / p))

    def grouped_lp_power(self, groups, p: float) -> float:
        """Sum over tube-index groups of ||sum over the group of chi_T||_p^p.

        Groups are summed in the order given, and a group listed again (the
        same tubes in the same order) reuses its first value.  The per-tube
        cell lists are expanded from the kept runs for this call; a group's
        lists are sorted, so a stable sort merges them, and the multiplicity
        of a cell is the length of its run in the merged list.
        """
        cells = _tube_cell_lists(self)
        powers: dict[tuple, float] = {}
        acc = 0.0
        for tubes in groups:
            key = tuple(tubes)
            if key not in powers:
                merged = np.sort(np.concatenate([cells[ti] for ti in key]), kind="stable")
                ends = np.flatnonzero(np.diff(merged)) + 1
                counts = np.diff(np.concatenate(([0], ends, [merged.size])))
                powers[key] = float(np.sum(counts.astype(float) ** p)) * self.grid.cell_volume
            acc += powers[key]
        return acc


# ---------------------------------------------------------------------------
# linear and multilinear norms
# ---------------------------------------------------------------------------


def lp_norm_tube_sum(F: TubeFamily, p: float, G: Grid) -> float:
    """Grid L^p norm of sum(chi_T): (h^n * sum counts^p)^(1/p)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return FamilyRaster.build(F, G).lp_norm(p)


def multilinear_cell_values(
    families: list[TubeFamily], G: Grid
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell values of the k-fold transversality sum.

    Returns (cells, values) where values[i] is the sum over ordered k-tuples
    of tubes, one from each family, all containing cell i, of the wedge
    volume of their directions.  Cells where the value is identically zero
    may be omitted.
    """
    k = len(families)
    if k < 2:
        raise ValueError("need at least two families (k >= 2)")
    n = families[0].n
    if k > n:
        raise GeometryError(f"need k <= n, got k={k}, n={n}")
    delta = families[0].delta
    for f in families:
        if f.n != n or abs(f.delta - delta) > 1e-12:
            raise GeometryError("families must share dimension and scale")

    rasters: dict[int, FamilyRaster] = {}
    for f in families:
        if id(f) not in rasters:
            rasters[id(f)] = FamilyRaster.build(f, G)
    return _multilinear_values([rasters[id(f)] for f in families])


def _multilinear_values(rasters: list[FamilyRaster]) -> tuple[np.ndarray, np.ndarray]:
    """multilinear_cell_values over built rasters, one per tuple slot.

    A family repeated across slots is passed as the same raster object.
    Cells with the same containing tubes in every slot (the same face of the
    arrangement) have the same value: it is evaluated once per face, from the
    face's own tubes, and scattered back to the face's cells.  Faces with the
    same tube count per slot go to `gram_wedges` together, in chunks of at
    most WEDGE_TUPLE_LIMIT tuples, with Gram entries gathered from the
    products mats[a] @ mats[b].T of `tuple_wedges`; a face's tuples are
    summed in the order of `W[np.ix_(...)].sum()` on its table W, so each
    value is that sum, bit for bit.
    """
    k = len(rasters)
    distinct = list({id(r): r for r in rasters}.values())
    if len(distinct) == 1:
        r0 = rasters[0]
        cand = r0.occ[r0.counts >= 2]
    else:
        cand = rasters[0].occ
        for r in rasters[1:]:
            cand = np.intersect1d(cand, r.occ, assume_unique=True)
    if cand.size == 0:
        return cand, np.zeros(0)

    lookups = {id(r): _candidate_lookup(r, cand) for r in distinct}
    face, first = row_labels(np.stack([_run_labels(*lookups[id(r)]) for r in distinct], axis=1))
    starts, ends, ids = zip(*(lookups[id(r)] for r in rasters))
    starts = [s[first] for s in starts]
    sizes = np.stack([e[first] - s for s, e in zip(starts, ends)], axis=1)
    # One product per pair of rasters, and one per diagonal, which numpy forms another way.
    key = [[(id(ra), id(rb), a == b) for b, rb in enumerate(rasters)] for a, ra in enumerate(rasters)]
    pairs = {key[a][b]: (a, b) for a, b in itertools.product(range(k), repeat=2) if a < b or k >= 4}
    mats = [r.family.direction_matrix() for r in rasters]
    products = {kk: mats[a] @ mats[b].T for kk, (a, b) in pairs.items()}

    face_vals = np.empty(first.size)
    shape_of, rep = row_labels(sizes)
    groups = np.split(np.argsort(shape_of, kind="stable"), np.cumsum(np.bincount(shape_of))[:-1])
    limit = linegeom.WEDGE_TUPLE_LIMIT
    for dims, faces in zip(sizes[rep].tolist(), groups):
        tuples = math.prod(dims)
        if tuples > limit:
            raise MemoryError(
                f"a face with {' x '.join(map(str, dims))} tubes per slot has {tuples} {k}-tuples, "
                f"above WEDGE_TUPLE_LIMIT = {limit}"
            )
        for c0 in range(0, faces.size, limit // tuples):
            chunk = faces[c0 : c0 + limit // tuples]
            # Slot s's tube ids of each face of the chunk, along axis s + 1.
            at = [
                ids[s][starts[s][chunk, None] + np.arange(L)].reshape(-1, *(L if j == s else 1 for j in range(k)))
                for s, L in enumerate(dims)
            ]
            vals = gram_wedges(k, (chunk.size, *dims), lambda a, b: products[key[a][b]][at[a], at[b]])
            face_vals[chunk] = vals.reshape(chunk.size, -1).sum(axis=1)
    return cand, face_vals[face]


def _candidate_lookup(raster: FamilyRaster, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, ends, ids): the tubes containing cand[i] are
    ids[starts[i]:ends[i]], in tube order, for sorted cells `cand`.  Only the
    (cell, tube) pairs on `cand` are kept from the raster's runs, a batch at
    a time, and then sorted once, by cell and then by tube."""
    m, n = raster.grid.m, raster.grid.n
    parts = []
    for a, tube, start, count in raster.require_tube_cells():
        cells = _run_cells(start, count, np.full(tube.size, m ** (n - 1 - a)))
        hit = cand[np.minimum(np.searchsorted(cand, cells), cand.size - 1)] == cells
        parts.append((cells[hit], np.repeat(tube, count)[hit]))
    cells, ids = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((ids, cells))
    cells = cells[order]
    return np.searchsorted(cells, cand, "left"), np.searchsorted(cells, cand, "right"), ids[order]


def _run_labels(starts: np.ndarray, ends: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Labels of the runs ids[starts[i]:ends[i]], equal exactly when the runs
    are equal.  Runs of one length are compared as the rows of one array."""
    lengths = ends - starts
    labels = np.empty(lengths.size, dtype=np.int64)
    used = 0
    for length in sorted_distinct(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        run_labels, first = row_labels(ids[starts[rows, None] + np.arange(length)])
        labels[rows] = used + run_labels
        used += first.size
    return labels


def multilinear_kakeya_lhs(families: list[TubeFamily], G: Grid) -> float:
    """L^(k/(k-1)) grid norm of the k-th root of the transversality sum."""
    k = len(families)
    _, vals = multilinear_cell_values(families, G)
    integral = float(G.cell_volume * np.sum(vals ** (1.0 / (k - 1.0))))
    return float(integral ** ((k - 1.0) / k))


def multilinear_kakeya_rhs(families: list[TubeFamily]) -> float:
    """(1/delta)^(n/k - 1) * prod_i (sum of tube volumes in family i)^(1/k)."""
    k = len(families)
    if k < 2:
        raise ValueError("need at least two families (k >= 2)")
    n = families[0].n
    delta = families[0].delta
    prod = 1.0
    for f in families:
        prod *= f.sum_volume() ** (1.0 / k)
    return float((1.0 / delta) ** (n / k - 1.0) * prod)


# ---------------------------------------------------------------------------
# cap decomposition and rho-coarsening
# ---------------------------------------------------------------------------


def _conjugate(p: float) -> float:
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def decompose_lp(raster: FamilyRaster, rho: float, k: int, p: float) -> tuple[float, float]:
    """Two-term splitting of the L^p norm of sum(chi_T) at coarseness rho.

    Returns (term_multilinear, term_caps):
      term_multilinear = rho^((1-k)/k) * || (k-fold self transversality)^(1/k) ||_p
      term_caps        = rho^((2-k)/p') * ( sum over caps tau of
                         || sum over tubes with direction in tau of chi_T ||_p^p )^(1/p)
    with caps of diameter rho and p' the conjugate of p, both evaluated on
    the raster's family and grid.  The norm of sum(chi_T) is bounded by a
    constant times the sum of the two terms.
    """
    F, G = raster.family, raster.grid
    if not F.delta <= rho <= 1.0:
        raise ValueError(f"need delta <= rho <= 1, got rho={rho}, delta={F.delta}")
    if not 2 <= k <= F.n:
        raise GeometryError(f"need 2 <= k <= n, got k={k}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")

    _, vals = _multilinear_values([raster] * k)
    integral = float(G.cell_volume * np.sum(vals ** (p / k)))
    term_multilinear = rho ** ((1.0 - k) / k) * integral ** (1.0 / p)

    cover = build_cap_cover(F.n, rho)
    member = cover.membership(F.direction_matrix())
    # Caps in the order the tubes first reach them, each with its tubes in order.
    caps = np.flatnonzero(member.any(axis=0))
    caps = caps[np.argsort(member[:, caps].argmax(axis=0), kind="stable")]
    acc = raster.grouped_lp_power((np.flatnonzero(member[:, ci]) for ci in caps), p)
    pc = _conjugate(p)
    cap_prefactor = 1.0 if math.isinf(pc) else rho ** ((2.0 - k) / pc)
    term_caps = cap_prefactor * acc ** (1.0 / p)
    return float(term_multilinear), float(term_caps)


@dataclass(frozen=True)
class RhoCoarsening:
    """Coarse rho-tubes covering the ball plus the fine-to-coarse assignment."""

    rho: float
    coarse_tubes: tuple[Tube, ...]
    assignment: tuple[tuple[int, ...], ...]  # fine index -> coarse indices


def coarsen_to_rho_tubes(F: TubeFamily, rho: float) -> RhoCoarsening:
    """Assign each fine tube to the coarse rho-tubes containing it.

    Coarse tubes point in cap-cover directions and sit on a translated
    lattice: unit spacing along the axis (segments of length 3) and rho/4
    spacing transversally.  The direction cover has diameter rho/2 so that
    containment holds with margin for every delta < rho/2.  Only coarse
    tubes that actually receive a fine tube are materialized, numbered in
    the order they are first reached: by tube, then cap, then candidate.
    """
    delta = F.delta
    if not delta < rho / 2.0:
        raise ValueError(f"need delta < rho/2, got delta={delta}, rho={rho}")
    if rho > 0.5:
        raise ValueError("coarsening radius above 1/2 is not supported")
    n = F.n
    cover = build_cap_cover(n, rho / 2.0)
    trans = rho / 4.0
    # The candidates of one (tube, cap) pair: axial shifts -1, 0, 1 from the
    # nearest unit lattice point, each with the 3^(n-1) transverse offsets
    # from the nearest rho/4 lattice point, in the order keys are numbered.
    box = lattice_points(np.arange(-1, 2), n - 1)
    shifts = np.repeat(np.arange(-1, 2), len(box))
    offsets = np.tile(box, (3, 1))
    bases = _complete_unit_rows(cover.center_matrix)[:, 1:]
    # Every (tube, cap) pair, tube-major with caps ascending, and the 3^n
    # candidates of each pair, all tested at once.
    U = F.direction_matrix()
    c = np.array([t.segment_center for t in F.tubes]).reshape(-1, n)
    half = (0.5 * np.array([t.length for t in F.tubes]))[:, None] * U
    pt, pc = np.nonzero(cover.membership(U))
    w, Q = cover.center_matrix[pc], bases[pc]
    a = np.round(rowdot(c[pt], w)).astype(np.int64)[:, None] + shifts
    j = np.round((Q @ c[pt, :, None])[:, :, 0] / trans).astype(np.int64)[:, None] + offsets
    # Candidate by candidate this is a * w + Q.T @ (j * trans): the stacked
    # product makes the same matrix-vector call per candidate.
    centers = a[:, :, None] * w[:, None] + (Q.transpose(0, 2, 1)[:, None] @ (j * trans)[..., None])[..., 0]
    ends = np.stack([c - half, c + half], axis=1)[pt, None]
    far = segment_point_distances(ends, centers[:, :, None], w[:, None, None], COARSE_LENGTH).max(axis=2)
    keep = far <= rho - delta + 1e-12
    pair, a, j, centers = np.nonzero(keep)[0], a[keep], j[keep], centers[keep]
    # Number the distinct (cap, a, *j) keys by their first candidate.
    labels, first = row_labels(np.column_stack([pc[pair], a, j]))
    kept = np.sort(first)
    coarse, fine = np.searchsorted(kept, first)[labels], pt[pair]
    counts = np.bincount(fine, minlength=len(F))
    bad = np.flatnonzero((counts == 0) | (counts > coarse_overlap_bound(n)))
    if bad.size:
        ti, count = int(bad[0]), int(counts[bad[0]])
        raise GeometryError(
            f"fine tube {ti} assigned to {count} coarse tubes, bound is {coarse_overlap_bound(n)}"
            if count
            else f"fine tube {ti} not contained in any lattice rho-tube (delta={delta}, rho={rho})"
        )
    got = coarse[np.lexsort((coarse, fine))].tolist()
    cuts = np.cumsum(counts).tolist()
    assignment = tuple(tuple(got[s:e]) for s, e in zip([0, *cuts], cuts))
    caps = pc[pair[kept]].tolist()
    coarse_tubes = tuple(Tube(x, cover.centers[ci], rho, COARSE_LENGTH) for x, ci in zip(centers[kept], caps))
    return RhoCoarsening(float(rho), coarse_tubes, assignment)


# ---------------------------------------------------------------------------
# the six-line computation and the induction-step terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainReport:
    """Values of the six-expression computation bounding the multilinear norm.

    lines[0] is the grid integral of the (d+1)-fold transversality sum to the
    power p/(d+1); lines[1] applies the pointwise cardinality bound; lines[2]
    substitutes the multilinear transversality inequality in closed form;
    lines[3] regroups; lines[4] applies the cardinality hypothesis; lines[5]
    simplifies.  Adjacent equal pairs (2,3) and (4,5) are exact algebra
    evaluated two ways.
    """

    lines: tuple[float, ...]
    pointwise_step_ok: bool
    multilinear_constant: float
    regroup_equal: bool
    cardinality_step_ok: bool
    simplify_equal: bool


def _check_cardinality(F: TubeFamily) -> None:
    """Reject families above the cardinality budget delta^(2(1-d) - beta)."""
    budget = F.delta ** (2.0 * (1 - F.d) - F.beta)
    if len(F) > budget * (1.0 + 1e-9):
        raise ValueError(f"family has {len(F)} tubes, cardinality budget is {budget:.4g}")


def calculation_chain(F: TubeFamily, G: Grid) -> ChainReport:
    """Evaluate the displayed chain bounding the (d+1)-linear norm.

    Requires #tubes <= delta^(2(1-d) - beta) and beta > 0.
    """
    delta, n, d, beta = F.delta, F.n, F.d, F.beta
    p_prime = F.p_prime
    p = F.p
    _check_cardinality(F)
    raster = FamilyRaster.build(F, G)
    k = d + 1

    _, M = _multilinear_values([raster] * k)
    hv = G.cell_volume
    v1 = float(hv * np.sum(M ** (p / (d + 1.0))))
    v2 = float(len(F) ** (p - (d + 1.0) / d) * hv * np.sum(M ** (1.0 / d)))
    sumT = F.sum_volume()
    v3 = float(
        (delta ** (1.0 - n) * sumT) ** (p - (d + 1.0) / d)
        * delta ** ((d + 1.0 - n) / d)
        * sumT ** ((d + 1.0) / d)
    )
    v4 = float(delta ** (1.0 + (1.0 - n) * (p - 1.0)) * sumT**p)
    v5 = float(
        delta ** (1.0 + (1.0 - n) * (p - 1.0))
        * (delta ** (n - 1.0) * delta ** (2.0 * (1.0 - d) - beta)) ** (p - 1.0)
        * sumT
    )
    v6 = float(delta ** (p * (1.0 - d) / p_prime) * sumT)

    lines = (v1, v2, v3, v4, v5, v6)
    # Pointwise bound: the integrand never exceeds (#T)^(d+1), so line 1 <=
    # line 2 exactly on the grid.
    pointwise_ok = v1 <= v2 * (1.0 + 1e-9)
    mk_constant = v2 / v3 if v3 > 0 else math.inf
    regroup_equal = v4 > 0 and abs(v3 / v4 - 1.0) <= 0.01
    # Cardinality step: sum |T| = #T * |T| <= budget * |T|, so line 4 exceeds
    # line 5 by at most (|T| / delta^(n-1))^(p-1).
    vol_factor = (
        (max(t.volume() for t in F.tubes) / delta ** (n - 1.0)) ** (p - 1.0)
        if F.tubes
        else 1.0
    )
    cardinality_ok = v4 <= v5 * vol_factor * (1.0 + 1e-9)
    simplify_equal = v6 > 0 and abs(v5 / v6 - 1.0) <= 0.01
    return ChainReport(
        lines=lines,
        pointwise_step_ok=bool(pointwise_ok),
        multilinear_constant=float(mk_constant),
        regroup_equal=bool(regroup_equal),
        cardinality_step_ok=bool(cardinality_ok),
        simplify_equal=bool(simplify_equal),
    )


def induction_step_terms(raster: FamilyRaster, rho: float) -> tuple[float, float]:
    """The two terms controlling ||sum chi_T||_p at coarseness rho.

    term1 = rho^(-d/(d+1)) * delta^((1-d)/p') * (sum |T|)^(1/p)
    term2 = rho^((1-d)/p') * ( sum over coarse tubes of
            || sum over fine tubes inside of chi_T ||_p^p )^(1/p)
    for the raster's family, with norms on the raster's grid.  Needs
    delta < rho/2 <= 1/4, the precondition of `coarsen_to_rho_tubes`.
    """
    F = raster.family
    delta, d = F.delta, F.d
    _check_cardinality(F)
    p_prime = F.p_prime
    p = F.p

    sumT = F.sum_volume()
    term1 = rho ** (-d / (d + 1.0)) * delta ** ((1.0 - d) / p_prime) * sumT ** (1.0 / p)

    coarsening = coarsen_to_rho_tubes(F, rho)
    by_coarse: dict[int, list[int]] = {}
    for fi, coarse_ids in enumerate(coarsening.assignment):
        for ci in coarse_ids:
            by_coarse.setdefault(ci, []).append(fi)
    acc = raster.grouped_lp_power(by_coarse.values(), p)
    term2 = rho ** ((1.0 - d) / p_prime) * acc ** (1.0 / p)
    return float(term1), float(term2)
