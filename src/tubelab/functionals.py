"""Grid evaluation of tube-sum functionals.

Integrals of powers of sum(chi_T) and of the multilinear transversality
expressions are approximated by midpoint sampling on a uniform grid: a cell
belongs to a tube exactly when its center does.  Indicator integrands make
higher-order quadrature pointless, and the midpoint rule is unbiased on
unions of slabs.

A tube is rasterized by a scanline over its capsule (`rasterize_tube`): rows
of cells along the axis closest to the tube's direction, one closed-form
interval of candidates per row, and the exact distance test to the core
segment as the only membership decision.  A family is rasterized once per
grid into a `FamilyRaster`: per-tube cell lists for small families, a
dense count field for large ones.  The raster carries its family
and is passed to every evaluation on that grid, so norms, cap and
coarse-tube groupings and multilinear sums share one rasterization.
Multilinear sums group the candidate cells into faces, the cells contained
in the same tubes of every slot, and sum the wedge volumes of a face's tuples
once, from one table computed by `linegeom.tuple_wedges`; the k-fold product
over cells is never materialized.  Grouped norms merge a group's sorted
per-tube cell lists with one stable sort, and the rho-coarsening tests all
lattice candidates of a (tube, cap) pair in one broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linegeom import (
    Direction,
    GeometryError,
    Line,
    Tube,
    build_cap_cover,
    complete_orthonormal,
    line_of_tube,
    segment_point_distances,
    tuple_wedges,
)

#: Dilation images are comparable to delta/rho-tubes within this factor and
#: land inside the ball of this radius.
C_COMP = 4.0

#: Length of the segments of coarse covering tubes.  Unit tubes anywhere in
#: the unit ball fit inside a length-3 coarse tube on a unit longitudinal
#: lattice; unit-length coarse tubes could not contain longitudinally offset
#: unit tubes without unbounded overlap.
COARSE_LENGTH = 3.0

#: Families with more tubes than this are rasterized into a dense count
#: field without per-tube cell lists (norms only).
PER_TUBE_LIMIT = 4000

#: Largest dense count field, in bytes (8 per grid cell), that
#: `FamilyRaster.build` allocates.  Tubes are counted into the field in
#: place, so the field is the whole allocation of a dense build.
DENSE_BYTES_LIMIT = 2**30


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
        for i, t in enumerate(tubes):
            if t.n != n:
                raise GeometryError(f"tube {i} lives in R^{t.n}, family in R^{n}")
            if abs(t.radius - delta) > 1e-12:
                raise GeometryError(f"tube {i} has radius {t.radius}, family scale {delta}")
            if float(np.linalg.norm(t.segment_center)) > ball_radius + 1e-9:
                raise GeometryError(f"tube {i} center outside B(0, {ball_radius})")
            for e in t.endpoints:
                if float(np.linalg.norm(e)) > ball_radius + 1e-9:
                    raise GeometryError(f"tube {i} segment leaves B(0, {ball_radius})")
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
            raise ValueError(
                "beta = 0 is rejected here (p would degenerate); "
                "replace d by d-1 and beta by 1 before calling"
            )
        return self.p_prime / (self.p_prime - 1.0)

    def direction_matrix(self) -> np.ndarray:
        return np.stack([t.direction.u for t in self.tubes]) if self.tubes else np.zeros((0, self.n))

    def volumes(self) -> np.ndarray:
        return np.array([t.volume() for t in self.tubes])

    def sum_volume(self) -> float:
        return float(self.volumes().sum())

    def lines(self) -> list[Line]:
        return [line_of_tube(t) for t in self.tubes]


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

    The candidates come from `_scan_cells`, a scanline over the capsule:
    rows of cells along the axis closest to the tube's direction, one
    closed-form interval per row, padded by one cell.  The exact test
    `segment_point_distances(...) <= r + 1e-12` alone decides which
    candidates are kept.  The candidates include every cell of the tube at
    any grid step and are unique by construction, so the cells come out
    complete and without repeats.
    """
    lo, h, m = grid.lo, grid.h, grid.m
    c, u, r = tube.segment_center, tube.direction.u, tube.radius
    multi = _scan_cells(m, (c - lo) / h, u, tube.length / (2.0 * h), (r + _SCAN_SLACK) / h)
    keep = segment_point_distances(lo + (multi + 0.5) * h, c, u, tube.length) <= r + 1e-12
    linear = multi[keep] @ (m ** np.arange(grid.n - 1, -1, -1))
    linear.sort()
    return linear


#: Radius slack of the scanline, so that roundoff in its closed forms never
#: loses a cell that the final distance test keeps.
_SCAN_SLACK = 1e-9

#: Below this tilt off the scan axis the cylinder chord is taken to span the
#: whole slab (the axis-parallel branch); the closed form divides by the tilt.
_MIN_TILT = 1e-6


def _scan_cells(m: int, c: np.ndarray, u: np.ndarray, half: float, r: float) -> np.ndarray:
    """Candidate cells, as multi-indices (k, d), of the capsule of radius r
    around the segment c +- half u, in grid units: cell i has its center at
    i + 1/2 on each axis, and 0 <= i < m.

    A scanline, the scanline form of Amanatides & Woo, "A Fast Voxel
    Traversal Algorithm for Ray Tracing" (Eurographics 1987).  The scan axis
    a is the largest component of u.  The rows are the cell rows over the
    other d-1 axes that hold the capsule's shadow, its projection along axis
    a: a (d-1)-dimensional capsule with the projected segment and the same
    radius, whose candidates this function finds the same way.  A capsule is
    convex, so each row meets it in one interval: the hull of the two
    end-ball chords and of the infinite-cylinder chord clipped to the slab
    |axial coordinate| <= half, each solved in closed form.  Every interval
    is padded by one cell, so the candidates hold every cell whose center
    lies within r.
    """
    d = c.size
    if d == 1:
        reach = half * abs(float(u[0])) + r
        first = max(math.ceil(c[0] - reach - 1.5), 0)
        return np.arange(first, min(math.floor(c[0] + reach + 0.5), m - 1) + 1)[:, None]
    a = int(np.argmax(np.abs(u)))
    others = [ax for ax in range(d) if ax != a]
    # Orient u so that u_a > 0 (a capsule is symmetric under u -> -u) and
    # renormalize, so that u_a^2 + tilt^2 = 1 holds to roundoff.
    v = u * ((1.0 if u[a] > 0 else -1.0) / math.sqrt(float(u @ u)))
    ua, uo = float(v[a]), v[others]
    tilt2 = float(uo @ uo)
    tilt = math.sqrt(tilt2)
    shadow_u = uo / tilt if tilt > 0 else np.eye(d - 1)[0]
    rows = _scan_cells(m, c[others], shadow_u, half * tilt, r)
    # Offsets w of the row centers from c.  Along a row, s = x_a - c_a, and
    # the axial coordinate of a point is s u_a + b.
    w = rows + (0.5 - c[others])
    b = w @ uo
    ww = np.einsum("ij,ij->i", w, w)
    r2 = r * r
    end2 = ww + (half * tilt) ** 2
    with np.errstate(invalid="ignore"):
        # End-ball chords around s = -+ half u_a; NaN where the row misses.
        q_lo = np.sqrt(r2 - (end2 + 2.0 * half * b))
        q_hi = np.sqrt(r2 - (end2 - 2.0 * half * b))
        # Infinite-cylinder chord, clipped to the slab |s u_a + b| <= half.
        bu = b / ua
        slab_lo, slab_hi = -half / ua - bu, half / ua - bu
        if tilt > _MIN_TILT:
            mid = bu * (ua * ua / tilt2)
            hw = np.sqrt(r2 - ww + b * b / tilt2) / tilt
            cyl_lo, cyl_hi = np.maximum(mid - hw, slab_lo), np.minimum(mid + hw, slab_hi)
            cyl = cyl_lo <= cyl_hi
        else:
            # Axis-parallel branch: the chord spans the slab whenever the row
            # passes within r of the axis somewhere along the segment.
            cyl_lo, cyl_hi = slab_lo, slab_hi
            cyl = ww <= (r + half * tilt) ** 2
        s_lo = np.fmin(np.fmin(-half * ua - q_lo, half * ua - q_hi), np.where(cyl, cyl_lo, np.nan))
        s_hi = np.fmax(np.fmax(-half * ua + q_lo, half * ua + q_hi), np.where(cyl, cyl_hi, np.nan))
        # Cells whose centers lie in [c_a + s_lo, c_a + s_hi], padded by one
        # cell; rows that miss the capsule carry NaN and get no candidates.
        first = np.maximum(np.ceil(s_lo + (c[a] - 1.5)), 0.0)
        last = np.minimum(np.floor(s_hi + (c[a] + 0.5)), m - 1.0)
        hit = last >= first
    counts = np.where(hit, last - first + 1.0, 0.0).astype(np.int64)
    row_of = np.repeat(np.arange(rows.shape[0]), counts)
    multi = np.empty((row_of.size, d), dtype=np.int64)
    multi[:, others] = rows[row_of]
    start = np.where(hit, first, 0.0).astype(np.int64) - (np.cumsum(counts) - counts)
    multi[:, a] = start[row_of] + np.arange(row_of.size)
    return multi


def _check_dense_size(F: TubeFamily, grid: Grid) -> None:
    """Raise MemoryError, naming the largest grid factor that fits, when the
    dense count field of `grid` exceeds DENSE_BYTES_LIMIT."""
    need, limit = grid.total_cells * 8, DENSE_BYTES_LIMIT
    if need <= limit:
        return
    factor = math.floor(F.delta / grid.h + 1e-9)
    while factor >= 1 and Grid(grid.n, F.delta / factor, grid.extent).total_cells * 8 > limit:
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


@dataclass
class FamilyRaster:
    """Rasterization of one family on one grid.

    `tube_cells` holds per-tube cell lists for families of at most
    PER_TUBE_LIMIT tubes (required by the multilinear and grouping
    evaluators); larger families keep only aggregate counts.
    """

    family: TubeFamily
    grid: Grid
    occ: np.ndarray  # sorted linear indices of occupied cells
    counts: np.ndarray  # multiplicity per occupied cell
    entries: int  # sum over tubes of cells per tube
    tube_cells: list[np.ndarray] | None = None
    _index: tuple | None = field(default=None, repr=False)

    @classmethod
    def build(cls, F: TubeFamily, grid: Grid) -> "FamilyRaster":
        grid.check_resolves(F)
        if len(F) <= PER_TUBE_LIMIT:
            cells = [rasterize_tube(grid, t) for t in F.tubes]
            concat = np.concatenate(cells) if cells else np.empty(0, dtype=np.int64)
            occ, counts = np.unique(concat, return_counts=True)
            return cls(F, grid, occ, counts, int(concat.size), cells)
        _check_dense_size(F, grid)
        dense = np.zeros(grid.total_cells, dtype=np.int64)
        entries = 0
        for t in F.tubes:
            c = rasterize_tube(grid, t)
            dense[c] += 1  # exact: the cells of one tube are unique
            entries += c.size
        occ = np.nonzero(dense)[0]
        return cls(F, grid, occ, dense[occ], entries, None)

    def require_tube_cells(self) -> list[np.ndarray]:
        if self.tube_cells is None:
            raise GeometryError(
                "family too large for per-tube cell lists; this evaluation "
                "needs a family of at most {} tubes".format(PER_TUBE_LIMIT)
            )
        return self.tube_cells

    def cell_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(cells, ids): every (cell, tube) incidence, stably sorted by cell."""
        if self._index is None:
            cells = self.require_tube_cells()
            cat = np.concatenate(cells) if cells else np.empty(0, dtype=np.int64)
            ids = np.repeat(np.arange(len(cells)), [c.size for c in cells])
            order = np.argsort(cat, kind="stable")
            self._index = (cat[order], ids[order])
        return self._index

    def lookup(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, ends, ids): the tubes containing cells[i] are
        ids[starts[i]:ends[i]], in tube order."""
        cat, ids = self.cell_index()
        return np.searchsorted(cat, cells, "left"), np.searchsorted(cat, cells, "right"), ids

    def lp_norm(self, p: float) -> float:
        """Grid L^p norm of sum(chi_T): (h^n * sum counts^p)^(1/p)."""
        if self.occ.size == 0:
            return 0.0
        return float((self.grid.cell_volume * np.sum(self.counts.astype(float) ** p)) ** (1.0 / p))

    def grouped_lp_power(self, groups, p: float) -> float:
        """Sum over tube-index groups of ||sum over the group of chi_T||_p^p.

        Groups are summed in the order given, and a group listed again (the
        same tubes in the same order) reuses its first value.  A group's
        cell lists are sorted runs, so a stable sort merges them, and the
        multiplicity of a cell is the length of its run in the merged list.
        """
        cells = self.require_tube_cells()
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
    arrangement) have the same value: it is evaluated once per face, on one
    of its cells, and scattered back to the face's cells.
    """
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

    W = tuple_wedges([r.family.direction_matrix() for r in rasters])
    lookups = {id(r): r.lookup(cand) for r in distinct}
    face, faces = _row_labels(np.stack([_run_labels(*lookups[id(r)]) for r in distinct], axis=1))
    first = np.empty(faces, dtype=np.int64)
    first[face] = np.arange(face.size)
    slots = [lookups[id(r)] for r in rasters]
    face_vals = np.array([W[np.ix_(*[ids[s[i] : e[i]] for s, e, ids in slots])].sum() for i in first.tolist()])
    return cand, face_vals[face]


def _run_labels(starts: np.ndarray, ends: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Labels of the runs ids[starts[i]:ends[i]], equal exactly when the runs
    are equal.  Runs of one length are compared as the rows of one array."""
    lengths = ends - starts
    labels = np.empty(lengths.size, dtype=np.int64)
    used = 0
    for length in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        run_labels, count = _row_labels(ids[starts[rows, None] + np.arange(length)])
        labels[rows] = used + run_labels
        used += count
    return labels


def _row_labels(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """(labels, count): labels 0..count-1 of the rows of a 2-D integer array,
    equal exactly when the rows are equal."""
    order = np.lexsort(rows.T)
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    labels = np.empty(len(rows), dtype=np.int64)
    labels[order] = np.cumsum(new) - 1
    return labels, int(np.count_nonzero(new))


def multilinear_power_integral(families: list[TubeFamily], power: float, G: Grid) -> float:
    """h^n * sum over cells of (k-fold transversality sum)^power."""
    _, vals = multilinear_cell_values(families, G)
    return float(G.cell_volume * np.sum(vals**power))


def multilinear_kakeya_lhs(families: list[TubeFamily], G: Grid) -> float:
    """L^(k/(k-1)) grid norm of the k-th root of the transversality sum."""
    k = len(families)
    integral = multilinear_power_integral(families, 1.0 / (k - 1.0), G)
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
    tubes that actually receive a fine tube are materialized.
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
    box = np.stack(
        np.meshgrid(*([np.arange(-1, 2)] * (n - 1)), indexing="ij"), axis=-1
    ).reshape(-1, n - 1)
    shifts = np.repeat(np.arange(-1, 2), len(box))
    offsets = np.tile(box, (3, 1))
    bases: dict[int, np.ndarray] = {}

    coarse_index: dict[tuple, int] = {}
    coarse_tubes: list[Tube] = []
    assignment: list[tuple[int, ...]] = []
    member = cover.membership(F.direction_matrix())
    for ti, tube in enumerate(F.tubes):
        got: list[int] = []
        ends = np.stack(tube.endpoints)
        for ci in np.flatnonzero(member[ti]).tolist():
            w = cover.centers[ci].u
            Q = bases.get(ci)
            if Q is None:
                Q = bases[ci] = complete_orthonormal(w[None], n)[1:]
            a = shifts + round(float(np.dot(tube.segment_center, w)))
            j = np.round(Q @ tube.segment_center / trans).astype(np.int64) + offsets
            # Row by row this is a * w + Q.T @ (j * trans): the stacked
            # product makes the same matrix-vector call per row.
            centers = a[:, None] * w + np.matmul(Q.T, (j * trans)[:, :, None])[:, :, 0]
            dists = segment_point_distances(ends, centers[:, None, :], w, COARSE_LENGTH)
            for row in np.flatnonzero(dists.max(axis=1) <= rho - delta + 1e-12).tolist():
                key = (ci, int(a[row]), *j[row].tolist())
                idx = coarse_index.get(key)
                if idx is None:
                    idx = coarse_index[key] = len(coarse_tubes)
                    coarse_tubes.append(Tube(centers[row], cover.centers[ci], rho, COARSE_LENGTH))
                got.append(idx)
        if not got:
            raise GeometryError(
                f"fine tube {ti} not contained in any lattice rho-tube "
                f"(delta={delta}, rho={rho})"
            )
        if len(got) > coarse_overlap_bound(n):
            raise GeometryError(
                f"fine tube {ti} assigned to {len(got)} coarse tubes, "
                f"bound is {coarse_overlap_bound(n)}"
            )
        assignment.append(tuple(sorted(got)))

    return RhoCoarsening(float(rho), tuple(coarse_tubes), tuple(assignment))


# ---------------------------------------------------------------------------
# rescaling a coarse tube to unit scale
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineRescaling:
    """x -> D R (x - c): rotate the coarse axis to e1, dilate transversally by 1/rho."""

    rotation: np.ndarray  # rows: orthonormal, first row = coarse direction
    center: np.ndarray
    rho: float

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = self.rotation @ (np.asarray(x, dtype=float) - self.center)
        y[1:] /= self.rho
        return y

    def inverse(self, y: np.ndarray) -> np.ndarray:
        z = np.array(y, dtype=float)
        z[1:] *= self.rho
        return self.center + self.rotation.T @ z

    def map_tube(self, T: Tube, new_radius: float) -> Tube:
        e0, e1 = T.endpoints
        f0, f1 = self.forward(e0), self.forward(e1)
        seg = f1 - f0
        length = float(np.linalg.norm(seg))
        return Tube((f0 + f1) / 2.0, Direction(seg), new_radius, length)

    def unmap_tube(self, T: Tube) -> Tube:
        e0, e1 = T.endpoints
        g0, g1 = self.inverse(e0), self.inverse(e1)
        seg = g1 - g0
        return Tube((g0 + g1) / 2.0, Direction(seg), T.radius * self.rho, float(np.linalg.norm(seg)))


@dataclass(frozen=True)
class RescaledFamily:
    family: TubeFamily
    transform: AffineRescaling


def rescale_into_ball(F_sub: TubeFamily, T_rho: Tube) -> RescaledFamily:
    """Map the tubes inside one coarse tube to a family at scale delta/rho.

    The affine map sends the coaxial line of T_rho to the e1-axis and
    dilates the transverse directions by 1/rho.  Every image is re-fit to a
    tube of radius delta/rho (the transverse dilation dominates), and the
    whole image family lands inside B(0, C_COMP).
    """
    rho = T_rho.radius
    delta = F_sub.delta
    for i, t in enumerate(F_sub.tubes):
        d = segment_point_distances(np.stack(t.endpoints), T_rho.segment_center, T_rho.direction.u, T_rho.length)
        if float(d.max()) > rho - delta + 2.0 * delta + 1e-9:
            raise GeometryError(
                f"tube {i} is not contained in the coarse tube "
                f"(max endpoint distance {float(d.max()):.4g} > rho + delta)"
            )
    rot = complete_orthonormal(T_rho.direction.u[None], F_sub.n)
    A = AffineRescaling(rot, T_rho.segment_center.copy(), float(rho))
    new_radius = delta / rho
    images = [A.map_tube(t, new_radius) for t in F_sub.tubes]
    for i, t in enumerate(images):
        for e in t.endpoints:
            if float(np.linalg.norm(e)) + new_radius > C_COMP + 1e-9:
                raise GeometryError(f"rescaled tube {i} leaves B(0, {C_COMP})")
    fam = TubeFamily(images, new_radius, F_sub.n, F_sub.d, F_sub.beta, ball_radius=C_COMP)
    return RescaledFamily(fam, A)


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
    adjacent_ratios: tuple[float, ...]
    pointwise_step_ok: bool
    multilinear_constant: float
    regroup_equal: bool
    cardinality_step_ok: bool
    simplify_equal: bool
    volume_factor: float


def calculation_chain(F: TubeFamily, G: Grid) -> ChainReport:
    """Evaluate the displayed chain bounding the (d+1)-linear norm.

    Requires #tubes <= delta^(2(1-d) - beta) and beta > 0.
    """
    delta, n, d, beta = F.delta, F.n, F.d, F.beta
    if beta <= 0.0:
        raise ValueError("beta must be positive here; replace d by d-1 and beta by 1")
    budget = delta ** (2.0 * (1 - d) - beta)
    if len(F) > budget * (1.0 + 1e-9):
        raise ValueError(f"family has {len(F)} tubes, cardinality budget is {budget:.4g}")
    raster = FamilyRaster.build(F, G)
    p_prime = F.p_prime
    p = F.p
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
    ratios = tuple(
        (lines[i] / lines[i + 1])
        if lines[i + 1] > 0
        else (1.0 if lines[i] == 0 else math.inf)
        for i in range(5)
    )
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
        adjacent_ratios=ratios,
        pointwise_step_ok=bool(pointwise_ok),
        multilinear_constant=float(mk_constant),
        regroup_equal=bool(regroup_equal),
        cardinality_step_ok=bool(cardinality_ok),
        simplify_equal=bool(simplify_equal),
        volume_factor=float(vol_factor),
    )


def induction_step_terms(raster: FamilyRaster, rho: float) -> tuple[float, float]:
    """The two terms controlling ||sum chi_T||_p at coarseness rho.

    term1 = rho^(-d/(d+1)) * delta^((1-d)/p') * (sum |T|)^(1/p)
    term2 = rho^((1-d)/p') * ( sum over coarse tubes of
            || sum over fine tubes inside of chi_T ||_p^p )^(1/p)
    for the raster's family, with norms on the raster's grid.
    """
    F = raster.family
    delta, d = F.delta, F.d
    budget = delta ** (2.0 * (1 - d) - F.beta)
    if len(F) > budget * (1.0 + 1e-9):
        raise ValueError(f"family has {len(F)} tubes, cardinality budget is {budget:.4g}")
    if delta > rho / 2.0:
        raise ValueError(f"need delta <= rho/2, got delta={delta}, rho={rho}")
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
