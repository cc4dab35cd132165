"""Grid evaluation of tube-sum functionals.

Integrals of powers of sum(chi_T) and of the multilinear transversality
expressions are approximated by midpoint sampling on a uniform grid: a cell
belongs to a tube exactly when its center does.  Indicator integrands make
higher-order quadrature pointless, and the midpoint rule is unbiased on
unions of slabs.

A family is rasterized once per grid into a `FamilyRaster`: per-tube cell
lists for small families, a streamed dense count field for large ones.  The
raster carries its family and is passed to every evaluation on that grid, so
norms, cap and coarse-tube groupings and multilinear sums share one
rasterization.  Multilinear sums look up, per cell, only the tubes containing
that cell and sum the wedge volumes of their tuples from one table computed
by `linegeom.tuple_wedges`, never materializing the k-fold product over
cells.
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

_ENTRY_CHUNK = 20_000_000


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
        from .linegeom import line_of_tube

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
    def for_family(cls, F: TubeFamily, factor: int = 4, h: float | None = None) -> "Grid":
        """Grid with bounds [-(R + delta), R + delta]^n and h = delta/factor."""
        step = F.delta / factor if h is None else h
        return cls(F.n, step, F.ball_radius + F.delta)

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
    """Linear indices of the grid cells whose center lies inside the tube."""
    n, h, lo, m = grid.n, grid.h, grid.lo, grid.m
    c = tube.segment_center
    u = tube.direction.u
    r, L = tube.radius, tube.length
    axis = int(np.argmax(np.abs(u)))
    ua = float(u[axis])

    span = abs(ua) * L / 2.0 + r
    i0 = max(int(math.floor((c[axis] - span - lo) / h)), 0)
    i1 = min(int(math.floor((c[axis] + span - lo) / h)), m - 1)
    if i1 < i0:
        return np.empty(0, dtype=np.int64)
    slabs = np.arange(i0, i1 + 1)
    xs = lo + (slabs + 0.5) * h
    t = np.clip((xs - c[axis]) / ua, -L / 2.0, L / 2.0)
    pts = c[None, :] + t[:, None] * u[None, :]

    others = [ax for ax in range(n) if ax != axis]
    w = int(math.ceil(r / h + math.sqrt(n) + 1.0))
    offs1d = np.arange(-w, w + 1)
    if others:
        mesh = np.meshgrid(*([offs1d] * len(others)), indexing="ij")
        offs = np.stack([g.ravel() for g in mesh], axis=1)
    else:
        offs = np.zeros((1, 0), dtype=np.int64)

    base = np.floor((pts[:, others] - lo) / h).astype(np.int64)  # (S, n-1)
    cand_other = base[:, None, :] + offs[None, :, :]  # (S, B, n-1)
    S, B = cand_other.shape[0], cand_other.shape[1]
    multi = np.empty((S, B, n), dtype=np.int64)
    multi[:, :, axis] = slabs[:, None]
    for j, ax in enumerate(others):
        multi[:, :, ax] = cand_other[:, :, j]
    multi = multi.reshape(-1, n)
    ok = np.all((multi >= 0) & (multi < m), axis=1)
    multi = multi[ok]
    linear = np.unique(np.ravel_multi_index(multi.T, (m,) * n))
    centers = grid.centers_of_linear(linear)
    dist = segment_point_distances(centers, c, u, L)
    return linear[dist <= r + 1e-12]


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
        dense = np.zeros(grid.total_cells, dtype=np.int64)
        chunk: list[np.ndarray] = []
        size = 0
        entries = 0
        for t in F.tubes:
            c = rasterize_tube(grid, t)
            chunk.append(c)
            size += c.size
            entries += c.size
            if size >= _ENTRY_CHUNK:
                dense += np.bincount(np.concatenate(chunk), minlength=grid.total_cells)
                chunk, size = [], 0
        if chunk:
            dense += np.bincount(np.concatenate(chunk), minlength=grid.total_cells)
        occ = np.nonzero(dense)[0]
        return cls(F, grid, occ, dense[occ], entries, None)

    def require_tube_cells(self) -> list[np.ndarray]:
        if self.tube_cells is None:
            raise GeometryError(
                "family too large for per-tube cell lists; this evaluation "
                "needs a family of at most {} tubes".format(PER_TUBE_LIMIT)
            )
        return self.tube_cells

    def cell_index(self) -> tuple:
        """CSR index: for each occupied cell, which tubes contain it."""
        if self._index is None:
            cells = self.require_tube_cells()
            cat = np.concatenate(cells) if cells else np.empty(0, dtype=np.int64)
            ids = np.repeat(np.arange(len(cells)), [c.size for c in cells])
            order = np.argsort(cat, kind="stable")
            cat, ids = cat[order], ids[order]
            starts = np.searchsorted(cat, self.occ, side="left")
            ends = np.searchsorted(cat, self.occ, side="right")
            self._index = (starts, ends, ids)
        return self._index

    def lookup(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, ends, ids) restricted to the given sorted cell array."""
        starts, ends, ids = self.cell_index()
        pos = np.searchsorted(self.occ, cells)
        pos = np.clip(pos, 0, max(len(self.occ) - 1, 0))
        valid = (len(self.occ) > 0) & (self.occ[pos] == cells) if len(self.occ) else np.zeros(len(cells), bool)
        s = np.where(valid, starts[pos], 0)
        e = np.where(valid, ends[pos], 0)
        return s, e, ids

    def lp_norm(self, p: float) -> float:
        """Grid L^p norm of sum(chi_T): (h^n * sum counts^p)^(1/p)."""
        if self.occ.size == 0:
            return 0.0
        return float((self.grid.cell_volume * np.sum(self.counts.astype(float) ** p)) ** (1.0 / p))

    def grouped_lp_power(self, groups, p: float) -> float:
        """Sum over tube-index groups of ||sum over the group of chi_T||_p^p.

        Groups are summed in the order given.
        """
        cells = self.require_tube_cells()
        acc = 0.0
        for tubes in groups:
            _, counts = np.unique(np.concatenate([cells[ti] for ti in tubes]), return_counts=True)
            acc += float(np.sum(counts.astype(float) ** p)) * self.grid.cell_volume
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
    """
    if len({id(r) for r in rasters}) == 1:
        r0 = rasters[0]
        cand = r0.occ[r0.counts >= 2]
    else:
        cand = rasters[0].occ
        for r in rasters[1:]:
            cand = np.intersect1d(cand, r.occ, assume_unique=True)
    if cand.size == 0:
        return cand, np.zeros(0)

    W = tuple_wedges([r.family.direction_matrix() for r in rasters])
    lookups = [r.lookup(cand) for r in rasters]
    vals = np.zeros(cand.size)
    for i in range(cand.size):
        subs = [ids[s[i] : e[i]] for (s, e, ids) in lookups]
        vals[i] = W[np.ix_(*subs)].sum()
    return cand, vals


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
    members: dict[int, list[int]] = {}
    for ti, tube in enumerate(F.tubes):
        for ci in cover.caps_containing(tube.direction):
            members.setdefault(int(ci), []).append(ti)
    acc = raster.grouped_lp_power(members.values(), p)
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
    cover = build_cap_cover(F.n, rho / 2.0)
    bases = {i: complete_orthonormal(c.u[None], F.n)[1:] for i, c in enumerate(cover.centers)}
    trans = rho / 4.0

    coarse_index: dict[tuple, int] = {}
    coarse_tubes: list[Tube] = []
    assignment: list[tuple[int, ...]] = []
    n = F.n
    box = np.stack(
        np.meshgrid(*([np.arange(-1, 2)] * (n - 1)), indexing="ij"), axis=-1
    ).reshape(-1, n - 1)

    for ti, tube in enumerate(F.tubes):
        got: list[int] = []
        e0, e1 = tube.endpoints
        for ci in cover.caps_containing(tube.direction):
            w = cover.centers[int(ci)].u
            Q = bases[int(ci)]
            t_along = float(np.dot(tube.segment_center, w))
            y = Q @ tube.segment_center
            base_j = np.round(y / trans).astype(np.int64)
            for a in (round(t_along) - 1, round(t_along), round(t_along) + 1):
                for off in box:
                    j = base_j + off
                    center = a * w + Q.T @ (j * trans)
                    dists = segment_point_distances(
                        np.stack([e0, e1]), center, w, COARSE_LENGTH
                    )
                    if float(dists.max()) <= rho - delta + 1e-12:
                        key = (int(ci), int(a)) + tuple(int(v) for v in j)
                        idx = coarse_index.get(key)
                        if idx is None:
                            idx = len(coarse_tubes)
                            coarse_index[key] = idx
                            coarse_tubes.append(Tube(center, Direction(w), rho, COARSE_LENGTH))
                        if idx not in got:
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
