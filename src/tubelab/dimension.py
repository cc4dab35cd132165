"""Box-counting dimension and the duality comparison at a fixed scale.

The region E_delta, `Region(G, FamilyRaster.build(F, G).occ)`, is the exact
rasterized union of a family's tubes (the strongest case of the covering
hypothesis: |T ∩ E_delta| = |T| for every tube).  Dimension is estimated as
the least-squares slope of log covering count against log inverse scale over
dyadic scales; it stands in for the limiting dimension, which is out of reach
at one scale.

Distinct cells and boxes are found by one sort and an adjacent-difference
mask (`linegeom.sorted_distinct`), never by a flag-free `np.unique`, which
numpy >= 2.3 runs through a hash table many times slower than a sort.  A
region unravels its cells into per-axis indices once, on its first box count,
and every scale and anchor builds its coarse box keys axis by axis from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .functionals import FamilyRaster, Grid, TubeFamily
from .linegeom import GeometryError, sorted_distinct


def _index_dtype(bound: int):
    """int32 when every index below `bound` fits it (it halves the memory
    traffic of box keys), else int64."""
    return np.int32 if bound <= 2**31 else np.int64


def _cells_message(grid: Grid, bad) -> str:
    n = grid.total_cells
    return f"region cells must be integers in [0, {n}) on a grid of {n} cells, got {bad}"


@dataclass(frozen=True)
class Region:
    """Occupied cells of a grid."""

    grid: Grid
    cells: np.ndarray  # sorted unique linear indices

    def __init__(self, grid: Grid, cells):
        a = np.asarray(cells).ravel()
        if a.size == 0:
            raise GeometryError("region must be non-empty")
        if a.dtype.kind not in "iu":
            a = a.astype(float)
            bad = ~((np.floor(a) == a) & (a >= 0) & (a < grid.total_cells))
            if bad.any():
                raise GeometryError(_cells_message(grid, a[bad][0]))
        c = a.astype(np.int64, copy=False)
        if not np.all(c[1:] > c[:-1]):  # already sorted and distinct, as `FamilyRaster.occ` is
            c = sorted_distinct(c)
        if c[0] < 0 or c[-1] >= grid.total_cells:
            raise GeometryError(_cells_message(grid, c[0] if c[0] < 0 else c[-1]))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "cells", c)

    @cached_property
    def _axes(self) -> tuple[np.ndarray, ...]:
        """Per-axis indices of the cells, axis 0 first, split once for every
        box count.  A box count adds an anchor shift below its factor, at
        most about m, so the dtype holds every index below 2m as well as the
        linear indices."""
        m = self.grid.m
        rest = self.cells.astype(_index_dtype(max(self.grid.total_cells, 2 * m)))
        low = []
        for _ in range(self.grid.n - 1):
            rest, a = np.divmod(rest, m)
            low.append(a)
        return (rest, *reversed(low))

    @property
    def volume(self) -> float:
        return float(self.cells.size) * self.grid.cell_volume

    @classmethod
    def from_points(cls, grid: Grid, points) -> "Region":
        """Rasterize a point set (shape (N, n) or (N,) for n = 1) lying in
        the grid's closed box [lo, lo + m*h]^n; a point on an upper face
        falls in the last cell along that axis."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] != grid.n:
            raise GeometryError(f"points must have shape (N, {grid.n}) on this grid, got {pts.shape}")
        top = grid.lo + grid.m * grid.h
        bad = np.flatnonzero(~np.all((pts >= grid.lo) & (pts <= top), axis=1))
        if bad.size:
            i = int(bad[0])
            where = f"lies outside [{grid.lo:g}, {top:g}]^{grid.n}" if np.isfinite(pts[i]).all() else "is not finite"
            raise GeometryError(f"point {i} {where}: {pts[i].tolist()}")
        idx = np.minimum(np.floor((pts - grid.lo) / grid.h).astype(np.int64), grid.m - 1)
        linear = np.ravel_multi_index(idx.T, (grid.m,) * grid.n)
        return cls(grid, linear)


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares power-law fit in log-log coordinates."""

    scales: tuple[float, ...]
    values: tuple[float, ...]
    slope: float
    residual: float  # RMS residual of the log-log fit

    def __init__(self, scales, values, x_is_inverse=False):
        scales = tuple(float(s) for s in scales)
        values = tuple(float(v) for v in values)
        if len(scales) < 3:
            raise GeometryError("an exponent fit needs at least 3 scales")
        if any(v <= 0 for v in values):
            raise GeometryError("fit values must be positive")
        x = np.log(1.0 / np.array(scales)) if x_is_inverse else np.log(np.array(scales))
        y = np.log(np.array(values))
        m, b = np.polyfit(x, y, 1)
        res = float(np.sqrt(np.mean((y - (m * x + b)) ** 2)))
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "slope", float(m))
        object.__setattr__(self, "residual", res)


def _box_factor(grid: Grid, scale: float) -> int:
    """The scale snapped to a whole number of grid steps (at least one)."""
    return max(int(round(scale / grid.h)), 1)


def box_counts(R: Region, scale: float, offsets: int = 1) -> float:
    """Boxes of the given scale meeting the region, averaged over anchors.

    The scale is snapped to an integer multiple of the grid step.  Averaging
    the count over `offsets` shifted box origins removes most of the
    alignment quantization that a single anchor suffers at coarse scales.
    A box's key is its row-major index in a lattice of m // factor + 2 boxes
    per axis, which holds every shifted box index.
    """
    factor = _box_factor(R.grid, scale)
    mc = R.grid.m // factor + 2
    total = 0.0
    for t in range(offsets):
        shift = (t * factor) // offsets
        key = np.zeros(R.cells.size, dtype=_index_dtype(mc**R.grid.n))
        for axis in R._axes:
            key *= mc
            key += (axis + shift) // factor
        total += float(sorted_distinct(key).size)
    return total / offsets


def box_counting_dim(R: Region, scales, offsets: int = 1) -> ExponentFit:
    """Slope of log covering count against log(1/scale) over the given scales.

    Scales that snap to the same multiple of the grid step as an earlier one
    are dropped, so each box size enters the fit once.
    """
    scales = [float(s) for s in scales]
    h = R.grid.h
    if any(not h <= s <= 2 * R.grid.extent for s in scales):
        raise GeometryError("scales must lie between the grid step and the grid size")
    first = {}
    for s in scales:
        first.setdefault(_box_factor(R.grid, s), s)
    if len(first) < 3:
        raise GeometryError(
            f"box counting needs at least 3 distinct scales; {scales} snap to "
            f"{[f * h for f in first]} at grid step h = {h}"
        )
    eff = [f * h for f in first]
    counts = [box_counts(R, s, offsets=offsets) for s in first.values()]
    return ExponentFit(eff, counts, x_is_inverse=True)


def default_dimension_scales(G: Grid, levels: int = 3) -> list[float]:
    """The `levels` finest dyadic scales that are >= 4h (capped at 1/2).

    Box dimension is a fine-scale limit: covering counts at the smallest
    resolved scales carry the signal, while boxes comparable to the whole
    configuration only measure its macroscopic hull.
    """
    s_min = 2.0 ** -math.floor(math.log2(1.0 / (4.0 * G.h)) + 1e-9)
    scales = [min(s_min * 2.0**j, 0.5) for j in range(levels)]
    return sorted(set(scales), reverse=True)


@dataclass(frozen=True)
class HolderReport:
    """Duality comparison between tube mass on E_delta and the L^p norm.

    The chain  sum |T ∩ E| <= |E|^(1/p') ||sum chi_T||_p  is exact arithmetic
    on the grid and is re-checked here; exponent_deficit is the measured box
    dimension minus d+beta.
    """

    exponent_deficit: float
    mass_lhs: float
    holder_rhs: float
    dim_fit: float
    chain_holds: bool


def holder_comparison(F: TubeFamily, G: Grid, p: float) -> HolderReport:
    """Evaluate the duality chain for the family's own exponent p = (d+b)/(d+b-1)."""
    if abs(p - F.p) > 1e-9:
        raise ValueError(f"p must equal (d+beta)/(d+beta-1) = {F.p}, got {p}")
    p_prime = F.p_prime
    raster = FamilyRaster.build(F, G)
    if raster.occ.size == 0:
        raise GeometryError("family rasterizes to an empty region")
    hv = G.cell_volume
    mass_lhs = hv * float(raster.counts.astype(float).sum())  # sum over tubes of |T ∩ E_delta|
    region_volume = hv * float(raster.occ.size)
    norm_p = raster.lp_norm(p)
    holder_rhs = region_volume ** (1.0 / p_prime) * norm_p
    chain_holds = mass_lhs <= holder_rhs * (1.0 + 1e-9)

    region = Region(G, raster.occ)
    fit = box_counting_dim(region, default_dimension_scales(G))
    dim_fit = fit.slope
    return HolderReport(
        exponent_deficit=float(dim_fit - (F.d + F.beta)),
        mass_lhs=mass_lhs,
        holder_rhs=float(holder_rhs),
        dim_fit=float(dim_fit),
        chain_holds=bool(chain_holds),
    )


def exponent_fit_norms(
    family_at: Callable[[float], TubeFamily], scales, p: float, grid_factor: int = 4
) -> ExponentFit:
    """Fit the scale exponent of ||sum chi_T||_p / (sum |T|)^(1/p).

    `family_at(delta)` gives the family at each scale; the slope is the
    exponent e in value ~ C * delta^e.  Families satisfying the ball
    condition obey e >= (1-d)/p' up to desk-scale noise, with equality for
    the parallel-plane configuration.
    """
    scales = [float(s) for s in scales]
    if len(scales) < 3:
        raise GeometryError("an exponent fit needs at least 3 scales")
    values = []
    for s in scales:
        fam = family_at(s)
        G = Grid.for_family(fam, factor=grid_factor)
        norm = FamilyRaster.build(fam, G).lp_norm(p)
        values.append(norm / fam.sum_volume() ** (1.0 / p))
    return ExponentFit(scales, values)
