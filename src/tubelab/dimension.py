"""Box-counting dimension and the duality comparison at a fixed scale.

The region E_delta is the exact rasterized union of a family's tubes (the
strongest case of the covering hypothesis: |T ∩ E_delta| = |T| for every
tube).  Dimension is estimated as the least-squares slope of log covering
count against log inverse scale over dyadic scales; it stands in for the
limiting dimension, which is out of reach at one scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .functionals import FamilyRaster, Grid, TubeFamily
from .generators import GeneratorSpec, family_for_norms
from .linegeom import GeometryError


@dataclass(frozen=True)
class Region:
    """Occupied cells of a grid."""

    grid: Grid
    cells: np.ndarray  # sorted unique linear indices

    def __init__(self, grid: Grid, cells):
        c = np.unique(np.asarray(cells, dtype=np.int64))
        if c.size == 0:
            raise GeometryError("region must be non-empty")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "cells", c)

    @property
    def volume(self) -> float:
        return float(self.cells.size) * self.grid.cell_volume

    @classmethod
    def from_points(cls, grid: Grid, points) -> "Region":
        """Rasterize a point set (shape (N, n) or (N,) for n = 1)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        idx = np.floor((pts - grid.lo) / grid.h).astype(np.int64)
        idx = np.clip(idx, 0, grid.m - 1)
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


def build_E_delta(F: TubeFamily, G: Grid) -> Region:
    """The rasterized union of the family's tubes."""
    raster = FamilyRaster.build(F, G)
    if raster.occ.size == 0:
        raise GeometryError("family rasterizes to an empty region")
    return Region(G, raster.occ)


def box_counts(R: Region, scale: float, offsets: int = 1) -> float:
    """Boxes of the given scale meeting the region, averaged over anchors.

    The scale is snapped to an integer multiple of the grid step.  Averaging
    the count over `offsets` shifted box origins removes most of the
    alignment quantization that a single anchor suffers at coarse scales.
    """
    factor = max(int(round(scale / R.grid.h)), 1)
    multi = np.stack(np.unravel_index(R.cells, (R.grid.m,) * R.grid.n), axis=1)
    mc = R.grid.m // factor + 2
    total = 0.0
    for t in range(offsets):
        shift = (t * factor) // offsets
        coarse = (multi + shift) // factor
        total += float(np.unique(np.ravel_multi_index(coarse.T, (mc,) * R.grid.n)).size)
    return total / offsets


def box_counting_dim(R: Region, scales, offsets: int = 1) -> ExponentFit:
    """Slope of log covering count against log(1/scale) over the given scales."""
    scales = [float(s) for s in scales]
    if any(not R.grid.h <= s <= 2 * R.grid.extent for s in scales):
        raise GeometryError("scales must lie between the grid step and the grid size")
    eff, counts = [], []
    for s in scales:
        factor = max(int(round(s / R.grid.h)), 1)
        e = factor * R.grid.h
        if eff and abs(e - eff[-1]) < 1e-15:
            continue
        eff.append(e)
        counts.append(box_counts(R, s, offsets=offsets))
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
    on the grid and is re-checked here; lower/upper_bound_value are the two
    scale-power displays it is compared against (with the epsilon losses set
    to zero), and exponent_deficit is the measured box dimension minus d+beta.
    """

    lower_bound_value: float
    upper_bound_value: float
    exponent_deficit: float
    mass_lhs: float
    holder_rhs: float
    norm_p: float
    region_volume: float
    dim_fit: float
    chain_holds: bool


def holder_comparison(F: TubeFamily, G: Grid, p: float) -> HolderReport:
    """Evaluate the duality chain for the family's own exponent p = (d+b)/(d+b-1)."""
    if F.beta <= 0:
        raise ValueError("beta must be positive; replace d by d-1 and beta by 1")
    if abs(p - F.p) > 1e-9:
        raise ValueError(f"p must equal (d+beta)/(d+beta-1) = {F.p}, got {p}")
    G.check_resolves(F)
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
    delta, n, d, beta = F.delta, F.n, F.d, F.beta
    lower = delta ** (n - 2.0 * d + 1.0 - beta) * delta ** (-(n - dim_fit) / p_prime)
    upper = delta ** ((1.0 - d) / p_prime + (n + 1.0 - 2.0 * d - beta) / p)
    return HolderReport(
        lower_bound_value=float(lower),
        upper_bound_value=float(upper),
        exponent_deficit=float(dim_fit - (d + beta)),
        mass_lhs=mass_lhs,
        holder_rhs=float(holder_rhs),
        norm_p=norm_p,
        region_volume=region_volume,
        dim_fit=float(dim_fit),
        chain_holds=bool(chain_holds),
    )


def exponent_fit_norms(spec: GeneratorSpec, scales, p: float, grid_factor: int = 4) -> ExponentFit:
    """Fit the scale exponent of ||sum chi_T||_p / (sum |T|)^(1/p).

    One family is regenerated per scale from the generator description; the slope is the
    exponent e in value ~ C * delta^e.  Families satisfying the ball
    condition obey e >= (1-d)/p' up to desk-scale noise, with equality for
    the parallel-plane configuration.
    """
    scales = [float(s) for s in scales]
    if len(scales) < 3:
        raise GeometryError("an exponent fit needs at least 3 scales")
    values = []
    for s in scales:
        fam = family_for_norms(replace(spec, delta=s))
        G = Grid.for_family(fam, factor=grid_factor)
        norm = FamilyRaster.build(fam, G).lp_norm(p)
        values.append(norm / fam.sum_volume() ** (1.0 / p))
    return ExponentFit(scales, values)
