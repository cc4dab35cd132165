"""Extremal and random tube-family generators.

- lines inside a Cantor-type union of parallel d-planes (the configuration
  that saturates both the non-concentration condition and the norm bound),
- rejection-sampled random families satisfying the ball condition,
- bushes through the origin,
- axis-parallel crossing families.

Every generator is a deterministic function of its arguments, the random
sampler through its seed; rejection sampling is sequential by design, so
its output depends on the draw order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concentration import BallNet, IncrementalBallCounter
from .functionals import TubeFamily
from .linegeom import (
    Direction, GeometryError, Line, SphereNet, Tube, build_cap_cover, complete_orthonormal, lattice_points,
)

#: Transverse span occupied by generated configurations, chosen so that unit
#: segments stay inside B(0,1).
SPAN = 0.7

#: Rejection sampling draws at most this multiple of the target count.
STALL_FACTOR = 50

def cantor_offsets(beta: float, delta: float) -> np.ndarray:
    """Left endpoints of the level-m intervals of a middle-interval Cantor set.

    The contraction ratio is 2^(-1/beta), so the set has 2^m ~= delta^(-beta)
    intervals of length ~= delta: its covering number at scale delta is
    delta^(-beta) up to a factor of 2.  beta = 1 degenerates to the full
    dyadic grid.  The level is rounded down so the interval count never
    exceeds delta^(-beta), keeping generated families inside the
    cardinality budget of the norm computations.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"Cantor scale must lie in (0, 1/2], got {delta}")
    c = 2.0 ** (-1.0 / beta)
    m = max(int(math.floor(beta * math.log2(1.0 / delta) + 1e-9)), 1)
    offsets = np.array([0.0])
    for _ in range(m):
        offsets = np.concatenate([offsets * c, 1.0 - c + offsets * c])
    return np.sort(offsets)


def gen_lines_in_planes(
    n: int, d: int, beta: float, delta: float, size_cap: int = 200_000
) -> TubeFamily:
    """Lines inside delta^(-beta) parallel d-planes with Cantor-type offsets.

    Planes are translates of span{e_1..e_d} along e_(d+1); within each plane
    the lines form a delta-net of directions and foot points, giving
    ~delta^(-2(d-1)) lines per plane and ~delta^(-2(d-1)-beta) tubes total.
    Deterministic.
    """
    if not (1 <= d < n):
        raise GeometryError(f"need 1 <= d < n, got d={d}, n={n}")
    offsets = (cantor_offsets(beta, delta) - 0.5) * SPAN

    if d == 1:
        plane_dirs = np.array([[1.0] + [0.0] * (d - 1)])
    else:
        # ~delta^-(d-1) unoriented directions on the plane's sphere, spacing ~ delta.
        plane_dirs = build_cap_cover(d, max(delta * math.pi / 2.0, 1e-6)).center_matrix

    feet_1d = np.arange(-SPAN / 2.0, SPAN / 2.0 + 1e-12, delta)
    expected = len(offsets) * len(plane_dirs) * len(feet_1d) ** (d - 1)
    if expected > size_cap:
        raise GeometryError(
            f"planes generator would produce ~{expected} tubes (cap {size_cap}); "
            "use a larger delta"
        )

    foot_grid = lattice_points(feet_1d, d - 1)
    tubes: list[Tube] = []
    for u_plane in plane_dirs:
        direction = np.zeros(n)
        direction[:d] = u_plane
        foot_basis = np.zeros((d - 1, n))
        foot_basis[:, :d] = complete_orthonormal(u_plane[None], d)[1:]  # (d-1, d)
        for off in offsets:
            base = np.zeros(n)
            base[d] = off
            for coeffs in foot_grid:
                tubes.append(Tube(base + coeffs @ foot_basis, direction, delta))
    return TubeFamily(tubes, delta, n, d, beta)


@dataclass(frozen=True)
class RandomFamilyResult:
    family: TubeFamily
    complete: bool
    draws: int


class IncompleteFamilyError(RuntimeError):
    """A rejection-sampled family stopped short of its target count."""


def complete_family(res: RandomFamilyResult, source: str, seed: int) -> TubeFamily:
    """The sampled family, or IncompleteFamilyError naming `source` if it is partial."""
    if not res.complete:
        raise IncompleteFamilyError(
            f"{source}: random family at delta={res.family.delta}, seed={seed} "
            f"reached {len(res.family)} tubes after {res.draws} draws, short of "
            f"its target; no partial family is used"
        )
    return res.family


def gen_random_nonconcentrated(
    n: int,
    d: int,
    beta: float,
    delta: float,
    seed: int = 0,
    size_cap: int = 200_000,
) -> RandomFamilyResult:
    """Rejection-sample uniform random lines subject to the ball condition.

    Each candidate is accepted only if adding it keeps every net-ball count
    within (r/delta)^(2(d-1)+beta).  Stops at delta^(2(1-d)-beta) tubes or
    after a stall budget of 50x that many draws (partial family flagged).
    """
    target = int(round(delta ** (2.0 * (1 - d) - beta)))
    if target > size_cap:
        raise GeometryError(f"target count {target} exceeds cap {size_cap}; use a larger delta")
    counter = IncrementalBallCounter(BallNet.build(n, delta), delta, d, beta)
    rng = np.random.default_rng(seed)
    tubes: list[Tube] = []
    draws = 0
    max_foot = math.sqrt(3.0) / 2.0  # keeps unit segments inside B(0,1)
    while len(tubes) < target and draws < STALL_FACTOR * target:
        draws += 1
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        q = complete_orthonormal(u[None], n)[1:]
        y = rng.normal(size=n - 1)
        norm = np.linalg.norm(y)
        radius = max_foot * rng.random() ** (1.0 / (n - 1))
        foot = q.T @ (y / norm * radius) if norm > 0 else np.zeros(n)
        line = Line(Direction(u), foot)
        if counter.try_add(line):
            tubes.append(Tube(line.x, line.u, delta))
    family = TubeFamily(tubes, delta, n, d, beta)
    return RandomFamilyResult(family, complete=len(tubes) >= target, draws=draws)


def gen_bush(n: int, delta: float, count: int) -> TubeFamily:
    """Tubes through the origin with angularly separated directions.

    The first min(count, n) directions are the standard basis; further
    directions come from a ring net, greedily thinned for separation.
    """
    if count < 1:
        raise GeometryError("bush needs at least one tube")
    chosen: list[np.ndarray] = [np.eye(n)[i] for i in range(min(count, n))]
    alpha = 1.0
    while len(chosen) < count:
        alpha /= 2.0
        if alpha < 1e-3:
            raise GeometryError(f"cannot place {count} separated directions in R^{n}")
        cands = SphereNet(n, alpha).rows
        chosen = [np.eye(n)[i] for i in range(min(count, n))]
        for u in cands:
            if len(chosen) >= count:
                break
            dots = np.abs(np.stack(chosen) @ u)
            if float(dots.max()) <= math.cos(alpha / 2.0):
                chosen.append(u)
    tubes = [Tube(np.zeros(n), Direction(u), delta) for u in chosen[:count]]
    return TubeFamily(tubes, delta, n, 1, 1.0)


def gen_axes(n: int, k: int, delta: float, per_family_count: int) -> list[TubeFamily]:
    """k families, family i parallel to e_i, on a lattice of foot points."""
    if not 2 <= k <= n:
        raise GeometryError(f"need 2 <= k <= n, got k={k}, n={n}")
    if per_family_count < 1:
        raise GeometryError("need at least one tube per family")
    m = max(int(math.ceil(per_family_count ** (1.0 / (n - 1)))), 1)
    spacing = 2.0 * 0.3 / max(m - 1, 1)
    coords = (np.arange(m) - (m - 1) / 2.0) * (spacing if m > 1 else 1.0)
    lattice = lattice_points(coords, n - 1)[:per_family_count]
    families = []
    for i in range(k):
        other = [ax for ax in range(n) if ax != i]
        tubes = []
        for row in lattice:
            c = np.zeros(n)
            c[other] = row
            tubes.append(Tube(c, Direction(np.eye(n)[i]), delta))
        families.append(TubeFamily(tubes, delta, n, 1, 1.0))
    return families
