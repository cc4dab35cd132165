"""Extremal and random tube-family generators.

- lines inside a Cantor-type union of parallel d-planes (the configuration
  that saturates both the non-concentration condition and the norm bound),
- rejection-sampled random families satisfying the ball condition,
- bushes through a common point,
- axis-parallel crossing families.

Every generator is reproducible from (spec, seed); rejection sampling is
sequential by design, so outputs depend on the draw order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .concentration import BallNet, IncrementalBallCounter
from .functionals import TubeFamily
from .linegeom import Direction, GeometryError, Line, Tube, _sphere_net, complete_orthonormal

#: Transverse span occupied by generated configurations, chosen so that unit
#: segments stay inside B(0,1).
SPAN = 0.7

#: Rejection sampling draws at most this multiple of the target count.
STALL_FACTOR = 50

GENERATOR_KINDS = ("planes", "random-nonconcentrated", "bush", "axes")


@dataclass(frozen=True)
class GeneratorSpec:
    """Serializable description of a generated configuration."""

    kind: str
    n: int
    delta: float
    d: int = 1
    beta: float = 1.0
    seed: int = 0
    size_cap: int = 200_000
    k: int = 2  # axes: number of families
    count: int = 8  # bush: tubes; axes: tubes per family

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not (1 <= self.d < self.n):
            raise ValueError(f"need 1 <= d < n, got d={self.d}, n={self.n}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if not 0.0 < self.delta <= 0.5:
            raise ValueError(f"delta must lie in (0, 1/2], got {self.delta}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorSpec":
        return cls(**data)


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
    c = 2.0 ** (-1.0 / beta)
    m = max(int(math.floor(beta * math.log2(1.0 / delta) + 1e-9)), 1)
    offsets = np.array([0.0])
    for _ in range(m):
        offsets = np.concatenate([offsets * c, 1.0 - c + offsets * c])
    return np.sort(offsets)


def _tube_on_line(foot: np.ndarray, direction: np.ndarray, delta: float) -> Tube:
    return Tube(foot, Direction(direction), delta)


def gen_lines_in_planes(
    n: int, d: int, beta: float, delta: float, seed: int = 0, size_cap: int = 200_000
) -> TubeFamily:
    """Lines inside delta^(-beta) parallel d-planes with Cantor-type offsets.

    Planes are translates of span{e_1..e_d} along e_(d+1); within each plane
    the lines form a delta-net of directions and foot points, giving
    ~delta^(-2(d-1)) lines per plane and ~delta^(-2(d-1)-beta) tubes total.
    Deterministic; the seed is accepted for interface uniformity.
    """
    if not (1 <= d < n):
        raise GeometryError(f"need 1 <= d < n, got d={d}, n={n}")
    offsets = (cantor_offsets(beta, delta) - 0.5) * SPAN

    if d == 1:
        plane_dirs = np.array([[1.0] + [0.0] * (d - 1)])
    else:
        # ~delta^-(d-1) directions on the plane's sphere, spacing ~ delta.
        plane_dirs = _sphere_net(d, max(delta * math.pi / 2.0, 1e-6))
        # Unoriented dedupe: keep one of each antipodal pair.
        keep = []
        seen = set()
        for u in plane_dirs:
            key = tuple(np.round(np.where(np.abs(u) > 1e-9, u * np.sign(u[np.argmax(np.abs(u) > 1e-9)]), u), 9))
            if key not in seen:
                seen.add(key)
                keep.append(u)
        plane_dirs = np.stack(keep)

    feet_1d = np.arange(-SPAN / 2.0, SPAN / 2.0 + 1e-12, delta)
    expected = len(offsets) * len(plane_dirs) * len(feet_1d) ** (d - 1)
    if expected > size_cap:
        raise GeometryError(
            f"planes generator would produce ~{expected} tubes (cap {size_cap}); "
            "use a larger delta"
        )

    tubes: list[Tube] = []
    for u_plane in plane_dirs:
        direction = np.zeros(n)
        direction[:d] = u_plane
        if d == 1:
            foot_basis = np.zeros((0, n))
        else:
            in_plane = complete_orthonormal(u_plane[None], d)[1:]  # (d-1, d)
            foot_basis = np.zeros((d - 1, n))
            foot_basis[:, :d] = in_plane
        if d == 1:
            foot_grid = np.zeros((1, 0))
        else:
            mesh = np.meshgrid(*([feet_1d] * (d - 1)), indexing="ij")
            foot_grid = np.stack([g.ravel() for g in mesh], axis=1)
        for off in offsets:
            base = np.zeros(n)
            base[d] = off
            for coeffs in foot_grid:
                foot = base + (coeffs @ foot_basis if coeffs.size else 0.0)
                tubes.append(_tube_on_line(foot, direction, delta))
    return TubeFamily(tubes, delta, n, d, beta)


@dataclass(frozen=True)
class RandomFamilyResult:
    family: TubeFamily
    complete: bool
    draws: int


def gen_random_nonconcentrated(
    n: int,
    d: int,
    beta: float,
    delta: float,
    seed: int = 0,
    size_cap: int = 200_000,
    net: BallNet | None = None,
) -> RandomFamilyResult:
    """Rejection-sample uniform random lines subject to the ball condition.

    Each candidate is accepted only if adding it keeps every net-ball count
    within (r/delta)^(2(d-1)+beta).  Stops at delta^(2(1-d)-beta) tubes or
    after a stall budget of 50x that many draws (partial family flagged).
    """
    target = int(round(delta ** (2.0 * (1 - d) - beta)))
    if target > size_cap:
        raise GeometryError(f"target count {target} exceeds cap {size_cap}; use a larger delta")
    if net is None:
        net = BallNet.build(n, delta)
    counter = IncrementalBallCounter(net, delta, d, beta)
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


def gen_bush(n: int, delta: float, count: int, center=None) -> TubeFamily:
    """Tubes through a common point with angularly separated directions.

    The first min(count, n) directions are the standard basis; further
    directions come from a ring net, greedily thinned for separation.
    """
    if count < 1:
        raise GeometryError("bush needs at least one tube")
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    if float(np.linalg.norm(center)) > 0.5 - delta:
        raise GeometryError("bush center too far from the origin for unit tubes in B(0,1)")
    chosen: list[np.ndarray] = [np.eye(n)[i] for i in range(min(count, n))]
    alpha = 1.0
    while len(chosen) < count:
        alpha /= 2.0
        if alpha < 1e-3:
            raise GeometryError(f"cannot place {count} separated directions in R^{n}")
        cands = _sphere_net(n, alpha)
        chosen = [np.eye(n)[i] for i in range(min(count, n))]
        for u in cands:
            if len(chosen) >= count:
                break
            dots = np.abs(np.stack(chosen) @ u)
            if float(dots.max()) <= math.cos(alpha / 2.0):
                chosen.append(u)
    tubes = [Tube(center, Direction(u), delta) for u in chosen[:count]]
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
    mesh = np.meshgrid(*([coords] * (n - 1)), indexing="ij")
    lattice = np.stack([g.ravel() for g in mesh], axis=1)[:per_family_count]
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


def generate(spec: GeneratorSpec):
    """Dispatch a GeneratorSpec.

    Returns a TubeFamily for 'planes' and 'bush', a RandomFamilyResult for
    'random-nonconcentrated', and a list of TubeFamily for 'axes'.
    """
    if spec.kind == "planes":
        return gen_lines_in_planes(spec.n, spec.d, spec.beta, spec.delta, spec.seed, spec.size_cap)
    if spec.kind == "random-nonconcentrated":
        return gen_random_nonconcentrated(
            spec.n, spec.d, spec.beta, spec.delta, spec.seed, spec.size_cap
        )
    if spec.kind == "bush":
        return gen_bush(spec.n, spec.delta, spec.count)
    if spec.kind == "axes":
        return gen_axes(spec.n, spec.k, spec.delta, spec.count)
    raise ValueError(f"unknown generator kind {spec.kind!r}")


def family_for_norms(spec: GeneratorSpec) -> TubeFamily:
    """The single family a spec denotes for norm evaluation.

    Axes families are merged into one; random families are unwrapped.
    """
    out = generate(spec)
    if spec.kind == "axes":
        tubes = [t for fam in out for t in fam.tubes]
        return TubeFamily(tubes, spec.delta, spec.n, spec.d, spec.beta)
    if spec.kind == "random-nonconcentrated":
        return out.family
    return out
