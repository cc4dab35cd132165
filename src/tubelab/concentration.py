"""Non-concentration on line space: ball nets, ball-condition scans, thinning.

The ball condition caps how many tube axes may cluster in any r-ball of line
space: at most (r/delta)^(2(d-1)+beta).  "The line lies in the ball" is read
as metric membership d(line, center) <= r, which is the formal meaning of
containment for a point of line space.

Net balls are centered on a product lattice: per radius r, directions from
the ring-lattice `linegeom.SphereNet` at angular resolution r/4 and foot
points on an (r/2)-grid of each direction's orthogonal hyperplane.  Any line
meeting the unit ball is then within r of some center.  Only centers near
the query lines are ever materialized; balls away from every line are empty
and cannot attain the maximum of any scan.  Every membership test, in scans
and in incremental counts alike, compares the same array distances with
r + 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linegeom import Direction, GeometryError, Line, SphereNet


class ThinningError(RuntimeError):
    """Random thinning failed on every retry; carries the worst ball seen."""

    def __init__(self, message: str, worst_ball=None):
        super().__init__(message)
        self.worst_ball = worst_ball


def concentration_exponent(d: int, beta: float) -> float:
    return 2.0 * (d - 1) + beta


def _line_arrays(lines) -> tuple[np.ndarray, np.ndarray]:
    feet = np.stack([l.x for l in lines])
    dirs = np.stack([l.u.u for l in lines])
    return feet, dirs


def _pair_distances(feet_a, dirs_a, feet_b, dirs_b) -> np.ndarray:
    """Distance matrix |x - x'| + wedge between two sets of lines."""
    diff = feet_a[:, None, :] - feet_b[None, :, :]
    foot = np.linalg.norm(diff, axis=2)
    dots = np.clip(np.abs(dirs_a @ dirs_b.T), 0.0, 1.0)
    wedge = np.sqrt(np.clip(1.0 - dots**2, 0.0, 1.0))
    return foot + wedge


# ---------------------------------------------------------------------------
# ball nets
# ---------------------------------------------------------------------------


@dataclass
class BallNet:
    """Per-radius nets of balls on line space, materialized near the data.

    For each dyadic radius r in [delta, 1], centers are lines with direction
    from a `SphereNet` at angular resolution r/4 and foot on an (r/2)-grid of
    the direction's orthogonal hyperplane.  Every line meeting B(0,1) is
    within r of some center, and no line lies in more than `overlap_bound`
    balls of one radius.
    """

    n: int
    delta: float
    radii: tuple[float, ...]
    overlap_bound: int
    _nets: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, n: int, delta: float) -> "BallNet":
        radii = []
        r = float(delta)
        while r < 1.0 - 1e-12:
            radii.append(r)
            r *= 2.0
        radii.append(1.0)
        bound = {2: 400, 3: 20000}.get(n, 10 ** (2 * n))
        return cls(n=int(n), delta=float(delta), radii=tuple(radii), overlap_bound=bound)

    def _net(self, r: float) -> SphereNet:
        if r not in self._nets:
            net = SphereNet(self.n, r / 4.0)
            if self.n >= 4 and len(net) > 2_000_000:
                raise MemoryError("direction net too large at this resolution")
            self._nets[r] = net
        return self._nets[r]

    def candidate_keys(self, r: float, feet: np.ndarray, dirs: np.ndarray) -> dict:
        """All net centers within r of at least one of the given lines.

        Returns {key: (w_idx, j_tuple)}; keys are unique lattice coordinates.
        """
        net = self._net(r)
        g = r / 2.0
        out: dict[tuple, tuple] = {}
        max_angle = math.asin(min(r, 1.0)) if r < 1.0 else math.pi / 2.0
        dir_cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        for x, u in zip(feet, dirs):
            ukey = u.tobytes()
            hit = dir_cache.get(ukey)
            if hit is None:
                cands = net.within(u, max_angle)
                wmat = net.rows[cands]
                wedges = np.sqrt(
                    np.clip(1.0 - np.clip(np.abs(wmat @ u), 0, 1) ** 2, 0.0, 1.0)
                )
                hit = (cands, wedges)
                dir_cache[ukey] = hit
            cands, wedges = hit
            if cands.size == 0:
                continue
            for wi, wedge in zip(cands, wedges):
                budget = r - float(wedge)
                if budget < -1e-12:
                    continue
                Q = net.complement(int(wi))
                y = Q @ x
                los = np.ceil((y - budget) / g - 1e-9).astype(np.int64)
                his = np.floor((y + budget) / g + 1e-9).astype(np.int64)
                if np.any(his < los):
                    continue
                ranges = [np.arange(lo, hi + 1) for lo, hi in zip(los, his)]
                mesh = np.meshgrid(*ranges, indexing="ij") if ranges else []
                js = (
                    np.stack([m.ravel() for m in mesh], axis=1)
                    if mesh
                    else np.zeros((1, 0), dtype=np.int64)
                )
                for j in js:
                    key = (r, int(wi)) + tuple(int(v) for v in j)
                    if key not in out:
                        out[key] = (int(wi), tuple(int(v) for v in j))
        return out

    def _centers(self, r: float, pairs) -> tuple[np.ndarray, np.ndarray]:
        """Foot and direction arrays of the centers named by (w_idx, j) pairs."""
        net = self._net(r)
        g = r / 2.0
        feet = np.empty((len(pairs), self.n))
        for i, (wi, j) in enumerate(pairs):
            feet[i] = net.complement(wi).T @ (np.asarray(j, dtype=float) * g)
        return feet, net.rows[np.fromiter((wi for wi, _ in pairs), np.int64, len(pairs))]

    def _distances(self, r: float, line: Line) -> tuple[list, np.ndarray]:
        """Keys of the candidate centers near one line and the line's distance to each."""
        feet, dirs = _line_arrays([line])
        keys = self.candidate_keys(r, feet, dirs)
        dist = _pair_distances(*self._centers(r, list(keys.values())), feet, dirs)[:, 0]
        return list(keys), dist

    def center_line(self, r: float, w_idx: int, j: tuple) -> Line:
        feet, dirs = self._centers(r, [(w_idx, j)])
        return Line(Direction(dirs[0]), feet[0])

    def scan(self, r: float, feet: np.ndarray, dirs: np.ndarray) -> tuple[float, tuple | None]:
        """Max over net balls of radius r of the line count.

        Returns (max value, key of the attaining ball).
        """
        keys = self.candidate_keys(r, feet, dirs)
        if not keys:
            return 0.0, None
        best, best_key = -1.0, None
        items = list(keys.items())
        chunk = max(1, 4_000_000 // max(len(feet), 1))
        for start in range(0, len(items), chunk):
            part = items[start : start + chunk]
            centers, wdirs = self._centers(r, [pair for _, pair in part])
            dist = _pair_distances(centers, wdirs, feet, dirs)
            vals = (dist <= r + 1e-12).sum(axis=1).astype(float)
            i_best = int(np.argmax(vals))
            if float(vals[i_best]) > best:
                best = float(vals[i_best])
                best_key = part[i_best][0]
        return best, best_key

    def nearest_center_distance(self, r: float, line: Line) -> float:
        """Distance from a line to its nearest net center at radius r (coverage probe)."""
        _, dist = self._distances(r, line)
        return float(dist.min()) if dist.size else math.inf

    def balls_containing(self, r: float, line: Line) -> int:
        """Number of net balls of radius r containing the line (overlap probe)."""
        _, dist = self._distances(r, line)
        return int(np.count_nonzero(dist <= r + 1e-12))


# ---------------------------------------------------------------------------
# ball-condition scans
# ---------------------------------------------------------------------------


def ball_condition_worst_ratio(F, net: BallNet) -> float:
    """Max over net balls of (#axes in the ball) / (r/delta)^(2(d-1)+beta).

    A value <= 1 certifies the non-concentration condition over the net.
    """
    if len(F.tubes) == 0:
        raise GeometryError("ball condition needs a non-empty family")
    lines = F.lines()
    return worst_ratio_of_lines(lines, F.delta, F.d, F.beta, net)


def worst_ratio_of_lines(lines, delta: float, d: int, beta: float, net: BallNet) -> float:
    s = concentration_exponent(d, beta)
    feet, dirs = _line_arrays(lines)
    worst = 0.0
    for r in net.radii:
        count, _ = net.scan(r, feet, dirs)
        worst = max(worst, count / (r / delta) ** s)
    return worst


def check_ball_condition(
    lines, delta: float, d: int, beta: float, net: BallNet
) -> tuple[bool, tuple | None]:
    """Verify count <= (r/delta)^s for every net ball; radii whose bound
    exceeds the number of lines cannot fail and are skipped.

    Returns (ok, (radius, key, count, bound)) with the worst violation if any.
    """
    s = concentration_exponent(d, beta)
    feet, dirs = _line_arrays(lines)
    n_lines = len(lines)
    worst = None
    worst_excess = 1.0
    for r in net.radii:
        bound = (r / delta) ** s
        if bound >= n_lines:
            continue
        count, key = net.scan(r, feet, dirs)
        if count > bound * (1.0 + 1e-12) and count / bound > worst_excess:
            worst_excess = count / bound
            worst = (r, key, count, bound)
    return worst is None, worst


class IncrementalBallCounter:
    """Exact per-ball counts maintained under insertion.

    Used by rejection sampling: adding a line touches exactly the net balls
    containing it, so the updated counts are the only ones that can newly
    violate a threshold.
    """

    def __init__(self, net: BallNet, delta: float, d: int, beta: float):
        self.net = net
        self.s = concentration_exponent(d, beta)
        self.delta = delta
        self.counts: dict[tuple, int] = {}

    def _containing_keys(self, line: Line) -> list[tuple]:
        found = []
        for r in self.net.radii:
            keys, dist = self.net._distances(r, line)
            found += [key for key, inside in zip(keys, dist <= r + 1e-12) if inside]
        return found

    def try_add(self, line: Line) -> bool:
        """Add the line if every touched ball stays within its bound."""
        keys = self._containing_keys(line)
        for key in keys:
            r = key[0]
            if self.counts.get(key, 0) + 1 > (r / self.delta) ** self.s * (1.0 + 1e-12):
                return False
        for key in keys:
            self.counts[key] = self.counts.get(key, 0) + 1
        return True


@dataclass(frozen=True)
class ThinningResult:
    lines: tuple[Line, ...]
    attempts: int
    probability: float


def random_thin(
    L3,
    A: float,
    C0: float,
    eps: float,
    delta: float,
    seed: int,
    net: BallNet,
    d: int,
    beta: float,
    max_attempts: int = 32,
) -> ThinningResult:
    """Keep each line independently with probability delta^(2 eps)/(C0 A).

    The sample must retain at least half its expected size and satisfy the
    non-concentration ball condition over the net; up to `max_attempts`
    seeds derived from the base seed are tried.
    """
    L3 = list(L3)
    q = delta ** (2.0 * eps) / (C0 * A)
    if not 0.0 < q <= 1.0 + 1e-12:
        raise ValueError(f"selection probability {q} outside (0, 1]")
    q = min(q, 1.0)
    worst_seen = None
    for attempt in range(max_attempts):
        rng = np.random.default_rng([int(seed), attempt])
        mask = rng.random(len(L3)) < q
        kept = [l for l, m in zip(L3, mask) if m]
        if 2 * len(kept) < q * len(L3):
            continue
        if not kept:
            continue
        ok, worst = check_ball_condition(kept, delta, d, beta, net)
        if ok:
            return ThinningResult(tuple(kept), attempt + 1, q)
        worst_seen = worst
    raise ThinningError(
        f"thinning failed on {max_attempts} attempts (q={q:.4g}, N={len(L3)})",
        worst_ball=worst_seen,
    )
