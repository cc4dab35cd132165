"""Non-concentration on line space: ball nets, Frostman constants, thinning.

The ball condition caps how many tube axes may cluster in any r-ball of line
space: at most (r/delta)^(2(d-1)+beta).  "The line lies in the ball" is read
as metric membership d(line, center) <= r, which is the formal meaning of
containment for a point of line space.

Net balls are centered on a product lattice: per radius r, directions from a
ring-lattice cover at angular resolution r/4 and foot points on an
(r/2)-grid of each direction's orthogonal hyperplane.  Any line meeting the
unit ball is then within r of some center.  Only centers near the query
lines are ever materialized; balls away from every line are empty and
cannot attain the maximum of any scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .linegeom import Direction, GeometryError, Line, complete_orthonormal, line_metric

_RING_SPACING = 0.7  # polar ring spacing as a fraction of the target angle
_RING_RES = 0.6  # in-ring resolution as a fraction of the target angle


class ThinningError(RuntimeError):
    """Random thinning failed on every retry; carries the worst ball seen."""

    def __init__(self, message: str, worst_ball=None):
        super().__init__(message)
        self.worst_ball = worst_ball


@dataclass
class WeightedLineSet:
    """Finitely many lines with probability weights and recorded constants."""

    lines: list[Line]
    weights: np.ndarray
    d: int
    beta: float
    eps: float = 0.0
    C0: float | None = None

    def __init__(self, lines, weights, d: int, beta: float, eps: float = 0.0, C0=None):
        lines = list(lines)
        w = np.asarray(weights, dtype=float)
        if len(lines) != w.shape[0] or len(lines) == 0:
            raise GeometryError("need one weight per line and at least one line")
        if np.any(w < 0):
            raise GeometryError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > TOL.weight_sum:
            raise GeometryError(f"weights must sum to 1, got {float(w.sum())}")
        self.lines = lines
        self.weights = w
        self.d = int(d)
        self.beta = float(beta)
        self.eps = float(eps)
        self.C0 = C0

    @property
    def exponent(self) -> float:
        """Frostman exponent s = 2(d-1) + beta - eps."""
        return 2.0 * (self.d - 1) + self.beta - self.eps


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
# ring-lattice direction net with windowed neighbor queries
# ---------------------------------------------------------------------------


class _DirectionNet:
    """Oriented ring-lattice net on S^(n-1) at angular resolution alpha.

    Supports windowed queries for the centers within a given unoriented
    angle of a query vector (closed form for n = 2, 3; brute force above).
    """

    def __init__(self, n: int, alpha: float):
        self.n = n
        self.alpha = float(alpha)
        if n == 2:
            m = max(int(math.ceil(math.pi / alpha)), 1)
            self.count = m
            self.spacing = 2.0 * math.pi / m
            phis = (np.arange(m) + 0.5) * self.spacing
            self.matrix = np.stack([np.cos(phis), np.sin(phis)], axis=1)
        elif n == 3:
            d_theta = _RING_SPACING * alpha
            K = max(int(math.ceil(math.pi / d_theta)), 1)
            self.ring_theta = (np.arange(K) + 0.5) * math.pi / K
            counts = []
            for th in self.ring_theta:
                s = math.sin(th)
                if math.pi * s <= _RING_RES * alpha:
                    counts.append(1)
                else:
                    counts.append(max(int(math.ceil(math.pi * s / (_RING_RES * alpha))), 1))
            self.ring_count = np.array(counts, dtype=np.int64)
            self.ring_offset = np.concatenate([[0], np.cumsum(self.ring_count)])
            self.count = int(self.ring_offset[-1])
            rows = np.empty((self.count, 3))
            for k, th in enumerate(self.ring_theta):
                mk = int(self.ring_count[k])
                phis = (np.arange(mk) + 0.5) * (2.0 * math.pi / mk)
                o = int(self.ring_offset[k])
                rows[o : o + mk, 0] = math.sin(th) * np.cos(phis)
                rows[o : o + mk, 1] = math.sin(th) * np.sin(phis)
                rows[o : o + mk, 2] = math.cos(th)
            self.matrix = rows
        else:
            from .linegeom import _sphere_net

            self.matrix = _sphere_net(n, alpha)
            self.count = self.matrix.shape[0]
            if self.count > 2_000_000:
                raise MemoryError("direction net too large at this resolution")

    def within(self, u: np.ndarray, angle: float) -> np.ndarray:
        """Indices of centers whose unoriented angle to u is <= angle."""
        angle = min(angle, math.pi / 2.0)
        cos_bound = math.cos(min(angle + 1e-12, math.pi / 2.0))
        if self.n == 2:
            phi = math.atan2(u[1], u[0])
            idx = []
            for target in (phi, phi + math.pi):
                lo = int(math.ceil((target - angle) / self.spacing - 0.5 - 1e-9))
                hi = int(math.floor((target + angle) / self.spacing - 0.5 + 1e-9))
                idx.extend(range(lo, hi + 1))
            cand = np.unique(np.mod(np.array(idx, dtype=np.int64), self.count))
        elif self.n == 3:
            theta_u = math.acos(max(-1.0, min(1.0, float(u[2]))))
            phi_u = math.atan2(float(u[1]), float(u[0]))
            half_ring = 0.5 * math.pi / len(self.ring_theta)
            cand_list = []
            for target_theta, target_phi in (
                (theta_u, phi_u),
                (math.pi - theta_u, phi_u + math.pi),
            ):
                kmask = np.abs(self.ring_theta - target_theta) <= angle + half_ring + 1e-9
                for k in np.nonzero(kmask)[0]:
                    mk = int(self.ring_count[k])
                    o = int(self.ring_offset[k])
                    if mk <= 8:
                        cand_list.append(np.arange(o, o + mk))
                        continue
                    st, su = math.sin(self.ring_theta[k]), math.sin(target_theta)
                    ct, cu = math.cos(self.ring_theta[k]), math.cos(target_theta)
                    denom = st * su
                    if denom <= 1e-12:
                        cand_list.append(np.arange(o, o + mk))
                        continue
                    c = (math.cos(angle) - ct * cu) / denom
                    if c <= -1.0:
                        cand_list.append(np.arange(o, o + mk))
                        continue
                    if c >= 1.0:
                        dphi = 0.0
                    else:
                        dphi = math.acos(c)
                    sp = 2.0 * math.pi / mk
                    lo = int(math.ceil((target_phi - dphi) / sp - 0.5 - 1e-9)) - 1
                    hi = int(math.floor((target_phi + dphi) / sp - 0.5 + 1e-9)) + 1
                    cand_list.append(o + np.mod(np.arange(lo, hi + 1, dtype=np.int64), mk))
            cand = (
                np.unique(np.concatenate(cand_list)) if cand_list else np.empty(0, np.int64)
            )
        else:
            dots = np.abs(self.matrix @ u)
            return np.nonzero(dots >= cos_bound)[0]
        if cand.size == 0:
            return cand
        dots = np.abs(self.matrix[cand] @ u)
        return cand[dots >= cos_bound]


# ---------------------------------------------------------------------------
# ball nets
# ---------------------------------------------------------------------------


@dataclass
class BallNet:
    """Per-radius nets of balls on line space, materialized near the data.

    For each dyadic radius r in [delta, 1], centers are lines with direction
    from a ring net at angular resolution r/4 and foot on an (r/2)-grid of
    the direction's orthogonal hyperplane.  Every line meeting B(0,1) is
    within r of some center, and no line lies in more than `overlap_bound`
    balls of one radius.
    """

    n: int
    delta: float
    radii: tuple[float, ...]
    overlap_bound: int
    _nets: dict = field(default_factory=dict, repr=False)
    _bases: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, n: int, delta: float, radii=None) -> "BallNet":
        if radii is None:
            radii = []
            r = float(delta)
            while r < 1.0 - 1e-12:
                radii.append(r)
                r *= 2.0
            radii.append(1.0)
        bound = {2: 400, 3: 20000}.get(n, 10 ** (2 * n))
        return cls(n=int(n), delta=float(delta), radii=tuple(radii), overlap_bound=bound)

    def _net(self, r: float) -> _DirectionNet:
        if r not in self._nets:
            self._nets[r] = _DirectionNet(self.n, r / 4.0)
        return self._nets[r]

    def _basis(self, r: float, w_idx: int) -> np.ndarray:
        key = (r, w_idx)
        if key not in self._bases:
            self._bases[key] = complete_orthonormal(self._net(r).matrix[w_idx][None], self.n)[1:]
        return self._bases[key]

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
                wmat = net.matrix[cands]
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
                Q = self._basis(r, int(wi))
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

    def center_line(self, r: float, w_idx: int, j: tuple) -> Line:
        net = self._net(r)
        Q = self._basis(r, w_idx)
        foot = Q.T @ (np.array(j, dtype=float) * (r / 2.0))
        return Line(Direction(net.matrix[w_idx]), foot)

    def scan(
        self,
        r: float,
        feet: np.ndarray,
        dirs: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> tuple[float, tuple | None]:
        """Max over net balls of radius r of the (weighted) line count.

        Returns (max value, key of the attaining ball).
        """
        keys = self.candidate_keys(r, feet, dirs)
        if not keys:
            return 0.0, None
        net = self._net(r)
        g = r / 2.0
        best, best_key = -1.0, None
        items = list(keys.items())
        chunk = max(1, 4_000_000 // max(len(feet), 1))
        for start in range(0, len(items), chunk):
            part = items[start : start + chunk]
            centers = np.empty((len(part), self.n))
            wdirs = np.empty((len(part), self.n))
            for i, (_, (wi, j)) in enumerate(part):
                Q = self._basis(r, wi)
                centers[i] = Q.T @ (np.asarray(j, dtype=float) * g)
                wdirs[i] = net.matrix[wi]
            dist = _pair_distances(centers, wdirs, feet, dirs)
            inside = dist <= r + 1e-12
            vals = (
                inside.sum(axis=1).astype(float)
                if weights is None
                else inside @ weights
            )
            i_best = int(np.argmax(vals))
            if float(vals[i_best]) > best:
                best = float(vals[i_best])
                best_key = part[i_best][0]
        return best, best_key

    def nearest_center_distance(self, r: float, line: Line) -> float:
        """Distance from a line to its nearest net center at radius r (coverage probe)."""
        feet, dirs = _line_arrays([line])
        keys = self.candidate_keys(r, feet, dirs)
        best = math.inf
        for _, (wi, j) in keys.items():
            c = self.center_line(r, wi, j)
            best = min(best, line_metric(line, c))
        return best

    def balls_containing(self, r: float, line: Line) -> int:
        """Number of net balls of radius r containing the line (overlap probe)."""
        feet, dirs = _line_arrays([line])
        keys = self.candidate_keys(r, feet, dirs)
        count = 0
        for _, (wi, j) in keys.items():
            if line_metric(line, self.center_line(r, wi, j)) <= r + 1e-12:
                count += 1
        return count


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
    """Exact per-ball counts maintained under insertion and rollback.

    Used by rejection sampling: adding a line touches exactly the net balls
    containing it, so the updated counts are the only ones that can newly
    violate a threshold.
    """

    def __init__(self, net: BallNet, delta: float, d: int, beta: float):
        self.net = net
        self.s = concentration_exponent(d, beta)
        self.delta = delta
        self.counts: dict[tuple, int] = {}
        self._center_cache: dict[tuple, Line] = {}

    def _containing_keys(self, line: Line) -> list[tuple]:
        feet, dirs = _line_arrays([line])
        found = []
        for r in self.net.radii:
            for key, (wi, j) in self.net.candidate_keys(r, feet, dirs).items():
                c = self._center_cache.get(key)
                if c is None:
                    c = self.net.center_line(r, wi, j)
                    self._center_cache[key] = c
                if line_metric(line, c) <= r + 1e-12:
                    found.append(key)
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


# ---------------------------------------------------------------------------
# Frostman constant, separation, pigeonholing, thinning
# ---------------------------------------------------------------------------


def frostman_constant(W: WeightedLineSet, s: float, net: BallNet) -> float:
    """Smallest C0 with P(B) <= C0 r^s over the net; stored into W.C0."""
    feet, dirs = _line_arrays(W.lines)
    c0 = 0.0
    for r in net.radii:
        mass, _ = net.scan(r, feet, dirs, weights=W.weights)
        c0 = max(c0, mass / r**s)
    W.C0 = float(c0)
    return float(c0)


def separated_subset(L, sep: float) -> list[Line]:
    """Greedy selection in input order of a sep-separated, maximal subset."""
    kept: list[Line] = []
    kept_feet: list[np.ndarray] = []
    kept_dirs: list[np.ndarray] = []
    for line in L:
        if kept:
            feet = np.stack(kept_feet)
            dirs = np.stack(kept_dirs)
            dist = _pair_distances(line.x[None, :], line.u.u[None, :], feet, dirs)[0]
            if float(dist.min()) < sep:
                continue
        kept.append(line)
        kept_feet.append(line.x)
        kept_dirs.append(line.u.u)
    return kept


def ball_measure(W: WeightedLineSet, center: Line, radius: float) -> float:
    """P(B(center, radius)): total weight of W's lines within the ball."""
    feet, dirs = _line_arrays(W.lines)
    dist = _pair_distances(center.x[None, :], center.u.u[None, :], feet, dirs)[0]
    return float(W.weights[dist <= radius + 1e-12].sum())


def dyadic_pigeonhole(
    W: WeightedLineSet, delta: float, d: int, beta: float
) -> tuple[list[Line], float]:
    """Select the heaviest dyadic bucket of a 2*delta-separated subset.

    Lines are bucketed by the dyadic level of P(B(line, delta)); for each
    selected line the returned A satisfies
    A^(-1) delta^s <= P(B(line, delta)) < 2 A^(-1) delta^s,  s = 2(d-1)+beta.
    The winning bucket maximizes count x level; ties break toward larger A,
    then the lower bucket index.
    """
    s = concentration_exponent(d, beta)
    sep = separated_subset(W.lines, 2.0 * delta)
    feet_all, dirs_all = _line_arrays(W.lines)
    buckets: dict[int, list[Line]] = {}
    for line in sep:
        dist = _pair_distances(line.x[None, :], line.u.u[None, :], feet_all, dirs_all)[0]
        mass = float(W.weights[dist <= delta + 1e-12].sum())
        if mass <= 0.0:
            continue
        t = mass / delta**s
        k = int(math.ceil(-math.log2(t) - 1e-12))
        # Guard against float dust at dyadic boundaries.
        while 2.0**-k > t:
            k += 1
        while t >= 2.0 ** (1 - k):
            k -= 1
        buckets.setdefault(k, []).append(line)
    if not buckets:
        raise GeometryError("all delta-ball measures vanish")
    best_key = min(
        buckets.keys(),
        key=lambda k: (-len(buckets[k]) * 2.0**-k, k),
    )
    return buckets[best_key], 2.0**best_key


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
