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
and cannot attain the maximum of any scan.  Each direction net is built once
per process and shared by every ball net in its dimension (`_DIRECTION_NETS`).

One routine, `BallNet._incidences`, finds every (center, line) candidate
pair as arrays, at one radius or at several in one pass: lattice feet in a
budget box per (line, net direction) pair, foot bases from each net's table,
distinct centers by one `np.unique` of their int64 ball keys.  A ball has
one key layout, `BallNet._keys`, for every radius and every caller: scans
and candidate keys order their centers by it, and incremental counts (all
radii at once) are kept under it.  Every membership test compares the same
distances with r + 1e-12.

Which balls contain which lines does not depend on which of them are kept,
so the pairs of a line set within r + 1e-12 are found once per radius and
kept on the net for the last line set asked about.  Every ball count, a
scan of the whole set and each subset a thinning attempt keeps, is one
`bincount` of those pairs under a mask of the lines.

`random_thin_trials` runs many one-attempt thinnings at once: every trial's
mask is a row of one seeded generator's stream, judged by the acceptance
rule `random_thin` applies to each attempt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .linegeom import Direction, GeometryError, Line, SphereNet, _ragged, row_labels, sorted_distinct


class ThinningError(RuntimeError):
    """Random thinning failed on every retry; carries the worst ball seen."""

    def __init__(self, message: str, worst_ball=None):
        super().__init__(message)
        self.worst_ball = worst_ball


def concentration_exponent(d: int, beta: float) -> float:
    return 2.0 * (d - 1) + beta


def _line_arrays(lines) -> tuple[np.ndarray, np.ndarray]:
    """(feet, dirs) of a line set as (N, n) arrays; an empty set is refused."""
    if len(lines) == 0:
        raise GeometryError("need a non-empty line set")
    feet = np.array([l.x for l in lines])
    dirs = np.array([l.u.u for l in lines])
    return feet, dirs


#: Largest direction net, in rows, that `BallNet` uses for n >= 4; each net
#: is kept for the whole process with a table of the foot bases of the rows
#: any ball net has touched.
MAX_NET_ROWS = 2_000_000

#: The direction nets built in this process, keyed by (n, r/4): the
#: `SphereNet(n, r/4)` of the radius-r balls of every `BallNet` in n
#: dimensions.  A net's rows are read-only, and a row's foot basis has the
#: same bits whichever batch fills it, so every ball net shares one.  A net
#: above `MAX_NET_ROWS` is refused, and never stored.
_DIRECTION_NETS: dict[tuple[int, float], SphereNet] = {}


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
    balls of one radius.  A center is the ball (k, w_idx, *j) of radius
    r = radii[k]: net row w_idx, foot `complements([w_idx])[0].T @ (j r/2)`.
    The direction nets and their foot-basis tables come from
    `_DIRECTION_NETS`, shared by every ball net of the process; the rest of
    a ball net (its key layout and kept pairs) is its own.

    `_keys` packs balls into int64 keys that sort as their rows do: net rows
    numbered across the nets of all radii, then each foot index offset by
    half into a fixed field of bits; a foot index outside its field raises
    the one `OverflowError`.  `_incidences` is the one incidence
    path: scans, candidate keys and incremental counts all read its
    (center, line) pair arrays and its keys.  The net keeps the contained
    pairs of the last line set it counted, keyed by the bytes of its feet and
    directions and filled radius by radius on demand; `_max_count` counts the
    whole set or any masked subset of it from them.
    """

    n: int
    delta: float
    radii: tuple[float, ...]
    overlap_bound: int
    _row_offset: np.ndarray | None = field(default=None, repr=False, compare=False)
    _kept_key: tuple | None = field(default=None, repr=False, compare=False)
    _kept: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(cls, n: int, delta: float) -> "BallNet":
        if not 0.0 < delta <= 0.5:
            raise GeometryError(f"ball-net scale must lie in (0, 1/2], got {delta}")
        radii = []
        r = float(delta)
        while r < 1.0 - 1e-12:
            radii.append(r)
            r *= 2.0
        radii.append(1.0)
        bound = {2: 400, 3: 20000}.get(n, 10 ** (2 * n))
        return cls(n=int(n), delta=float(delta), radii=tuple(radii), overlap_bound=bound)

    def _net(self, r: float) -> SphereNet:
        key = (self.n, r / 4.0)
        if key not in _DIRECTION_NETS:
            # Counted from the ring layout, so a refused net is never built.
            rows = SphereNet.size(*key)
            if self.n >= 4 and rows > MAX_NET_ROWS:
                raise MemoryError(
                    f"direction net for n = {self.n} at r = {r:g} has {rows} rows, above "
                    f"MAX_NET_ROWS = {MAX_NET_ROWS}; use a larger delta"
                )
            _DIRECTION_NETS[key] = SphereNet(*key)
        return _DIRECTION_NETS[key]

    def _keys(self, k: np.ndarray, w: np.ndarray, j: np.ndarray) -> np.ndarray:
        """int64 keys of the balls (k[i], w[i], *j[i]), ordered as the rows.

        The layout numbers rows across the nets of every radius, so it builds
        all of them on first use.  `_incidences` builds the nets it asks for
        before, so a `MAX_NET_ROWS` error names one of its own radii.
        """
        if self._row_offset is None:
            self._row_offset = np.cumsum([0] + [len(self._net(r)) for r in self.radii])
        bits = (63 - int(self._row_offset[-1]).bit_length()) // (self.n - 1)
        half = 1 << (bits - 1)
        if j.size and (j.min() < -half or j.max() >= half):
            raise OverflowError(
                f"foot index beyond +-{half} in the ball keys at delta = {self.delta:g}; lines too far out"
            )
        keys = self._row_offset[k] + w
        for c in range(self.n - 1):
            keys = (keys << bits) + (j[:, c] + half)
        return keys

    def _incidences(self, radii, feet: np.ndarray, dirs: np.ndarray):
        """Every candidate (center, line) pair at the given radii, as arrays.

        Returns (centers, keys, center_of, dist, line_of): the distinct
        candidate centers as int64 rows (k, w_idx, *j) and their `_keys`, in
        key order, and for each pair its center's index, its distance
        |x - x'| + wedge and its line's index.
        A line's candidates at radius r are, for every net row within
        asin(r) of its direction, the lattice feet in the box
        |j r/2 - Q x| <= r - wedge around its projected foot, so every center
        within r of the line is one of them.  A center appears at most once
        per line.
        """
        # One `within` per distinct direction and radius.
        dir_of, first = row_labels(dirs)
        udirs = dirs[first]
        parts = []
        for r in radii:
            net = self._net(r)
            max_angle = math.asin(r) if r < 1.0 else math.pi / 2.0
            near = [net.within(u, max_angle) for u in udirs]
            w = np.concatenate([near[i] for i in dir_of])
            line_of = np.repeat(np.arange(len(feet)), [near[i].size for i in dir_of])
            parts.append((np.full(w.size, self.radii.index(r)), w, line_of, net.complements(w), net.rows[w]))
        ki, w, line_of, bases, rdirs = (np.concatenate(a) for a in zip(*parts))
        r = np.asarray(self.radii)[ki]
        g = r / 2.0
        dots = np.einsum("ij,ij->i", rdirs, dirs[line_of])
        wedge = np.sqrt(np.maximum(1.0 - dots**2, 0.0))
        # Lattice feet in each pair's budget box, expanded with repeat/arange.
        y = np.einsum("pij,pj->pi", bases, feet[line_of])
        budget = (r - wedge)[:, None]
        los = np.ceil((y - budget) / g[:, None] - 1e-9).astype(np.int64)
        sides = np.maximum(np.floor((y + budget) / g[:, None] + 1e-9).astype(np.int64) - los + 1, 0)
        size = sides.prod(axis=1)
        pair_of, t = _ragged(size)
        j = np.empty((pair_of.size, self.n - 1), dtype=np.int64)
        for c in range(self.n - 2, -1, -1):
            j[:, c] = los[pair_of, c] + t % sides[pair_of, c]
            t //= sides[pair_of, c]
        keys, first, center_of = np.unique(
            self._keys(ki[pair_of], w[pair_of], j), return_index=True, return_inverse=True
        )
        at = pair_of[first]
        centers = np.column_stack([ki[at], w[at], j[first]])
        cfeet = np.einsum("kij,ki->kj", bases[at], j[first] * g[at, None])
        pair_line = line_of[pair_of]
        dist = np.linalg.norm(cfeet[center_of] - feet[pair_line], axis=1) + wedge[pair_of]
        return centers, keys, center_of, dist, pair_line

    def candidate_keys(self, r: float, feet: np.ndarray, dirs: np.ndarray) -> dict:
        """The candidate centers of the given lines: every net center within r
        of at least one of them, and some that are not.

        Returns {key: (w_idx, j_tuple)} in sorted key order.
        """
        centers = self._incidences((r,), feet, dirs)[0]
        return {(r, *c[1:]): (c[1], tuple(c[2:])) for c in centers.tolist()}

    def center_line(self, r: float, w_idx: int, j: tuple) -> Line:
        net = self._net(r)
        foot = net.complements(np.array([w_idx]))[0].T @ (np.asarray(j, dtype=float) * (r / 2.0))
        return Line(Direction(net.rows[w_idx]), foot)

    def scan(self, r: float, feet: np.ndarray, dirs: np.ndarray) -> tuple[float, tuple | None]:
        """Max over net balls of radius r of the line count.

        Returns (max value, key of the first attaining ball in key order).
        """
        return self._max_count(r, feet, dirs)

    def _max_count(self, r: float, feet: np.ndarray, dirs: np.ndarray, mask: np.ndarray | None = None):
        """`scan` of the lines that `mask` keeps (all of them by default).

        The (center, line) pairs within r + 1e-12 of the whole set are found
        once and kept for the last set asked about; a subset's counts are a
        `bincount` of the pairs whose line it keeps.  Centers stay in key
        order, so the first attaining key is the one a scan of the subset
        alone finds whenever its maximum is positive.
        """
        key = (feet.tobytes(), dirs.tobytes())
        if key != self._kept_key:
            self._kept_key, self._kept = key, {}
        if r not in self._kept:
            centers, _, center_of, dist, line_of = self._incidences((r,), feet, dirs)
            inside = dist <= r + 1e-12
            # Only centers holding a line can attain a positive maximum; the
            # first candidate stays too, as the key of an all-zero scan.
            used = sorted_distinct(np.append(center_of[inside], 0))
            ball_of = np.searchsorted(used, center_of[inside]).astype(np.int32)
            self._kept[r] = (centers[used, 1:], ball_of, line_of[inside].astype(np.int32))
        balls, ball_of, line_of = self._kept[r]
        held = ball_of if mask is None else ball_of[mask[line_of]]
        counts = np.bincount(held, minlength=len(balls))
        best = int(np.argmax(counts))
        return float(counts[best]), (r, *balls[best].tolist())


# ---------------------------------------------------------------------------
# ball-condition scans
# ---------------------------------------------------------------------------


def ball_condition_worst_ratio(F, net: BallNet) -> float:
    """Max over net balls of (#axes in the ball) / (r/delta)^(2(d-1)+beta).

    A value <= 1 certifies the non-concentration condition over the net.
    """
    return worst_ratio_of_lines(F.lines(), F.delta, F.d, F.beta, net)


def worst_ratio_of_lines(lines, delta: float, d: int, beta: float, net: BallNet) -> float:
    feet, dirs = _line_arrays(lines)
    s = concentration_exponent(d, beta)
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
    feet, dirs = _line_arrays(lines)
    return _check_kept(net, feet, dirs, None, len(lines), delta, concentration_exponent(d, beta))


def _check_kept(net: BallNet, feet, dirs, mask, n_kept: int, delta: float, s: float):
    """`check_ball_condition` on the `n_kept` lines that `mask` keeps."""
    worst = None
    worst_excess = 1.0
    for r in net.radii:
        bound = (r / delta) ** s
        if bound >= n_kept:
            continue
        count, key = net._max_count(r, feet, dirs, mask)
        if count > bound * (1.0 + 1e-12) and count / bound > worst_excess:
            worst_excess = count / bound
            worst = (r, key, count, bound)
    return worst is None, worst


class IncrementalBallCounter:
    """Exact per-ball counts maintained under insertion.

    Used by rejection sampling: adding a line touches exactly the net balls
    containing it, so the updated counts are the only ones that can newly
    violate a threshold.  One `_incidences` call over all radii finds them,
    and the counts are kept under the net's ball keys (`BallNet._keys`).
    """

    def __init__(self, net: BallNet, delta: float, d: int, beta: float):
        self.net = net
        self.s = concentration_exponent(d, beta)
        self.delta = delta
        self._bounds = np.array([(r / delta) ** self.s * (1.0 + 1e-12) for r in net.radii])
        self._limits = np.array([r + 1e-12 for r in net.radii])
        self._counts: dict[int, int] = {}

    def try_add(self, line: Line) -> bool:
        """Add the line if every touched ball stays within its bound."""
        centers, keys, center_of, dist, _ = self.net._incidences(self.net.radii, line.x[None], line.u.u[None])
        balls = center_of[dist <= self._limits[centers[center_of, 0]]]
        keys = keys[balls].tolist()
        held = np.fromiter(map(self._counts.get, keys, repeat(0)), dtype=np.int64, count=len(keys))
        if np.any(held + 1 > self._bounds[centers[balls, 0]]):
            return False
        self._counts.update(zip(keys, (held + 1).tolist()))
        return True


@dataclass(frozen=True)
class ThinningResult:
    lines: tuple[Line, ...]
    attempts: int
    probability: float


def _thinning_inputs(L3, A: float, C0: float, eps: float, delta: float, d: int, beta: float):
    """(lines, q, s, feet, dirs) of a thinning of L3 at probability
    q = delta^(2 eps)/(C0 A) and ball exponent s."""
    L3 = list(L3)
    feet, dirs = _line_arrays(L3)
    q = delta ** (2.0 * eps) / (C0 * A)
    if not 0.0 < q <= 1.0 + 1e-12:
        raise ValueError(f"selection probability {q} outside (0, 1]")
    return L3, min(q, 1.0), concentration_exponent(d, beta), feet, dirs


def _accepts(net: BallNet, feet, dirs, mask, q: float, delta: float, s: float):
    """(ok, worst) for the thinned set `mask` keeps: it must hold at least
    half its expected size, one line or more, and the ball condition.  worst
    is the worst violating ball, or None when the size test fails."""
    n_kept = int(np.count_nonzero(mask))
    if not n_kept or 2 * n_kept < q * len(mask):
        return False, None
    return _check_kept(net, feet, dirs, mask, n_kept, delta, s)


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
    seeds derived from the base seed are tried.  Each attempt is counted by
    mask from the net's incidence table of `L3`, built once.
    """
    L3, q, s, feet, dirs = _thinning_inputs(L3, A, C0, eps, delta, d, beta)
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    worst_seen = None
    for attempt in range(max_attempts):
        rng = np.random.default_rng([int(seed), attempt])
        mask = rng.random(len(L3)) < q
        ok, worst = _accepts(net, feet, dirs, mask, q, delta, s)
        if ok:
            return ThinningResult(tuple(l for l, m in zip(L3, mask) if m), attempt + 1, q)
        worst_seen = worst or worst_seen
    raise ThinningError(
        f"thinning failed on {max_attempts} attempts (q={q:.4g}, N={len(L3)})",
        worst_ball=worst_seen,
    )


def random_thin_trials(
    L3, A: float, C0: float, eps: float, delta: float, seed, trials: int, net: BallNet, d: int, beta: float
) -> np.ndarray:
    """Run `trials` independent one-attempt thinnings; entry i says whether
    trial i's thinned set is accepted.

    Trial i keeps the lines where row i of
    `np.random.default_rng(seed).random((trials, len(L3)))` is below q, and is
    judged by the rule of each `random_thin` attempt: at least half the
    expected size, one line or more, and the ball condition.  Each distinct
    mask is judged once.
    """
    L3, q, s, feet, dirs = _thinning_inputs(L3, A, C0, eps, delta, d, beta)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    masks = np.random.default_rng(seed).random((trials, len(L3))) < q
    labels, first = row_labels(masks)
    verdicts = np.array([_accepts(net, feet, dirs, masks[i], q, delta, s)[0] for i in first])
    return verdicts[labels]
