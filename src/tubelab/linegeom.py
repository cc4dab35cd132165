"""Lines, directions, subspaces, tubes and spherical cap covers in R^n.

The distance between two lines is |x - x'| + |u ^ u'|: the Euclidean distance
between their foot points (the unique point of each line closest to the
origin) plus the unsigned area of the parallelogram spanned by their unit
directions.  Lines are unoriented, so directions carry a canonical sign.

All types are immutable after construction and every operation is a pure
function, so everything here is safe to use from parallel worker processes.
The one exception is the foot-basis table that a `SphereNet` fills on
demand.  `concentration` shares each ball net's `SphereNet` within a process;
the table takes no lock, and tubelab runs no threads.  `--parallel` runs
scenarios in processes, and each process builds its own nets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# Construction tolerances: |u| - 1 below UNIT_NORM leaves a Direction
# undivided; |x . u| of a Line's foot point stays below FOOT_ORTHOGONALITY;
# a Subspace basis has Gram matrix within GRAM_IDENTITY of the identity; a
# coordinate above SIGN_THRESHOLD in magnitude fixes a direction's sign.
UNIT_NORM = 1e-12
FOOT_ORTHOGONALITY = 1e-10
GRAM_IDENTITY = 1e-10
SIGN_THRESHOLD = 1e-9


class GeometryError(ValueError):
    """Raised when numerical data does not describe a valid geometric object."""


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def canonical_sign(u: np.ndarray) -> np.ndarray:
    """Flip the sign of u so its first significantly-nonzero coordinate is positive."""
    for x in u:
        if abs(x) > SIGN_THRESHOLD:
            return -u if x < 0 else u
    return u


def canonical_rows(v: np.ndarray) -> np.ndarray:
    """`Direction(row).u` for every row of v (N, n) at once, bit for bit: a
    norm is the root of `rowdot`, the dot that `np.linalg.norm` takes."""
    norm = np.sqrt(rowdot(v, v))
    if np.any(norm < 1e-14):
        raise GeometryError("cannot normalize a zero vector")
    off = np.abs(norm - 1.0) > UNIT_NORM
    v = np.where(off[:, None], v / np.where(off, norm, 1.0)[:, None], v)
    big = np.abs(v) > SIGN_THRESHOLD
    flip = big.any(axis=1) & (v[np.arange(len(v)), big.argmax(axis=1)] < 0)
    return np.where(flip[:, None], -v, v)


@dataclass(frozen=True)
class Direction:
    """A canonical unit vector in R^n representing an unoriented direction."""

    u: np.ndarray

    def __init__(self, u):
        v = np.asarray(u, dtype=float)
        if v.ndim != 1 or v.shape[0] < 2:
            raise GeometryError(f"direction must be a vector in R^n, n >= 2, got shape {v.shape}")
        norm = float(np.linalg.norm(v))
        if norm < 1e-14:
            raise GeometryError("cannot normalize a zero vector")
        # Skip the division when the input is already unit, so constructing
        # from a stored canonical vector reproduces it bit for bit.
        if abs(norm - 1.0) > UNIT_NORM:
            v = v / norm
        v = canonical_sign(v)
        object.__setattr__(self, "u", _as_readonly(v))

    @property
    def n(self) -> int:
        return self.u.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Direction) and np.array_equal(self.u, other.u)

    def __hash__(self) -> int:
        return hash(self.u.tobytes())


@dataclass(frozen=True)
class Line:
    """A line in R^n: canonical direction u plus the foot point x with x . u = 0."""

    u: Direction
    x: np.ndarray

    def __init__(self, u: Direction, x):
        if not isinstance(u, Direction):
            u = Direction(u)
        p = np.asarray(x, dtype=float)
        if p.shape != u.u.shape:
            raise GeometryError(f"point shape {p.shape} does not match direction in R^{u.n}")
        # Project out any component along u; repeating once removes the
        # first-order residual so |x . u| stays below the tolerance.
        p = p - np.dot(p, u.u) * u.u
        p = p - np.dot(p, u.u) * u.u
        if abs(float(np.dot(p, u.u))) > FOOT_ORTHOGONALITY:
            raise GeometryError("foot point is not orthogonal to the direction")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "x", _as_readonly(p))

    @property
    def n(self) -> int:
        return self.u.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Line)
            and self.u == other.u
            and np.array_equal(self.x, other.x)
        )

    def __hash__(self) -> int:
        return hash((self.u, self.x.tobytes()))


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional vector subspace of R^n given by an orthonormal basis."""

    basis: np.ndarray  # shape (k, n), rows orthonormal

    def __init__(self, basis):
        b = np.atleast_2d(np.asarray(basis, dtype=float))
        k, n = b.shape
        if not 1 <= k < n:
            raise GeometryError(f"subspace dimension must satisfy 1 <= k < n, got k={k}, n={n}")
        gram = b @ b.T
        if not np.allclose(gram, np.eye(k), atol=GRAM_IDENTITY):
            raise GeometryError("basis is not orthonormal")
        object.__setattr__(self, "basis", _as_readonly(b))

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    @property
    def n(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class Tube:
    """The radius-`radius` neighborhood of a segment of the given length.

    Families of delta-tubes use unit segments; coarse covering tubes built by
    the rho-coarsening use longer segments so that every unit tube at any
    longitudinal offset fits inside one of them.
    """

    segment_center: np.ndarray
    direction: Direction
    radius: float
    length: float = 1.0

    def __init__(self, segment_center, direction, radius: float, length: float = 1.0):
        c = np.asarray(segment_center, dtype=float)
        d = direction if isinstance(direction, Direction) else Direction(direction)
        if c.shape != d.u.shape:
            raise GeometryError("segment center and direction dimensions differ")
        if not 0.0 < radius <= 0.5:
            raise GeometryError(f"tube radius must lie in (0, 1/2], got {radius}")
        if length <= 0:
            raise GeometryError("tube length must be positive")
        object.__setattr__(self, "segment_center", _as_readonly(c))
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "radius", float(radius))
        object.__setattr__(self, "length", float(length))

    @property
    def n(self) -> int:
        return self.direction.n

    @property
    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        half = 0.5 * self.length * self.direction.u
        return self.segment_center - half, self.segment_center + half

    def volume(self) -> float:
        """Exact volume: cylinder of this length plus two spherical end caps."""
        n, r = self.n, self.radius
        return unit_ball_volume(n - 1) * r ** (n - 1) * self.length + unit_ball_volume(n) * r**n


def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m (1 for m = 0)."""
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# metric and wedge volumes
# ---------------------------------------------------------------------------


def wedge_volume(vs) -> float:
    """Unsigned volume of the parallelepiped spanned by k unit vectors.

    Computed as sqrt(det Gram); tiny negative determinants from roundoff are
    clamped to 0 and the result is clamped into [0, 1].
    """
    m = np.atleast_2d(np.asarray(vs, dtype=float))
    k, n = m.shape
    if k > n:
        raise GeometryError(f"cannot wedge {k} vectors in R^{n}")
    norms = np.linalg.norm(m, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise GeometryError("wedge_volume expects unit vectors")
    det = float(np.linalg.det(m @ m.T))
    return min(math.sqrt(max(det, 0.0)), 1.0)


#: The most tuples whose wedges are evaluated at once: `tuple_wedges` refuses
#: more, the face-local multilinear sums evaluate their faces in chunks of at
#: most this many, and the dichotomy's exhaustive counts raise `BudgetError`
#: above it.  At the limit k = 3 takes a few 8 MiB temporaries, k = 4 a
#: 128 MiB Gram stack.
WEDGE_TUPLE_LIMIT = 2**20


def tuple_wedges(mats) -> np.ndarray:
    """Wedge volumes of every tuple taking one row from each matrix.

    For unit-row matrices of shapes (N1, n), ..., (Nk, n) returns an array of
    shape (N1, ..., Nk) whose entry (i1, ..., ik) is the volume spanned by
    rows mats[0][i1], ..., mats[k-1][ik]: 1 for k = 1, else `gram_wedges` of
    the pairwise products mats[a] @ mats[b].T, broadcast over the tuples.  A
    tuple that repeats a vector has a determinant at roundoff level, so its
    volume is of order 1e-8 rather than 0.  `wedge_volume` is the scalar
    reference.
    """
    k = len(mats)
    shape = tuple(m.shape[0] for m in mats)
    tuples = math.prod(shape)
    if tuples > WEDGE_TUPLE_LIMIT:
        raise MemoryError(
            f"{tuples} {k}-tuples of directions exceed the wedge limit of "
            f"{WEDGE_TUPLE_LIMIT}; reduce the family sizes"
        )
    if k == 1:
        return np.ones(shape)

    def entry(a: int, b: int) -> np.ndarray:
        # A view of the product: its diagonal for a = b, transposed for a > b.
        g = mats[a] @ mats[b].T
        g = np.diagonal(g) if a == b else g if a < b else g.T
        return g.reshape([N if i in (a, b) else 1 for i, N in enumerate(shape)])

    return gram_wedges(k, shape, entry)


def gram_wedges(k: int, shape: tuple, entry) -> np.ndarray:
    """Wedge volumes of k-tuples of unit vectors, of the given shape, where
    entry(a, b) broadcasts the dot products of slots a and b to it: the root
    of the Gram determinant, clamped into [0, 1], in closed form with unit
    diagonal for k = 2 and 3 (with ab = a . b, 1 - ab^2 and
    1 + 2 ab ac bc - ab^2 - ac^2 - bc^2), by batched LU for k >= 4."""
    if k == 2:
        return np.sqrt(np.clip(1.0 - entry(0, 1) ** 2, 0.0, 1.0))
    if k == 3:
        ab, ac, bc = entry(0, 1), entry(0, 2), entry(1, 2)
        return np.sqrt(np.clip(1.0 + 2.0 * ab * ac * bc - ab**2 - ac**2 - bc**2, 0.0, 1.0))
    gram = np.empty(shape + (k, k))
    for a in range(k):
        for b in range(k):
            gram[..., a, b] = entry(a, b)
    return np.sqrt(np.clip(np.linalg.det(gram), 0.0, 1.0))


def direction_wedge(a: Direction | np.ndarray, b: Direction | np.ndarray) -> float:
    """|u ^ u'| for two unit vectors: sqrt(1 - (u.u')^2)."""
    ua = a.u if isinstance(a, Direction) else np.asarray(a, dtype=float)
    ub = b.u if isinstance(b, Direction) else np.asarray(b, dtype=float)
    if np.array_equal(ua, ub):
        return 0.0
    dot = float(np.dot(ua, ub))
    return math.sqrt(max(0.0, 1.0 - min(dot * dot, 1.0)))


def line_metric(a: Line, b: Line) -> float:
    """Distance |x - x'| + |u ^ u'| between two lines."""
    if a.n != b.n:
        raise GeometryError(f"lines live in different dimensions ({a.n} vs {b.n})")
    return float(np.linalg.norm(a.x - b.x)) + direction_wedge(a.u, b.u)


def subspace_wedge(H: Subspace, u: Direction | np.ndarray) -> float:
    """|H ^ u|: wedge of an orthonormal basis of H with the unit vector u.

    Independent of the basis chosen for H; 0 when u lies in H and 1 when u is
    orthogonal to H.
    """
    uu = u.u if isinstance(u, Direction) else np.asarray(u, dtype=float)
    if H.k + 1 > H.n:
        raise GeometryError(f"cannot wedge a {H.k}-dim subspace with a vector in R^{H.n}")
    if uu.shape[0] != H.n:
        raise GeometryError("vector dimension does not match the subspace")
    # For an orthonormal basis the wedge reduces to the norm of the component
    # of u orthogonal to H.
    proj = H.basis.T @ (H.basis @ uu)
    return min(float(np.linalg.norm(uu - proj)), 1.0)


# ---------------------------------------------------------------------------
# tubes
# ---------------------------------------------------------------------------


def point_in_tube(T: Tube, p) -> bool:
    """True iff p is within T.radius of T's core segment (capped ends)."""
    q = np.asarray(p, dtype=float)
    if q.shape != T.segment_center.shape:
        raise GeometryError("point dimension does not match the tube")
    rel = q - T.segment_center
    t = float(np.dot(rel, T.direction.u))
    half = 0.5 * T.length
    t = max(-half, min(half, t))
    return float(np.linalg.norm(rel - t * T.direction.u)) <= T.radius


def line_of_tube(T: Tube) -> Line:
    """The line coaxial with T (foot point recomputed from the segment center)."""
    return Line(T.direction, T.segment_center)


def complete_orthonormal(rows, n: int) -> np.ndarray:
    """Extend orthonormal rows to an orthonormal basis of R^n, shape (n, n).

    The given rows come first.  Standard basis vectors are then orthogonalized
    against the rows so far, in order, and kept when they leave a remainder,
    so the completion depends only on the given rows.
    """
    basis = [np.asarray(r, dtype=float) for r in rows]
    for i in range(n):
        if len(basis) == n:
            break
        e = np.zeros(n)
        e[i] = 1.0
        for r in basis:
            e = e - np.dot(e, r) * r
        norm = np.linalg.norm(e)
        if norm > 1e-8:
            basis.append(e / norm)
    return np.stack(basis)


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products of the rows of a and b (..., n), broadcast over the
    leading axes, each bit for bit `np.dot` of its two rows.

    Each product is a stacked (1, n) @ (n, 1) `matmul`, which numpy takes
    through the same vector dot as `np.dot` of two 1-D arrays; an `einsum`
    or a `sum` over the last axis can differ in the last bit.  Batched code
    that must reproduce a per-row `np.dot` or `np.linalg.norm` uses this.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _complete_unit_rows(rows: np.ndarray) -> np.ndarray:
    """`complete_orthonormal(row[None], n)` for every row at once, shape (N, n, n).

    Performs the same operations in the same order, with every dot product
    and norm taken by `rowdot`, so each basis is bit for bit the one of
    `complete_orthonormal`.
    """
    N, n = rows.shape
    basis = np.zeros((N, n, n))
    basis[:, 0] = rows
    count = np.ones(N, dtype=np.int64)
    for i in range(n):
        active = np.flatnonzero(count < n)
        if active.size == 0:
            break
        e = np.zeros((active.size, n))
        e[:, i] = 1.0
        held = count[active]
        for s in range(int(held.max())):
            m = np.flatnonzero(held > s)
            sub, r = e[m], basis[active[m], s]
            e[m] = sub - rowdot(sub, r)[:, None] * r
        norm = np.sqrt(rowdot(e, e))
        keep = norm > 1e-8
        grow = active[keep]
        basis[grow, count[grow]] = e[keep] / norm[keep, None]
        count[grow] += 1
    return basis


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D integer array, sorted: one sort and an
    adjacent-difference mask.  A flag-free `np.unique` runs through a hash
    table on numpy >= 2.3, many times slower than a sort."""
    v = np.sort(values)
    keep = np.empty(v.size, dtype=bool)
    keep[:1] = True
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


def row_labels(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, first) for the rows of a 2-D array: labels 0..k-1, equal
    exactly when the rows are equal and numbered in `np.lexsort` order of
    the rows, and first[i] the index of the first row labelled i."""
    order = np.lexsort(rows.T)
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    labels = np.empty(len(rows), dtype=np.int64)
    labels[order] = np.cumsum(new) - 1
    return labels, order[new]


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, j): for each of sum(counts) slots, its row and its place 0 <= j <
    counts[row] inside the row, row by row."""
    row = np.repeat(np.arange(counts.size), counts)
    return row, np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)


def lattice_points(coords: np.ndarray, m: int) -> np.ndarray:
    """The points of coords^m as rows in row-major order (the last
    coordinate varies fastest), shape (len(coords)^m, m); one empty row for m = 0."""
    return np.array(list(itertools.product(coords.tolist(), repeat=m)))


def _runs(spans) -> np.ndarray:
    """Sorted distinct indices covered by half-open runs [a, b)."""
    merged: list[list[int]] = []
    for a, b in sorted(s for s in spans if s[0] < s[1]):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    if len(merged) == 1:
        return np.arange(*merged[0])
    return np.concatenate([np.arange(a, b) for a, b in merged] or [np.empty(0, np.int64)])


def segment_point_distances(points: np.ndarray, center: np.ndarray, u: np.ndarray, length) -> np.ndarray:
    """Distances from points (m, n) to the segment center +- (length/2) u.

    `center` may also be a stack of centers (..., 1, n) of segments sharing
    u, giving the distances (..., m) from the points to each segment.  Or
    point i may have its own segment: `center` and `u` of shape (m, n) and
    `length` of shape (m,), with points of shape (..., m, n).  Both t = rel . u
    and the norm of rel - t u are summed one coordinate at a time, elementwise,
    so each distance has the same bits whatever the batch or BLAS library.
    """
    rel = points - center
    t = 0.0
    for k in range(rel.shape[-1]):
        t = t + rel[..., k] * u[..., k]
    t = np.clip(t, -0.5 * length, 0.5 * length)
    total = 0.0
    for k in range(rel.shape[-1]):
        w = rel[..., k] - t * u[..., k]
        total = total + w * w
    return np.sqrt(total)


# ---------------------------------------------------------------------------
# spherical cap covers
# ---------------------------------------------------------------------------

# Ring-lattice layout constants: polar rings spaced 0.7*alpha apart, in-ring
# resolution 0.6*alpha/sin(theta).  Any point of the sphere is then within
# 0.35*alpha + 1.05*0.6*alpha < alpha of a center (geodesically).
_POLAR_FRACTION = 0.7
_RING_FRACTION = 0.6


def _rings(dim: int, alpha: float) -> tuple[np.ndarray, list]:
    """Polar angles of the rings of `SphereNet(dim >= 3, alpha)`, and the
    resolution of each ring's net of S^(dim-2) (None: a ring of one row)."""
    k_rings = max(int(math.ceil(math.pi / (_POLAR_FRACTION * alpha))), 1)
    theta = (np.arange(k_rings) + 0.5) * math.pi / k_rings
    s = [math.sin(t) for t in theta]
    return theta, [None if math.pi * x <= _RING_FRACTION * alpha else _RING_FRACTION * alpha / x for x in s]


class SphereNet:
    """Deterministic ring-lattice covering of S^(dim-1) within geodesic radius alpha.

    For dim = 2 the rows are m = ceil(pi/alpha) unit vectors at the angles
    (i + 1/2) 2pi/m.  For dim >= 3 they are stored ring by ring: ring k sits
    at polar angle theta_k = (k + 1/2) pi/K from the last axis, and carries
    the net of S^(dim-2) at resolution 0.6 alpha/sin(theta_k) scaled by
    sin(theta_k), or a single row once pi sin(theta_k) <= 0.6 alpha.  Rows of
    ring k are `rows[ring_offset[k]:ring_offset[k + 1]]`.  Rows are oriented:
    both u and -u may appear.  `rows` is read-only, so a net can be shared.
    """

    def __init__(self, dim: int, alpha: float):
        self.dim = int(dim)
        # Foot-basis table of `complements`: row i's basis is _table[_slot[i]].
        self._slot: np.ndarray | None = None
        self._table = np.empty((0, self.dim - 1, self.dim))
        self._filled = 0
        if self.dim == 2:
            m = SphereNet.size(2, alpha)
            self.spacing = 2.0 * math.pi / m
            angles = (np.arange(m) + 0.5) * self.spacing
            self.rows = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            self.rows.setflags(write=False)
            return
        self.ring_theta, ring_alpha = _rings(self.dim, alpha)
        rings = []
        for theta, sub_alpha in zip(self.ring_theta, ring_alpha):
            sub = np.eye(1, self.dim - 1) if sub_alpha is None else SphereNet(self.dim - 1, sub_alpha).rows
            ring = np.empty((sub.shape[0], self.dim))
            ring[:, : self.dim - 1] = math.sin(theta) * sub
            ring[:, self.dim - 1] = math.cos(theta)
            rings.append(ring)
        self.ring_offset = np.concatenate([[0], np.cumsum([len(r) for r in rings])])
        self.rows = np.vstack(rings)
        self.rows.setflags(write=False)

    @staticmethod
    def size(dim: int, alpha: float) -> int:
        """len(SphereNet(dim, alpha)), counted from the ring layout alone."""
        if dim == 2:
            return max(int(math.ceil(math.pi / alpha)), 1)
        return sum(1 if a is None else SphereNet.size(dim - 1, a) for a in _rings(dim, alpha)[1])

    def __len__(self) -> int:
        return self.rows.shape[0]

    def within(self, u: np.ndarray, angle: float) -> np.ndarray:
        """Sorted indices of the rows whose unoriented angle to u is <= angle.

        Only a window of candidates is tested with |row . u| >= cos(angle):
        on the circle the rows whose angle lies within `angle` of u or -u, two
        runs of indices taken mod m; in higher dimension the rings whose polar
        angle lies within `angle` of that of u or -u, one contiguous run of
        rows on each side.
        """
        angle = min(angle, math.pi / 2.0)
        cos_bound = math.cos(min(angle + 1e-12, math.pi / 2.0))
        spans = []
        if self.dim == 2:
            m = len(self)
            phi = math.atan2(u[1], u[0])
            for target in (phi, phi + math.pi):
                lo = int(math.ceil((target - angle) / self.spacing - 0.5 - 1e-9))
                hi = int(math.floor((target + angle) / self.spacing - 0.5 + 1e-9)) + 1
                if hi - lo >= m:
                    spans = [(0, m)]
                    break
                a = lo % m
                b = a + max(hi - lo, 0)
                spans += [(a, min(b, m)), (0, b - m)]
        else:
            # The angle between two points is at least the difference of
            # their polar angles; the slack covers acos roundoff at the poles.
            theta_u = math.acos(max(-1.0, min(1.0, float(u[-1]))))
            for target in (theta_u, math.pi - theta_u):
                lo = np.searchsorted(self.ring_theta, target - angle - 1e-6, side="left")
                hi = np.searchsorted(self.ring_theta, target + angle + 1e-6, side="right")
                spans.append((int(self.ring_offset[lo]), int(self.ring_offset[hi])))
        cand = _runs(spans)
        dots = np.abs(self.rows[cand] @ u)
        return cand[dots >= cos_bound]

    def complements(self, idx: np.ndarray) -> np.ndarray:
        """Foot bases of the rows idx, shape (len(idx), dim-1, dim): entry k
        is an orthonormal basis of the hyperplane orthogonal to row idx[k],
        the rows after the first of `complete_orthonormal`.

        The bases live in a table that holds only the rows asked for so far;
        rows missing from it are filled in one `_complete_unit_rows` batch.
        """
        if self._slot is None:
            self._slot = np.full(len(self), -1, dtype=np.int32)
        slot = self._slot[idx]
        missing = slot < 0
        if missing.any():
            self._fill(sorted_distinct(idx[missing]))
            slot = self._slot[idx]
        return self._table[slot]

    def _fill(self, rows: np.ndarray) -> None:
        start, stop = self._filled, self._filled + rows.size
        if stop > len(self._table):
            grown = np.empty((min(max(stop, 2 * len(self._table)), len(self)), self.dim - 1, self.dim))
            grown[:start] = self._table[:start]
            self._table = grown
        self._table[start:stop] = _complete_unit_rows(self.rows[rows])[:, 1:]
        self._slot[rows] = np.arange(start, stop)
        self._filled = stop


@dataclass(frozen=True)
class CapCover:
    """Caps of diameter rho covering the unit sphere with bounded overlap.

    Membership is unoriented: u belongs to cap i iff |u . c_i| >= cos(rho).
    Every unit vector lies within angular distance rho of some center and in
    at most 10^n caps.
    """

    rho: float
    centers: tuple[Direction, ...]
    n: int
    _matrix: np.ndarray = field(repr=False, compare=False, default=None)

    def __init__(self, rho: float, centers, n: int):
        object.__setattr__(self, "rho", float(rho))
        object.__setattr__(self, "centers", tuple(centers))
        object.__setattr__(self, "n", int(n))
        mat = np.stack([c.u for c in self.centers])
        object.__setattr__(self, "_matrix", _as_readonly(mat))

    def __len__(self) -> int:
        return len(self.centers)

    @property
    def center_matrix(self) -> np.ndarray:
        return self._matrix

    def caps_containing(self, u) -> np.ndarray:
        """Indices of every cap containing the unit vector u."""
        uu = u.u if isinstance(u, Direction) else np.asarray(u, dtype=float)
        dots = np.abs(self._matrix @ uu)
        return np.nonzero(dots >= math.cos(self.rho) - 1e-12)[0]

    def membership(self, dirs: np.ndarray) -> np.ndarray:
        """Boolean (len(dirs), len(self)) matrix: entry (i, c) says whether
        cap c contains the unit vector dirs[i], by the caps_containing test."""
        return np.abs(dirs @ self._matrix.T) >= math.cos(self.rho) - 1e-12


@functools.lru_cache(maxsize=None)
def build_cap_cover(n: int, rho: float) -> CapCover:
    """Cover S^(n-1) by caps of diameter rho (ring-lattice construction).

    The centers are the canonical (unoriented) vectors `Direction(row).u` of
    the `SphereNet(n, rho)` rows.  Two rows are the same direction when their
    canonical vectors agree after rounding to 9 decimals, which merges the
    antipodal twins of the net (u and -u differ in the last bit); the first
    row of each class is kept, in net order.

    A cover is built once per (n, rho) and then shared: `CapCover` is frozen
    and its center matrix is read-only.
    """
    if n < 2:
        raise GeometryError("cap covers need ambient dimension >= 2")
    if not 0.0 < rho <= 1.0:
        raise GeometryError(f"cap diameter must lie in (0, 1], got {rho}")
    dirs = [Direction(row) for row in SphereNet(n, rho).rows]
    # One rounding for all rows; `+ 0.0` turns -0.0 into 0.0, so key bytes see values only.
    keys = np.round(np.stack([d.u for d in dirs]), 9) + 0.0
    seen: dict[bytes, Direction] = {}
    for d, key in zip(dirs, keys):
        seen.setdefault(key.tobytes(), d)
    return CapCover(rho, list(seen.values()), n)
