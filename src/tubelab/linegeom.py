"""Lines, directions, subspaces, tubes and spherical cap covers in R^n.

The distance between two lines is |x - x'| + |u ^ u'|: the Euclidean distance
between their foot points (the unique point of each line closest to the
origin) plus the unsigned area of the parallelogram spanned by their unit
directions.  Lines are unoriented, so directions carry a canonical sign.

All types are immutable after construction and every operation is a pure
function, so everything here is safe to use from parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import TOL


class GeometryError(ValueError):
    """Raised when numerical data does not describe a valid geometric object."""


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def canonical_sign(u: np.ndarray) -> np.ndarray:
    """Flip the sign of u so its first significantly-nonzero coordinate is positive."""
    for x in u:
        if abs(x) > TOL.sign_threshold:
            return -u if x < 0 else u
    return u


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
        if abs(norm - 1.0) > TOL.unit_norm:
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
        if abs(float(np.dot(p, u.u))) > TOL.foot_orthogonality:
            raise GeometryError("foot point is not orthogonal to the direction")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "x", _as_readonly(p))

    @classmethod
    def through(cls, point, direction) -> "Line":
        """The line through `point` with the given direction."""
        d = direction if isinstance(direction, Direction) else Direction(direction)
        return cls(d, point)

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
        if not np.allclose(gram, np.eye(k), atol=TOL.gram_identity):
            raise GeometryError("basis is not orthonormal")
        object.__setattr__(self, "basis", _as_readonly(b))

    @classmethod
    def from_spanning(cls, vectors) -> "Subspace":
        """Orthonormalize a spanning set (QR) and build the subspace."""
        v = np.atleast_2d(np.asarray(vectors, dtype=float))
        q, r = np.linalg.qr(v.T)
        rank = int(np.sum(np.abs(np.diag(r)) > 1e-12))
        if rank < v.shape[0]:
            raise GeometryError("spanning vectors are linearly dependent")
        return cls(q.T[: v.shape[0]])

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


#: tuple_wedges refuses more tuples than this.  Pairs of families that keep
#: per-tube cell lists stay below it; at the limit the k = 3 path holds about
#: 1 GB of temporaries and the k >= 4 path a k x k Gram matrix per tuple.
WEDGE_TUPLE_LIMIT = 20_000_000


def tuple_wedges(mats) -> np.ndarray:
    """Wedge volumes of every tuple taking one row from each matrix.

    For unit-row matrices of shapes (N1, n), ..., (Nk, n) returns an array of
    shape (N1, ..., Nk) whose entry (i1, ..., ik) is the volume spanned by
    rows mats[0][i1], ..., mats[k-1][ik], clamped into [0, 1].  Gram
    entries come from the pairwise products mats[a] @ mats[b].T.  The volume
    is 1 for k = 1 and the square root of the Gram determinant otherwise: in
    closed form with unit diagonal for k = 2 and 3 (with ab = a . b,
    1 - ab^2 and 1 + 2 ab ac bc - ab^2 - ac^2 - bc^2), by batched LU for
    k >= 4.  A tuple that repeats a vector has a determinant at roundoff
    level, so its volume is of order 1e-8 rather than 0.  `wedge_volume` is
    the scalar reference.
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
    if k == 2:
        g = mats[0] @ mats[1].T
        return np.sqrt(np.clip(1.0 - g**2, 0.0, 1.0))
    if k == 3:
        ab, ac, bc = mats[0] @ mats[1].T, mats[0] @ mats[2].T, mats[1] @ mats[2].T
        det = (
            1.0
            + 2.0 * ab[:, :, None] * ac[:, None, :] * bc[None, :, :]
            - (ab**2)[:, :, None]
            - (ac**2)[:, None, :]
            - (bc**2)[None, :, :]
        )
        return np.sqrt(np.clip(det, 0.0, 1.0))
    idx = np.ix_(*(np.arange(N) for N in shape))
    gram = np.empty(shape + (k, k))
    for a in range(k):
        for b in range(k):
            gram[..., a, b] = (mats[a] @ mats[b].T)[idx[a], idx[b]]
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
    return Line.through(T.segment_center, T.direction)


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


def segment_point_distances(points: np.ndarray, center: np.ndarray, u: np.ndarray, length: float) -> np.ndarray:
    """Distances from an array of points (m, n) to the segment center +- (length/2) u."""
    rel = points - center
    t = rel @ u
    np.clip(t, -0.5 * length, 0.5 * length, out=t)
    return np.linalg.norm(rel - t[:, None] * u[None, :], axis=1)


# ---------------------------------------------------------------------------
# spherical cap covers
# ---------------------------------------------------------------------------

# Ring-lattice layout constants: polar rings spaced 0.7*alpha apart, in-ring
# resolution 0.6*alpha/sin(theta).  Any point of the sphere is then within
# 0.35*alpha + 1.05*0.6*alpha < alpha of a center (geodesically).
_POLAR_FRACTION = 0.7
_RING_FRACTION = 0.6


def _circle_net(alpha: float) -> np.ndarray:
    m = max(int(math.ceil(math.pi / alpha)), 1)
    angles = (np.arange(m) + 0.5) * (2.0 * math.pi / m)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _sphere_net(dim: int, alpha: float) -> np.ndarray:
    """Deterministic covering of S^(dim-1) in R^dim within geodesic radius alpha."""
    if dim == 2:
        return _circle_net(alpha)
    d_theta = _POLAR_FRACTION * alpha
    k_rings = max(int(math.ceil(math.pi / d_theta)), 1)
    rows = []
    for k in range(k_rings):
        theta = (k + 0.5) * math.pi / k_rings
        s, c = math.sin(theta), math.cos(theta)
        if math.pi * s <= _RING_FRACTION * alpha:
            sub = np.zeros((1, dim - 1))
            sub[0, 0] = 1.0
        else:
            gamma = _RING_FRACTION * alpha / s
            sub = _sphere_net(dim - 1, gamma)
        ring = np.empty((sub.shape[0], dim))
        ring[:, : dim - 1] = s * sub
        ring[:, dim - 1] = c
        rows.append(ring)
    return np.vstack(rows)


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


def build_cap_cover(n: int, rho: float) -> CapCover:
    """Cover S^(n-1) by caps of diameter rho (ring-lattice construction).

    Returns canonical (unoriented) centers; antipodal duplicates are merged.
    """
    if n < 2:
        raise GeometryError("cap covers need ambient dimension >= 2")
    if not 0.0 < rho <= 1.0:
        raise GeometryError(f"cap diameter must lie in (0, 1], got {rho}")
    raw = _sphere_net(n, rho)
    seen: dict[bytes, Direction] = {}
    for row in raw:
        d = Direction(row)
        seen.setdefault(d.u.tobytes(), d)
    return CapCover(rho, list(seen.values()), n)
