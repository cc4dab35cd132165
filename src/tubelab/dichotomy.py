"""Spread-or-concentrate dichotomy for multisets of directions.

For a multiset U of unit vectors, either at least half of all ordered
k-tuples are quantitatively transverse (wedge volume >= rho^(k-1)), or a
fixed fraction 2^(-2k) of U lies within rho of a single (k-1)-dimensional
subspace.  `decide_dichotomy` constructs a certificate for one of the two
options and re-verifies it exhaustively before returning.  Both run on the
multiset's direction matrix, stacked once.

All threshold comparisons against the combinatorial bounds use exact integer
arithmetic; only the wedge volumes themselves are floating point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linegeom import (
    WEDGE_TUPLE_LIMIT, Direction, GeometryError, Subspace, canonical_rows, complete_orthonormal, rowdot, tuple_wedges,
)

#: Number of random subspaces probed when approximating the capture supremum.
RANDOM_SUBSPACE_PROBES = 64


class BudgetError(RuntimeError):
    """Tuple space too large for exhaustive enumeration."""


class UncertifiedDichotomyError(RuntimeError):
    """Neither option could be certified (floating-point edge case)."""


@dataclass(frozen=True, eq=False)
class DirectionMultiset:
    """A non-empty multiset of directions in R^n, stacked once into a
    read-only matrix of `canonical_rows`, each row bit for bit
    `Direction(row).u`.  `items` builds the `Direction`s when first read."""

    n: int

    def __init__(self, items):
        try:
            mat = np.array([d.u if isinstance(d, Direction) else d for d in items], dtype=float)
        except ValueError:
            raise GeometryError("all directions must share one ambient dimension") from None
        if mat.ndim != 2 or not mat.size or mat.shape[1] < 2:
            raise GeometryError(f"need a non-empty multiset of vectors in R^n, n >= 2, got shape {mat.shape}")
        mat = canonical_rows(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "n", mat.shape[1])
        object.__setattr__(self, "_matrix", mat)

    @functools.cached_property
    def items(self) -> tuple[Direction, ...]:
        return tuple(Direction(row) for row in self._matrix)

    def __len__(self) -> int:
        return len(self._matrix)

    def matrix(self) -> np.ndarray:
        return self._matrix


@dataclass(frozen=True)
class DichotomyResult:
    """Certified outcome: spread tuples (variant A) or a witness subspace (B)."""

    variant: str  # "A" or "B"
    good_tuple_count: int | None = None
    witness: Subspace | None = None
    captured_count: int | None = None
    degenerate_index: int | None = None  # j* of variant B


def _check_tuples(U: DirectionMultiset, k: int) -> None:
    if not 2 <= k <= U.n:
        raise GeometryError(f"need 2 <= k <= n, got k={k}, n={U.n}")
    if len(U) ** k > WEDGE_TUPLE_LIMIT:
        raise BudgetError(
            f"{len(U)}^{k} tuples exceed WEDGE_TUPLE_LIMIT = {WEDGE_TUPLE_LIMIT}; "
            "use a smaller multiset or a smaller k"
        )


def _captures(mat: np.ndarray, bases: np.ndarray, rho: float):
    """#{rows u of mat : |H ^ u| <= rho} for H spanned by the orthonormal rows of `bases`
    (m, n), or per basis of a stack (P, m, n); bit for bit `subspace_wedge`, whose
    norm `rowdot` reproduces."""
    B = bases[..., None, :, :]
    proj = np.swapaxes(B, -1, -2) @ (B @ mat[:, :, None])
    r = mat - proj[..., 0]
    wedge = np.minimum(np.sqrt(rowdot(r, r)), 1.0)
    return np.count_nonzero(wedge <= rho, axis=-1)


def count_spread_tuples(U: DirectionMultiset, k: int, rho: float) -> int:
    """Exact number of ordered k-tuples whose wedge volume is >= rho^(k-1)."""
    _check_tuples(U, k)
    if not 0.0 <= rho <= 1.0:
        raise GeometryError(f"rho must lie in [0, 1], got {rho}")
    w = tuple_wedges([U.matrix()] * k)
    return int(np.count_nonzero(w >= rho ** (k - 1)))


def verify_option_a(U: DirectionMultiset, k: int, rho: float, claimed_count: int) -> bool:
    """Exhaustive recount: claimed_count must be exact and meet (1/2) N^k."""
    try:
        actual = count_spread_tuples(U, k, rho)
    except BudgetError:
        return False
    return actual == claimed_count and 2 * claimed_count >= len(U) ** k


def verify_option_b(U: DirectionMultiset, k: int, rho: float, H: Subspace) -> bool:
    """Per-element capture test: #{u : |H ^ u| <= rho} must reach 2^(-2k) N."""
    if H.k != k - 1 or H.n != U.n:
        return False
    return int(_captures(U.matrix(), H.basis, rho)) * 4**k >= len(U)


def decide_dichotomy(U: DirectionMultiset, k: int, rho: float) -> DichotomyResult:
    """Decide the dichotomy and return a certificate verified by its oracle.

    When the spread-count test fails, the smallest index j is located for
    which degenerate j-tuples are abundant, a non-degenerate (j-1)-prefix
    with many near-planar completions is found (first in lexicographic
    order), its span W is extended to a (k-1)-dimensional subspace by
    deterministic completion, and option B is certified against that
    subspace.  The j = 2 case runs through the same path: the wedge volume
    of a 1-prefix is identically 1, so its non-degeneracy condition
    (wedge >= rho^0) holds with equality.
    """
    _check_tuples(U, k)
    if not 0.0 < rho <= 1.0:
        raise GeometryError(f"rho must lie in (0, 1], got {rho}")
    N = len(U)
    mat = U.matrix()
    wedges = {j: tuple_wedges([mat] * j) for j in range(1, k + 1)}

    spread = int(np.count_nonzero(wedges[k] >= rho ** (k - 1)))
    if 2 * spread >= N**k:
        result = DichotomyResult(variant="A", good_tuple_count=spread)
        if not verify_option_a(U, k, rho, spread):
            raise UncertifiedDichotomyError(
                f"option A failed re-verification (count {spread} of {N ** k})"
            )
        return result

    # j*: the smallest j with 2^(2j-2k-1) N^j degenerate j-tuples, in exact integers.
    for j in range(2, k + 1):
        if int(np.count_nonzero(wedges[j] < rho ** (j - 1))) * 2 ** (2 * k + 1 - 2 * j) >= N**j:
            break
    else:
        raise UncertifiedDichotomyError(
            f"no degenerate index found for N={N}, k={k}, rho={rho}"
        )

    # Spanning (j-1)-prefixes with 2^(2j-2k-2) N near-planar completions, lexicographic.
    captures = np.count_nonzero(wedges[j] < rho ** (j - 1), axis=-1)
    spanning = wedges[j - 1] >= rho ** (j - 2)
    hits = np.argwhere(spanning & (captures * 2 ** (2 * k + 2 - 2 * j) >= N))
    if not len(hits):
        raise UncertifiedDichotomyError(
            f"no witness prefix found at j={j} (best capture count "
            f"{int(captures[spanning].max(initial=-1))}, spread count {spread} of {N ** k})"
        )

    W = np.linalg.qr(mat[hits[0]].T)[0].T
    H = Subspace(complete_orthonormal(W, U.n)[: k - 1])
    captured = int(_captures(mat, H.basis, rho))
    result = DichotomyResult(variant="B", witness=H, captured_count=captured, degenerate_index=j)
    if not verify_option_b(U, k, rho, H):
        raise UncertifiedDichotomyError(
            f"option B failed re-verification (captured {captured} of {N}, "
            f"spread count {spread} of {N ** k})"
        )
    return result


def control_card_ratio(U: DirectionMultiset, k: int, rho: float, seed: int = 0) -> float:
    """Ratio of #U to the two-term upper bound it always satisfies.

    The bound is rho^((1-k)/k) (sum of all tuple wedges)^(1/k) plus the
    supremum over (k-1)-subspaces H of #{u : |H ^ u| <= rho}.  The supremum
    is approximated by the constructed dichotomy witness (when variant B
    occurs) together with a fixed number of seeded random subspaces; an
    under-approximated supremum only makes the reported ratio larger.
    """
    _check_tuples(U, k)
    mat = U.matrix()
    wedge_sum = float(tuple_wedges([mat] * k).sum())

    rng = np.random.default_rng(seed)
    probes = np.linalg.qr(rng.normal(size=(RANDOM_SUBSPACE_PROBES, U.n, k - 1)))[0]
    best_capture = int(_captures(mat, np.swapaxes(probes, -1, -2), rho).max())
    try:
        res = decide_dichotomy(U, k, rho)
        if res.variant == "B":
            best_capture = max(best_capture, res.captured_count)
    except UncertifiedDichotomyError:
        pass

    rhs = rho ** ((1 - k) / k) * wedge_sum ** (1.0 / k) + best_capture
    return len(U) / rhs if rhs > 0 else math.inf
