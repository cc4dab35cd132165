"""Spread-or-concentrate dichotomy for multisets of directions.

For a multiset U of unit vectors, either at least half of all ordered
k-tuples are quantitatively transverse (wedge volume >= rho^(k-1)), or a
fixed fraction 2^(-2k) of U lies within rho of a single (k-1)-dimensional
subspace.  `decide_dichotomy` constructs a certificate for one of the two
options and re-verifies it exhaustively before returning.

All threshold comparisons against the combinatorial bounds use exact integer
arithmetic; only the wedge volumes themselves are floating point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linegeom import (
    CapCover,
    Direction,
    GeometryError,
    Subspace,
    complete_orthonormal,
    subspace_wedge,
    tuple_wedges,
)

#: Exhaustive tuple enumeration is used only up to this many tuples.
EXHAUSTIVE_BUDGET = 10**6

#: Sample size for the estimator used beyond the exhaustive budget.
SAMPLE_SIZE = 10**5

#: Number of random subspaces probed when approximating the capture supremum.
RANDOM_SUBSPACE_PROBES = 64


class BudgetError(RuntimeError):
    """Tuple space too large for exhaustive enumeration."""


class UncertifiedDichotomyError(RuntimeError):
    """Neither option could be certified (floating-point edge case)."""


@dataclass(frozen=True)
class DirectionMultiset:
    """A non-empty multiset of directions in a common dimension."""

    items: tuple[Direction, ...]
    n: int

    def __init__(self, items):
        items = tuple(d if isinstance(d, Direction) else Direction(d) for d in items)
        if not items:
            raise GeometryError("direction multiset must be non-empty")
        n = items[0].n
        if any(d.n != n for d in items):
            raise GeometryError("all directions must share one ambient dimension")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "n", n)

    def __len__(self) -> int:
        return len(self.items)

    def matrix(self) -> np.ndarray:
        return np.stack([d.u for d in self.items])


@dataclass(frozen=True)
class DichotomyResult:
    """Certified outcome: spread tuples (variant A) or a witness subspace (B)."""

    variant: str  # "A" or "B"
    good_tuple_count: int | None = None
    threshold_used: float | None = None
    witness: Subspace | None = None
    captured_count: int | None = None


def _check_budget(N: int, k: int) -> None:
    if N**k > EXHAUSTIVE_BUDGET:
        raise BudgetError(
            f"{N}^{k} tuples exceed the exhaustive budget of {EXHAUSTIVE_BUDGET}; "
            "use estimate_spread_count instead"
        )


def count_spread_tuples(U: DirectionMultiset, k: int, rho: float) -> int:
    """Exact number of ordered k-tuples whose wedge volume is >= rho^(k-1)."""
    if not 2 <= k <= U.n:
        raise GeometryError(f"need 2 <= k <= n, got k={k}, n={U.n}")
    if not 0.0 <= rho <= 1.0:
        raise GeometryError(f"rho must lie in [0, 1], got {rho}")
    _check_budget(len(U), k)
    w = tuple_wedges([U.matrix()] * k)
    return int(np.count_nonzero(w >= rho ** (k - 1)))


def estimate_spread_count(
    U: DirectionMultiset, k: int, rho: float, seed: int = 0, samples: int = SAMPLE_SIZE
) -> tuple[float, tuple[float, float]]:
    """Sampled estimate of count_spread_tuples with a 95% confidence interval.

    For use beyond the exhaustive budget; returns (estimate, (lo, hi)) on the
    scale of tuple counts.
    """
    if not 2 <= k <= U.n:
        raise GeometryError(f"need 2 <= k <= n, got k={k}, n={U.n}")
    mat = U.matrix()
    N = len(U)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, N, size=(samples, k))
    vecs = mat[idx]  # (samples, k, n)
    gram = vecs @ np.swapaxes(vecs, 1, 2)
    det = np.linalg.det(gram)
    hits = np.sqrt(np.clip(det, 0.0, 1.0)) >= rho ** (k - 1)
    p = float(np.mean(hits))
    half = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / samples)
    total = float(N) ** k
    return p * total, (max(p - half, 0.0) * total, min(p + half, 1.0) * total)


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
    captured = sum(1 for d in U.items if subspace_wedge(H, d) <= rho)
    return captured * 4**k >= len(U)


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
    if not 2 <= k <= U.n:
        raise GeometryError(f"need 2 <= k <= n, got k={k}, n={U.n}")
    if not 0.0 < rho <= 1.0:
        raise GeometryError(f"rho must lie in (0, 1], got {rho}")
    N = len(U)
    _check_budget(N, k)
    mat = U.matrix()

    spread = count_spread_tuples(U, k, rho)
    if 2 * spread >= N**k:
        result = DichotomyResult(
            variant="A", good_tuple_count=spread, threshold_used=rho ** (k - 1)
        )
        if not verify_option_a(U, k, rho, spread):
            raise UncertifiedDichotomyError(
                f"option A failed re-verification (count {spread} of {N ** k})"
            )
        return result

    # Smallest j in [2, k] with at least 2^(2j-2k-1) N^j degenerate j-tuples.
    j_star = None
    for j in range(2, k + 1):
        w_j = tuple_wedges([mat] * j)
        degenerate = int(np.count_nonzero(w_j < rho ** (j - 1)))
        # degenerate >= 2^(2j-2k-1) N^j, in exact integer arithmetic.
        if degenerate * 2 ** (2 * k + 1 - 2 * j) >= N**j:
            j_star = j
            break
    if j_star is None:
        raise UncertifiedDichotomyError(
            f"no degenerate index found for N={N}, k={k}, rho={rho}"
        )

    j = j_star
    prefix_wedges = tuple_wedges([mat] * (j - 1))
    full_wedges = tuple_wedges([mat] * j)
    best_near_miss = (-1, None)
    witness_prefix = None
    for prefix in itertools.product(range(N), repeat=j - 1):
        if prefix_wedges[prefix] < rho ** (j - 2):
            continue
        captures = int(np.count_nonzero(full_wedges[prefix] < rho ** (j - 1)))
        if captures * 2 ** (2 * k + 2 - 2 * j) >= N:
            witness_prefix = prefix
            break
        if captures > best_near_miss[0]:
            best_near_miss = (captures, prefix)
    if witness_prefix is None:
        raise UncertifiedDichotomyError(
            f"no witness prefix found at j={j} (best capture count "
            f"{best_near_miss[0]}, spread count {spread} of {N ** k})"
        )

    W = np.linalg.qr(mat[list(witness_prefix)].T)[0].T
    H = Subspace(complete_orthonormal(W, U.n)[: k - 1])
    captured = sum(1 for d in U.items if subspace_wedge(H, d) <= rho)
    result = DichotomyResult(variant="B", witness=H, captured_count=captured)
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
    if not 2 <= k <= U.n:
        raise GeometryError(f"need 2 <= k <= n, got k={k}, n={U.n}")
    N = len(U)
    mat = U.matrix()
    _check_budget(N, k)
    wedge_sum = float(tuple_wedges([mat] * k).sum())

    candidates: list[Subspace] = []
    try:
        res = decide_dichotomy(U, k, rho)
        if res.variant == "B":
            candidates.append(res.witness)
    except (UncertifiedDichotomyError, BudgetError):
        pass
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_SUBSPACE_PROBES):
        q = np.linalg.qr(rng.normal(size=(U.n, k - 1)))[0].T
        candidates.append(Subspace(q))

    best_capture = 0
    for H in candidates:
        captured = sum(1 for d in U.items if subspace_wedge(H, d) <= rho)
        best_capture = max(best_capture, captured)

    rhs = rho ** ((1 - k) / k) * wedge_sum ** (1.0 / k) + best_capture
    return N / rhs if rhs > 0 else math.inf


def cap_partition_counts(U: DirectionMultiset, cover: CapCover) -> list[tuple[int, int]]:
    """Count the elements of U falling in each cap (every containing cap).

    Returns (cap index, count) pairs for the caps with nonzero count.  Each
    direction is assigned to all caps containing it, so the counts total
    between #U and 10^n #U.
    """
    if cover.n != U.n:
        raise GeometryError("cap cover dimension does not match the multiset")
    counts: dict[int, int] = {}
    for d in U.items:
        for ci in cover.caps_containing(d):
            counts[int(ci)] = counts.get(int(ci), 0) + 1
    return sorted(counts.items())
