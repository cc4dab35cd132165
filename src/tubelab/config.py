"""Centralized numerical tolerances.

Every construction-time tolerance used by the geometric types lives in one
record so that the whole library agrees on what "equal", "unit" and
"orthogonal" mean.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # |u| must equal 1 to this accuracy after Direction construction.
    unit_norm: float = 1e-12
    # x . u must vanish to this accuracy for a Line's foot point.
    foot_orthogonality: float = 1e-10
    # Gram matrix of a Subspace basis must equal the identity to this accuracy.
    gram_identity: float = 1e-10
    # A coordinate is "significantly nonzero" (for sign canonicalization)
    # when its magnitude exceeds this.
    sign_threshold: float = 1e-9
    # Probability weights must sum to 1 to this accuracy.
    weight_sum: float = 1e-9


TOL = Tolerances()
