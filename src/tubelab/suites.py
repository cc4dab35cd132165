"""The standard family suite used by regression scenarios and acceptance runs.

Members are small named configurations (n <= 3, k <= 3) regenerated per
scale.  Each provides the k families entering the multilinear transversality
ratio and the single merged family entering the decomposition checks; member
tube counts respect the cardinality budget delta^(2(1-d)-beta) so the
induction-step preconditions hold at every suite scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# lp_norm_tube_sum stays in this namespace, unused: perfbench/spans.py
# wraps suites.lp_norm_tube_sum.
from .functionals import (
    FamilyRaster,
    Grid,
    TubeFamily,
    decompose_lp,
    induction_step_terms,
    lp_norm_tube_sum,
    multilinear_kakeya_lhs,
    multilinear_kakeya_rhs,
)
from .generators import gen_axes, gen_bush, gen_lines_in_planes, gen_random_nonconcentrated


class IncompleteFamilyError(RuntimeError):
    """A suite member's random family stopped short of its target count."""


@dataclass(frozen=True)
class SuiteMember:
    name: str
    n: int
    d: int
    beta: float
    k: int
    mk_families: Callable[[float], list[TubeFamily]]
    family: Callable[[float], TubeFamily]


def _merge(families: list[TubeFamily], d: int, beta: float) -> TubeFamily:
    f0 = families[0]
    tubes = [t for fam in families for t in fam.tubes]
    return TubeFamily(tubes, f0.delta, f0.n, d, beta)


def _axes_member(name: str, n: int, k: int, count: int) -> SuiteMember:
    def mk(delta: float) -> list[TubeFamily]:
        return gen_axes(n, k, delta, count)

    def fam(delta: float) -> TubeFamily:
        return _merge(gen_axes(n, k, delta, count), 1, 1.0)

    return SuiteMember(name, n, 1, 1.0, k, mk, fam)


def _bush_member(name: str, n: int, k: int) -> SuiteMember:
    def build(delta: float) -> TubeFamily:
        return gen_bush(n, delta, int(round(1.0 / delta)))

    return SuiteMember(name, n, 1, 1.0, k, lambda d: [build(d)] * k, build)


def _random_member(name: str, n: int, d: int, beta: float, k: int, seeds) -> SuiteMember:
    def draw(delta: float, seed: int) -> TubeFamily:
        res = gen_random_nonconcentrated(n, d, beta, delta, seed=seed)
        if not res.complete:
            raise IncompleteFamilyError(
                f"suite member {name}: random family at delta={delta}, seed={seed} "
                f"reached {len(res.family)} tubes after {res.draws} draws, short of "
                f"its target; no partial family enters the suite"
            )
        return res.family

    def families(delta: float) -> list[TubeFamily]:
        fams = [draw(delta, s) for s in seeds]
        if len(fams) == 1:
            return [fams[0]] * k
        return fams[:k]

    def fam(delta: float) -> TubeFamily:
        return draw(delta, seeds[0])

    return SuiteMember(name, n, d, beta, k, families, fam)


def _planes_member(name: str, n: int, d: int, beta: float) -> SuiteMember:
    def build(delta: float) -> TubeFamily:
        return gen_lines_in_planes(n, d, beta, delta)

    return SuiteMember(name, n, d, beta, 2, lambda dl: [build(dl)] * 2, build)


def standard_suite() -> list[SuiteMember]:
    return [
        _axes_member("axes-n2-k2", 2, 2, 4),
        _axes_member("axes-n3-k2", 3, 2, 8),
        _axes_member("axes-n3-k3", 3, 3, 5),
        _bush_member("bush-n2", 2, 2),
        _bush_member("bush-n3", 3, 2),
        _random_member("random-n2-d1", 2, 1, 1.0, 2, (11,)),
        _random_member("random-n3-d1", 3, 1, 1.0, 2, (12,)),
        _random_member("random-n3-k3", 3, 1, 1.0, 3, (21, 22, 23)),
        _planes_member("planes-n2-d1-b1", 2, 1, 1.0),
        _planes_member("planes-n3-d1-b05", 3, 1, 0.5),
    ]


def suite_member(name: str) -> SuiteMember:
    for m in standard_suite():
        if m.name == name:
            return m
    raise KeyError(f"no suite member named {name!r}")


# Scales used by the regression scenarios.
MK_DELTAS = (2.0**-4, 2.0**-5)
DECOMPOSE_DELTAS = (2.0**-4, 2.0**-5, 2.0**-6)
DECOMPOSE_RHO = 0.25


def mk_ratio(member: SuiteMember, delta: float, grid_factor: int = 4) -> float:
    """Transversality-norm ratio LHS/RHS for one member at one scale."""
    families = member.mk_families(delta)
    G = Grid.for_family(families[0], factor=grid_factor)
    lhs = multilinear_kakeya_lhs(families, G)
    rhs = multilinear_kakeya_rhs(families)
    return lhs / rhs if rhs > 0 else math.inf


def decompose_constant(
    member: SuiteMember, delta: float, rho: float = DECOMPOSE_RHO, grid_factor: int = 4
) -> float:
    """C with ||sum chi_T||_p <= C (term_multilinear + term_caps)."""
    F = member.family(delta)
    raster = FamilyRaster.build(F, Grid.for_family(F, factor=grid_factor))
    t1, t2 = decompose_lp(raster, rho, min(member.k, F.n), F.p)
    return raster.lp_norm(F.p) / (t1 + t2)


def induction_constant(
    member: SuiteMember, delta: float, rho: float = DECOMPOSE_RHO, grid_factor: int = 4
) -> float:
    """C with ||sum chi_T||_p <= C (term1 + term2) in the coarsening step."""
    F = member.family(delta)
    raster = FamilyRaster.build(F, Grid.for_family(F, factor=grid_factor))
    t1, t2 = induction_step_terms(raster, rho)
    return raster.lp_norm(F.p) / (t1 + t2)
