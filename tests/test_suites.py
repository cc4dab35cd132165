"""Suite members and the per-member constants built on them."""

import numpy as np
import pytest

from tubelab import suites
from tubelab.functionals import FamilyRaster, TubeFamily
from tubelab.generators import RandomFamilyResult
from tubelab.linegeom import Direction, Tube


@pytest.mark.parametrize("constant", [suites.decompose_constant, suites.induction_constant])
def test_constant_rasterizes_its_family_once(monkeypatch, constant):
    build = FamilyRaster.build.__func__
    calls = []

    def counting_build(cls, F, grid):
        calls.append(grid.key())
        return build(cls, F, grid)

    monkeypatch.setattr(FamilyRaster, "build", classmethod(counting_build))
    value = constant(suites.suite_member("axes-n2-k2"), 2.0**-4)
    assert value > 0.0
    assert len(calls) == 1


def test_incomplete_random_family_rejected(monkeypatch):
    def partial(n, d, beta, delta, seed=0):
        tube = Tube(np.zeros(n), Direction(np.eye(n)[0]), delta)
        return RandomFamilyResult(TubeFamily([tube] * 3, delta, n, d, beta), complete=False, draws=800)

    monkeypatch.setattr(suites, "gen_random_nonconcentrated", partial)
    member = suites.suite_member("random-n2-d1")
    pattern = r"random-n2-d1: .*seed=11 reached 3 tubes after 800 draws"
    with pytest.raises(suites.IncompleteFamilyError, match=pattern):
        member.family(2.0**-4)
    with pytest.raises(suites.IncompleteFamilyError, match=pattern):
        member.mk_families(2.0**-4)
