"""Suite members and the per-member constants built on them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelab import generators, suites
from tubelab.functionals import FamilyRaster, Grid, TubeFamily, decompose_lp, induction_step_terms
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


def test_random_family_drawn_once_per_process(monkeypatch):
    """Suite members share one complete draw per (generator, delta, seed);
    an incomplete draw is never kept."""
    real = suites.gen_random_nonconcentrated
    calls = []

    def partial(n, d, beta, delta, seed=0):
        res = real(n, d, beta, delta, seed=seed)
        return RandomFamilyResult(res.family, complete=False, draws=res.draws)

    def counting(n, d, beta, delta, seed=0):
        calls.append((n, delta, seed))
        return real(n, d, beta, delta, seed=seed)

    member = suites.suite_member("random-n2-d1")
    monkeypatch.setattr(suites, "gen_random_nonconcentrated", partial)
    for _ in range(2):
        with pytest.raises(suites.IncompleteFamilyError):
            member.family(2.0**-5)
    monkeypatch.setattr(suites, "gen_random_nonconcentrated", counting)
    F = member.family(2.0**-5)
    assert all(f is F for f in member.mk_families(2.0**-5))
    assert suites.suite_member("random-n2-d1").family(2.0**-5) is F
    assert calls == [(2, 2.0**-5, 11)]


def test_incomplete_family_error_shared_with_generators():
    assert suites.IncompleteFamilyError is generators.IncompleteFamilyError


def _split_terms(F: TubeFamily, k: int) -> tuple[float, ...]:
    raster = FamilyRaster.build(F, Grid.for_family(F, factor=4))
    rho = suites.DECOMPOSE_RHO
    return decompose_lp(raster, rho, k, F.p) + induction_step_terms(raster, rho)


_PERMUTED = {}


def _member_terms(name: str):
    if name not in _PERMUTED:
        member = suites.suite_member(name)
        F = member.family(2.0**-4)
        _PERMUTED[name] = (F, member.k, _split_terms(F, member.k))
    return _PERMUTED[name]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["axes-n2-k2", "random-n2-d1"]), st.randoms(use_true_random=False))
def test_split_terms_invariant_under_permuting_tubes(name, rnd):
    F, k, want = _member_terms(name)
    tubes = list(F.tubes)
    rnd.shuffle(tubes)
    got = _split_terms(TubeFamily(tubes, F.delta, F.n, F.d, F.beta), k)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
