"""Ball nets, non-concentration scans, pigeonholing and random thinning."""

import math

import numpy as np
import pytest

from tubelab.concentration import (
    BallNet,
    IncrementalBallCounter,
    ThinningError,
    WeightedLineSet,
    ball_condition_worst_ratio,
    ball_measure,
    check_ball_condition,
    dyadic_pigeonhole,
    frostman_constant,
    random_thin,
    separated_subset,
    worst_ratio_of_lines,
)
from tubelab.functionals import TubeFamily
from tubelab.linegeom import Direction, GeometryError, Line, Tube, line_metric


def parallel_lines(count, spacing, direction=(1.0, 0.0), start=None):
    u = Direction(list(direction))
    n = len(direction)
    lines = []
    for i in range(count):
        x = np.zeros(n)
        x[1] = (i - (count - 1) / 2.0) * spacing if start is None else start + i * spacing
        lines.append(Line(u, x))
    return lines


def random_lines(rng, count, n, max_foot=0.8):
    lines = []
    for _ in range(count):
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        x = rng.uniform(-max_foot, max_foot, size=n)
        lines.append(Line.through(x, u))
    return lines


class TestBallNet:
    def test_radii_dyadic_span(self):
        net = BallNet.build(2, 2.0**-5)
        assert net.radii[0] == 2.0**-5
        assert net.radii[-1] == 1.0
        for a, b in zip(net.radii, net.radii[1:]):
            assert b == pytest.approx(2 * a) or b == 1.0

    def test_coverage_random_probes(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            net = BallNet.build(n, 2.0**-3)
            for line in random_lines(rng, 40, n):
                for r in net.radii:
                    assert net.nearest_center_distance(r, line) <= r

    def test_overlap_bound_random_probes(self):
        rng = np.random.default_rng(1)
        for n in (2, 3):
            net = BallNet.build(n, 2.0**-3)
            worst = 0
            for line in random_lines(rng, 40, n):
                for r in net.radii:
                    worst = max(worst, net.balls_containing(r, line))
            assert worst <= net.overlap_bound

    def test_membership_matches_line_metric_oracle(self):
        """The array membership test agrees with line_metric to each center_line."""
        rng = np.random.default_rng(2)
        for n in (2, 3):
            net = BallNet.build(n, 2.0**-4)
            counter = IncrementalBallCounter(net, 2.0**-4, 1, 1.0)
            for line in random_lines(rng, 6, n):
                inside, nearest = [], {}
                feet, dirs = line.x[None], line.u.u[None]
                for r in net.radii:
                    dists = {
                        key: line_metric(line, net.center_line(r, wi, j))
                        for key, (wi, j) in net.candidate_keys(r, feet, dirs).items()
                    }
                    inside += [key for key, dist in dists.items() if dist <= r + 1e-12]
                    assert net.balls_containing(r, line) == sum(dist <= r + 1e-12 for dist in dists.values())
                    assert net.nearest_center_distance(r, line) == pytest.approx(min(dists.values()), abs=1e-12)
                assert counter._containing_keys(line) == inside


class TestWorstRatio:
    def test_single_tube(self):
        delta = 2.0**-5
        F = TubeFamily([Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)], delta, 2, 1, 1.0)
        assert ball_condition_worst_ratio(F, BallNet.build(2, delta)) <= 1.0

    def test_designed_violation_detected(self):
        delta = 2.0**-5
        tubes = [
            Tube([0.0, 1e-4 * i], Direction([1.0, 0.0]), delta) for i in range(32)
        ]
        F = TubeFamily(tubes, delta, 2, 1, 1.0)
        ratio = ball_condition_worst_ratio(F, BallNet.build(2, delta))
        assert ratio >= 16.0

    def test_monotone_under_adding_a_tube(self):
        rng = np.random.default_rng(4)
        delta = 2.0**-4
        net = BallNet.build(2, delta)
        lines = random_lines(rng, 10, 2, max_foot=0.5)
        tubes = [Tube(l.x, l.u, delta) for l in lines]
        prev = None
        for count in (4, 7, 10):
            F = TubeFamily(tubes[:count], delta, 2, 1, 1.0)
            ratio = ball_condition_worst_ratio(F, net)
            if prev is not None:
                assert ratio >= prev - 1e-12
            prev = ratio

    def test_empty_family_rejected(self):
        F = TubeFamily([], 2.0**-4, 2, 1, 1.0)
        with pytest.raises(GeometryError):
            ball_condition_worst_ratio(F, BallNet.build(2, 2.0**-4))


class TestFrostman:
    def test_point_mass(self):
        delta = 2.0**-5
        W = WeightedLineSet([Line(Direction([1.0, 0.0]), [0.0, 0.0])], [1.0], 1, 1.0)
        net = BallNet.build(2, delta)
        c0 = frostman_constant(W, W.exponent, net)
        assert c0 == pytest.approx(delta**-W.exponent, rel=1e-9)
        assert W.C0 == c0

    def test_two_separated_lines(self):
        # Lines at distance > 1: every net ball of radius < 1/2 holds at
        # most one, so the constant is delta^(-s)/2, realized at r = delta.
        delta = 2.0**-5
        lines = [
            Line(Direction([1.0, 0.0]), [0.0, -0.75]),
            Line(Direction([1.0, 0.0]), [0.0, 0.75]),
        ]
        assert line_metric(lines[0], lines[1]) > 1.0
        W = WeightedLineSet(lines, [0.5, 0.5], 1, 1.0)
        c0 = frostman_constant(W, 1.0, BallNet.build(2, delta))
        assert c0 == pytest.approx(0.5 * delta**-1.0, rel=1e-9)

    def test_plane_family_order_one(self):
        from tubelab.generators import gen_lines_in_planes

        delta = 2.0**-6
        F = gen_lines_in_planes(2, 1, 1.0, delta)
        lines = F.lines()
        W = WeightedLineSet(lines, np.full(len(lines), 1.0 / len(lines)), 1, 1.0)
        c0 = frostman_constant(W, 1.0, BallNet.build(2, delta))
        assert c0 <= 10.0  # order-one, recorded

    def test_weight_validation(self):
        with pytest.raises(GeometryError):
            WeightedLineSet([Line(Direction([1.0, 0.0]), [0.0, 0.0])], [0.9], 1, 1.0)


class TestSeparatedSubset:
    def test_identical_lines_collapse(self):
        l = Line(Direction([1.0, 0.0]), [0.0, 0.3])
        assert separated_subset([l, l, l], 0.1) == [l]

    def test_two_distant_lines_kept(self):
        lines = parallel_lines(2, 3 * 0.05)
        assert len(separated_subset(lines, 2 * 0.05)) == 2

    def test_random_lines_separation_and_maximality(self):
        rng = np.random.default_rng(5)
        delta = 0.05
        lines = random_lines(rng, 100, 2)
        kept = separated_subset(lines, 2 * delta)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                assert line_metric(a, b) >= 2 * delta
        for l in lines:
            assert any(line_metric(l, k) < 2 * delta or l == k for k in kept)

    def test_deterministic_and_scale_covariant(self):
        rng = np.random.default_rng(6)
        lines = random_lines(rng, 30, 2, max_foot=0.4)
        kept1 = separated_subset(lines, 0.1)
        kept2 = separated_subset(lines, 0.1)
        assert kept1 == kept2
        lam = 2.0
        scaled = [Line(l.u, l.x * lam) for l in lines]
        kept_scaled = separated_subset(scaled, lam * 0.1)
        # Dilating feet scales foot distances but not wedges; use parallel
        # lines so the metric is purely foot distance.
        par = parallel_lines(20, 0.07)
        kept_par = separated_subset(par, 0.1)
        kept_par_scaled = separated_subset([Line(l.u, l.x * lam) for l in par], lam * 0.1)
        assert [l.x[1] * lam for l in kept_par] == pytest.approx(
            [l.x[1] for l in kept_par_scaled]
        )


class TestDyadicPigeonhole:
    def test_uniform_weights_single_bucket(self):
        delta = 2.0**-5
        lines = parallel_lines(16, 4 * delta)
        W = WeightedLineSet(lines, np.full(16, 1 / 16), 1, 1.0)
        selected, A = dyadic_pigeonhole(W, delta, 1, 1.0)
        assert len(selected) == 16
        # Every line's delta-ball holds exactly its own weight 1/16.
        t = (1 / 16) / delta
        k = math.ceil(-math.log2(t))
        assert A == 2.0**k

    def test_two_band_weights_select_heavier(self):
        delta = 2.0**-6
        lines = parallel_lines(12, 4 * delta)
        w = np.array([1.0] * 8 + [8.0] * 4)
        w = w / w.sum()
        W = WeightedLineSet(lines, w, 1, 1.0)
        selected, A = dyadic_pigeonhole(W, delta, 1, 1.0)
        # Count x level: light bucket 8 * (1/16)/delta vs heavy 4 * (8/16)/delta.
        feet = {float(l.x[1]) for l in selected}
        heavy_feet = {float(l.x[1]) for l in lines[8:]}
        assert feet == heavy_feet

    def test_bucket_bracket_verified_per_line(self):
        rng = np.random.default_rng(8)
        delta = 2.0**-6
        lines = random_lines(rng, 60, 2, max_foot=0.6)
        w = rng.uniform(0.2, 1.0, size=60)
        w /= w.sum()
        W = WeightedLineSet(lines, w, 1, 1.0)
        selected, A = dyadic_pigeonhole(W, delta, 1, 1.0)
        assert selected
        s = 2 * (1 - 1) + 1.0
        for l in selected:
            mass = ball_measure(W, l, delta)
            assert (1.0 / A) * delta**s <= mass * (1 + 1e-9)
            assert mass < 2.0 / A * delta**s * (1 + 1e-9)

    def test_pigeonhole_mass_bound(self):
        # The winning bucket carries at least covered_mass/(2 * #levels) of
        # the per-line delta-ball mass.
        rng = np.random.default_rng(9)
        delta = 2.0**-6
        lines = random_lines(rng, 80, 2, max_foot=0.6)
        w = rng.uniform(0.1, 1.0, size=80)
        w /= w.sum()
        W = WeightedLineSet(lines, w, 1, 1.0)
        sep = separated_subset(W.lines, 2 * delta)
        masses = [ball_measure(W, l, delta) for l in sep]
        levels = {math.ceil(-math.log2(m / delta)) for m in masses if m > 0}
        covered = sum(masses)
        selected, A = dyadic_pigeonhole(W, delta, 1, 1.0)
        bucket_mass = len(selected) * (1.0 / A) * delta
        assert bucket_mass >= covered / (2 * len(levels)) - 1e-12


class TestRandomThin:
    def test_probability_one_keeps_everything(self):
        delta = 2.0**-6
        lines = parallel_lines(32, 4 * delta)
        net = BallNet.build(2, delta)
        res = random_thin(lines, A=1.0, C0=1.0, eps=0.0, delta=delta, seed=0,
                          net=net, d=1, beta=1.0)
        assert len(res.lines) == 32
        assert res.probability == 1.0

    def test_probability_above_one_rejected(self):
        delta = 2.0**-6
        lines = parallel_lines(4, 4 * delta)
        with pytest.raises(ValueError):
            random_thin(lines, A=0.5, C0=1.0, eps=0.0, delta=delta, seed=0,
                        net=BallNet.build(2, delta), d=1, beta=1.0)

    def test_reproducible_and_subset(self):
        delta = 2.0**-7
        lines = parallel_lines(64, 4 * delta)
        net = BallNet.build(2, delta)
        r1 = random_thin(lines, A=2.0, C0=1.0, eps=0.0, delta=delta, seed=42,
                         net=net, d=1, beta=1.0)
        r2 = random_thin(lines, A=2.0, C0=1.0, eps=0.0, delta=delta, seed=42,
                         net=net, d=1, beta=1.0)
        assert r1.lines == r2.lines
        assert set(r1.lines) <= set(lines)

    def test_binomial_small_case_matches_analytic(self):
        # Two far-apart lines, probability 1/2: success means keeping at
        # least one, so P = 1 - (1/2)^2 = 3/4 exactly.
        delta = 1.0 / 64.0
        u = Direction([1.0, 0.0])
        pair = [Line(u, [0.0, 0.0]), Line(u, [0.0, 0.5])]
        net = BallNet.build(2, delta)
        seeds = np.random.default_rng(3).integers(2**62, size=3000)
        wins = 0
        for s in seeds:
            try:
                random_thin(pair, A=2.0, C0=1.0, eps=0.0, delta=delta, seed=int(s),
                            net=net, d=1, beta=1.0, max_attempts=1)
                wins += 1
            except ThinningError:
                pass
        assert wins / 3000 == pytest.approx(0.75, abs=0.035)

    def test_all_retries_fail_carries_worst_ball(self):
        # Concentrated lines at probability 1: every attempt keeps all of
        # them and violates the r = delta ball bound.
        delta = 2.0**-6
        lines = parallel_lines(8, delta / 100)
        net = BallNet.build(2, delta)
        with pytest.raises(ThinningError) as err:
            random_thin(lines, A=1.0, C0=1.0, eps=0.0, delta=delta, seed=0,
                        net=net, d=1, beta=1.0, max_attempts=4)
        assert err.value.worst_ball is not None
        r, key, count, bound = err.value.worst_ball
        assert count > bound


class TestCheckBallCondition:
    def test_agrees_with_worst_ratio(self):
        rng = np.random.default_rng(12)
        delta = 2.0**-5
        net = BallNet.build(2, delta)
        lines = random_lines(rng, 12, 2, max_foot=0.5)
        ok, worst = check_ball_condition(lines, delta, 1, 1.0, net)
        ratio = worst_ratio_of_lines(lines, delta, 1, 1.0, net)
        assert ok == (ratio <= 1.0 + 1e-9)
