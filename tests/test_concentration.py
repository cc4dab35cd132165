"""Ball nets, non-concentration scans and random thinning."""

import numpy as np
import pytest

from tubelab.concentration import (
    BallNet,
    IncrementalBallCounter,
    ThinningError,
    ball_condition_worst_ratio,
    check_ball_condition,
    random_thin,
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
