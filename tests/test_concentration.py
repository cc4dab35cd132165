"""Ball nets, non-concentration scans and random thinning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelab import concentration
from tubelab.concentration import (
    BallNet,
    IncrementalBallCounter,
    ThinningError,
    ball_condition_worst_ratio,
    check_ball_condition,
    concentration_exponent,
    random_thin,
    random_thin_trials,
    worst_ratio_of_lines,
)
from tubelab.functionals import TubeFamily
from tubelab.linegeom import Direction, GeometryError, Line, SphereNet, Tube, line_metric


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
        lines.append(Line(u, x))
    return lines


class TestBallNet:
    def test_radii_dyadic_span(self):
        net = BallNet.build(2, 2.0**-5)
        assert net.radii[0] == 2.0**-5
        assert net.radii[-1] == 1.0
        for a, b in zip(net.radii, net.radii[1:]):
            assert b == pytest.approx(2 * a) or b == 1.0

    @pytest.mark.parametrize("delta", [0.0, -0.25, 0.75, float("nan"), float("inf")])
    def test_scale_outside_range_rejected(self, delta):
        with pytest.raises(GeometryError, match=r"ball-net scale must lie in \(0, 1/2\]"):
            BallNet.build(2, delta)

    def test_coverage_random_probes(self):
        """Every line has a net center within r: the nearest candidate center
        by `line_metric` to each `center_line`."""
        rng = np.random.default_rng(0)
        for n in (2, 3):
            net = BallNet.build(n, 2.0**-3)
            for line in random_lines(rng, 40, n):
                for r in net.radii:
                    assert min(metric_to_candidates(net, r, line).values()) <= r

    def test_overlap_bound_random_probes(self):
        rng = np.random.default_rng(1)
        for n in (2, 3):
            net = BallNet.build(n, 2.0**-3)
            worst = 0
            for line in random_lines(rng, 40, n):
                for r in net.radii:
                    worst = max(worst, sum(d <= r + 1e-12 for d in metric_to_candidates(net, r, line).values()))
            assert worst <= net.overlap_bound

    def test_membership_matches_line_metric_oracle(self):
        """The incidence distances are line_metric to each center_line, the
        balls a counter adds a line to are the candidates within r by it, and
        their packed keys sort as the keys (r, w_idx, *j) do."""
        rng = np.random.default_rng(2)
        for n in (2, 3):
            net = BallNet.build(n, 2.0**-4)
            for line in random_lines(rng, 6, n):
                inside = []
                for r in net.radii:
                    metric = metric_to_candidates(net, r, line)
                    inside += [key for key, d in metric.items() if d <= r + 1e-12]
                    _, _, center_of, dist, _ = net._incidences((r,), line.x[None], line.u.u[None])
                    np.testing.assert_allclose(dist[np.argsort(center_of)], list(metric.values()), rtol=0, atol=1e-12)
                assert inside == sorted(inside)
                counter = IncrementalBallCounter(net, 2.0**-4, 1, 1.0)
                assert counter.try_add(line)
                assert list(counter._counts) == packed_keys(net, inside) == sorted(packed_keys(net, inside))
                assert set(counter._counts.values()) == {1}


def metric_to_candidates(net, r, line):
    """{key: line_metric(line, center_line)} over the line's candidate keys."""
    keys = net.candidate_keys(r, line.x[None], line.u.u[None])
    return {key: line_metric(line, net.center_line(r, wi, j)) for key, (wi, j) in keys.items()}


def packed_keys(net, keys):
    """The net's int64 ball keys of tuple keys (r, w_idx, *j)."""
    rows = np.array([(net.radii.index(k[0]), *k[1:]) for k in keys], dtype=np.int64).reshape(-1, net.n + 1)
    return net._keys(rows[:, 0], rows[:, 1], rows[:, 2:]).tolist()


def clustered_lines(rng, count, n, spread):
    """Lines whose directions and feet scatter by `spread` around e0 through 0."""
    lines = []
    for _ in range(count):
        u = np.eye(n)[0] + spread * rng.normal(size=n)
        lines.append(Line(u / np.linalg.norm(u), spread * rng.normal(size=n)))
    return lines


def full_net_max(n, r, lines):
    """Largest line count over every center of the radius-r net: all rows of
    SphereNet(n, r/4) times every foot lattice point within 1 + r of 0."""
    sphere, g = SphereNet(n, r / 4.0), r / 2.0
    axis = np.arange(-int((1.0 + r) / g), int((1.0 + r) / g) + 1)
    lattice = np.stack(np.meshgrid(*[axis] * (n - 1), indexing="ij"), axis=-1).reshape(-1, n - 1) * g
    lattice = lattice[np.linalg.norm(lattice, axis=1) <= 1.0 + r]
    bases = sphere.complements(np.arange(len(sphere)))
    feet = np.einsum("wij,ki->wkj", bases, lattice)
    counts = np.zeros(feet.shape[:2], dtype=np.int64)
    for line in lines:
        wedge = np.sqrt(np.clip(1.0 - (sphere.rows @ line.u.u) ** 2, 0.0, 1.0))
        counts += np.linalg.norm(feet - line.x, axis=2) + wedge[:, None] <= r + 1e-12
    return float(counts.max())


class TestScanAgainstFullNet:
    """Scan maxima against every center of the net, not only the candidates;
    line feet stay inside B(0, 1), so a center holding a line has its foot
    within 1 + r."""

    @pytest.mark.parametrize("n, delta", [(2, 2.0**-5), (3, 2.0**-2)])
    @pytest.mark.parametrize("kind", ["random", "clustered"])
    def test_scan_max_equals_full_net_max(self, n, delta, kind):
        rng = np.random.default_rng(5 + n)
        lines = random_lines(rng, 24, n, max_foot=0.5) if kind == "random" else clustered_lines(rng, 24, n, delta)
        feet, dirs = np.stack([l.x for l in lines]), np.stack([l.u.u for l in lines])
        net = BallNet.build(n, delta)
        for r in net.radii:
            assert net.scan(r, feet, dirs)[0] == full_net_max(n, r, lines), r


class TestIncidenceConsumers:
    NETS = {2: BallNet.build(2, 2.0**-4), 3: BallNet.build(3, 2.0**-3)}

    @given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0]))
    @settings(max_examples=30, deadline=None)
    def test_monotone_ratio_and_counter_family_passes(self, n, seed, beta):
        """Adding a line never lowers the worst ratio, and a family built by
        try_add passes check_ball_condition, with the counter's largest count
        at each radius equal to the scan maximum on the same net."""
        net, delta = self.NETS[n], self.NETS[n].delta
        lines = clustered_lines(np.random.default_rng(seed), 8, n, 0.1)
        ratios = [worst_ratio_of_lines(lines[:k], delta, 1, beta, net) for k in range(1, len(lines) + 1)]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))

        kept = assert_counters_match_scans(net, lines, 1, beta)
        assert check_ball_condition(kept, delta, 1, beta, net)[0]


def assert_counters_match_scans(net, lines, d, beta):
    """Insert the lines into an `IncrementalBallCounter` and a
    `PerRadiusCounter`: the decisions and the per-ball counts (under packed
    keys) agree, and at each radius the largest count is the scan maximum of
    the kept lines.  Returns the kept lines."""
    counter = IncrementalBallCounter(net, net.delta, d, beta)
    reference = PerRadiusCounter(net, net.delta, d, beta)
    decisions = [counter.try_add(l) for l in lines]
    assert decisions == [reference.try_add(l) for l in lines]
    assert counter._counts == reference.packed_counts()
    kept = [l for l, added in zip(lines, decisions) if added]
    feet, dirs = np.stack([l.x for l in kept]), np.stack([l.u.u for l in kept])
    for r in net.radii:
        largest = max(c for key, c in reference.counts.items() if key[0] == r)
        assert largest == net.scan(r, feet, dirs)[0]
    return kept


class PerRadiusCounter:
    """The incremental counter radius by radius, with tuple keys (r, w_idx, *j):
    one `_incidences` call per radius, one dict lookup per key."""

    def __init__(self, net, delta, d, beta):
        self.net, self.delta, self.s = net, delta, 2.0 * (d - 1) + beta
        self.counts = {}

    def keys(self, line):
        found = []
        for r in self.net.radii:
            centers, _, center_of, dist, _ = self.net._incidences((r,), line.x[None], line.u.u[None])
            found += [(r, *c[1:]) for c in centers[np.sort(center_of[dist <= r + 1e-12])].tolist()]
        return found

    def violations(self, line):
        """Radii at which adding the line would break a bound."""
        return sorted(
            {key[0] for key in self.keys(line) if self.counts.get(key, 0) + 1 > (key[0] / self.delta) ** self.s * (1.0 + 1e-12)}
        )

    def try_add(self, line):
        keys = self.keys(line)
        for key in keys:
            if self.counts.get(key, 0) + 1 > (key[0] / self.delta) ** self.s * (1.0 + 1e-12):
                return False
        for key in keys:
            self.counts[key] = self.counts.get(key, 0) + 1
        return True

    def packed_counts(self):
        """The counts under the net's int64 ball keys."""
        return dict(zip(packed_keys(self.net, self.counts), self.counts.values()))


class TestBatchedCounter:
    """One incidence pass over all radii and packed keys make the decisions
    and end with the counts of the per-radius counter."""

    NETS = {2: BallNet.build(2, 2.0**-4), 3: BallNet.build(3, 2.0**-3)}

    @given(
        st.sampled_from([2, 3]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.5, 1.0]),
        st.sampled_from([0.05, 0.2, 0.6]),
    )
    @settings(max_examples=20, deadline=None)
    def test_same_decisions_and_counts(self, n, seed, beta, spread):
        net = self.NETS[n]
        rng = np.random.default_rng(seed)
        lines = clustered_lines(rng, 10, n, spread) + random_lines(rng, 4, n, max_foot=0.5)
        lines += [lines[i] for i in rng.integers(len(lines), size=3)]
        counter = IncrementalBallCounter(net, net.delta, 1, beta)
        reference = PerRadiusCounter(net, net.delta, 1, beta)
        for line in lines:
            assert counter.try_add(line) == reference.try_add(line)
            assert counter._counts == reference.packed_counts()

    @pytest.mark.parametrize("d, beta, spread", [(2, 0.5, 0.2), (1, 1.0, 0.6)])
    def test_n4_decisions_counts_and_scan_maxima(self, d, beta, spread):
        """In n = 4 line space at delta = 0.5 (55,468 net rows over both
        radii) the counters agree, and each radius's scan maximum on the kept
        lines is the largest count there."""
        rng = np.random.default_rng(4)
        lines = clustered_lines(rng, 8, 4, spread) + random_lines(rng, 4, 4, max_foot=0.5)
        lines += lines[:2]
        kept = assert_counters_match_scans(BallNet.build(4, 0.5), lines, d, beta)
        assert 0 < len(kept) < len(lines)

    @pytest.mark.parametrize("n", [2, 3])
    def test_line_rejected_at_one_radius(self, n):
        """A repeated line breaks only the r = delta bound of 1 at beta = 1;
        every larger radius still has room for it."""
        net = self.NETS[n]
        line = random_lines(np.random.default_rng(n), 1, n, max_foot=0.5)[0]
        counter = IncrementalBallCounter(net, net.delta, 1, 1.0)
        reference = PerRadiusCounter(net, net.delta, 1, 1.0)
        assert counter.try_add(line) and reference.try_add(line)
        assert reference.violations(line) == [net.delta]
        assert not counter.try_add(line)
        assert not reference.try_add(line)
        assert counter._counts == reference.packed_counts()
        assert set(counter._counts.values()) == {1}


class TestSharedNets:
    """Every ball net takes its direction nets from `_DIRECTION_NETS`, one
    per (n, r/4) for the whole process."""

    @pytest.mark.parametrize("n, delta", [(2, 2.0**-4), (3, 2.0**-4), (4, 0.5)])
    def test_shared_net_equals_a_fresh_net(self, n, delta):
        """Rows and the foot basis of every row are byte for byte those of a
        fresh `SphereNet(n, r/4)`, after the shared table was filled in
        batches of random order."""
        rng = np.random.default_rng(n)
        net = BallNet.build(n, delta)
        for r in net.radii:
            shared = net._net(r)
            assert shared is concentration._DIRECTION_NETS[(n, r / 4.0)]
            assert BallNet.build(n, delta)._net(r) is shared
            for part in np.array_split(rng.permutation(len(shared)), 3):
                shared.complements(part)
            fresh = SphereNet(n, r / 4.0)
            every = np.arange(len(fresh))
            assert shared.rows.tobytes() == fresh.rows.tobytes()
            assert shared.complements(every).tobytes() == fresh.complements(every).tobytes()

    def test_shared_rows_are_read_only(self):
        rows = BallNet.build(2, 2.0**-4)._net(2.0**-4).rows
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0.0


class TestLimits:
    def test_direction_net_limit_names_its_inputs(self, monkeypatch):
        monkeypatch.setattr(concentration, "MAX_NET_ROWS", 1000)
        monkeypatch.setattr(concentration, "_DIRECTION_NETS", {})
        net = BallNet.build(4, 0.5)
        feet, dirs = np.zeros((1, 4)), np.eye(4)[:1]
        with pytest.raises(MemoryError, match=r"n = 4 at r = 1 has 6288 rows, above MAX_NET_ROWS = 1000; use a larger delta"):
            net.scan(1.0, feet, dirs)
        assert (4, 0.25) not in concentration._DIRECTION_NETS

    def test_refused_net_is_never_built(self, monkeypatch):
        """The row count of a refused net comes from its ring layout: no
        `SphereNet` is built, on the first call or on a repeated one."""
        built = []

        class CountingNet(SphereNet):
            def __init__(self, dim, alpha):
                built.append((dim, alpha))
                super().__init__(dim, alpha)

        monkeypatch.setattr(concentration, "SphereNet", CountingNet)
        monkeypatch.setattr(concentration, "_DIRECTION_NETS", {})
        net = BallNet.build(4, 0.125)
        feet, dirs = np.zeros((1, 4)), np.eye(4)[:1]
        for _ in range(2):
            with pytest.raises(MemoryError, match=r"n = 4 at r = 0.125 has 3084016 rows, above MAX_NET_ROWS = 2000000"):
                net.scan(0.125, feet, dirs)
        assert built == [] and concentration._DIRECTION_NETS == {}

    @pytest.mark.parametrize("dim, alpha", [(2, 0.3), (3, 1.0), (3, 2.0**-6), (4, 0.5), (4, 0.25), (5, 1.0)])
    def test_net_size_is_its_row_count(self, dim, alpha):
        assert SphereNet.size(dim, alpha) == len(SphereNet(dim, alpha))

    def test_counter_key_beyond_its_radix_fails_loudly(self):
        """A foot index outside the fixed field of the ball keys raises, from
        an insertion and from a scan alike, rather than wrapping into another
        ball's key."""
        net = BallNet.build(3, 2.0**-3)
        counter = IncrementalBallCounter(net, 2.0**-3, 1, 1.0)
        u = Direction([1.0, 0.0, 0.0])
        assert counter.try_add(Line(u, [0.0, 4e5, 0.0]))
        assert net.scan(net.delta, np.array([[0.0, 4e5, 0.0]]), u.u[None])[0] == 1.0
        with pytest.raises(OverflowError, match=KEY_OVERFLOW.format(delta=0.125)):
            counter.try_add(Line(u, [0.0, 6e5, 0.0]))
        with pytest.raises(OverflowError, match=KEY_OVERFLOW.format(delta=0.125)):
            net.scan(net.delta, np.array([[0.0, 6e5, 0.0]]), u.u[None])

    def test_unpackable_lattice_fails_loudly(self):
        net = BallNet.build(3, 0.5)
        feet = np.array([[0.0, 1e9, 1e9], [0.0, -1e9, -1e9]])
        with pytest.raises(OverflowError, match=KEY_OVERFLOW.format(delta=0.5)):
            net.scan(1.0, feet, np.tile(np.eye(3)[0], (2, 1)))


#: The one error of a foot index outside the ball-key layout.
KEY_OVERFLOW = r"foot index beyond \+-\d+ in the ball keys at delta = {delta:g}; lines too far out"


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

    def test_empty_line_set_rejected(self):
        with pytest.raises(GeometryError, match="non-empty line set"):
            worst_ratio_of_lines([], 2.0**-4, 1, 1.0, BallNet.build(2, 2.0**-4))


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
        trials = random_thin_trials(pair, A=2.0, C0=1.0, eps=0.0, delta=delta, seed=3, trials=3000,
                                    net=net, d=1, beta=1.0)
        assert np.count_nonzero(trials) / 3000 == pytest.approx(0.75, abs=0.035)

    def test_trials_match_when_balls_fail(self):
        # A near-coincident pair and two far lines at probability 1/2: a
        # mask fails the size test when it keeps nothing and the r = delta
        # ball bound when it keeps the whole pair.  Each redrawn mask is
        # judged by the all-pairs reference.
        delta = 2.0**-6
        u = Direction([1.0, 0.0])
        lines = [Line(u, [0.0, y]) for y in (0.0, delta / 100, 0.5, -0.5)]
        net = BallNet.build(2, delta)
        trials = random_thin_trials(lines, A=2.0, C0=1.0, eps=0.0, delta=delta, seed=8, trials=200,
                                    net=net, d=1, beta=1.0)
        masks = np.random.default_rng(8).random((200, 4)) < 0.5
        verdicts = {m: reference_accepts(lines, m, 0.5, delta, 1.0, net.radii) for m in set(map(tuple, masks))}
        assert trials.tolist() == [verdicts[tuple(m)][0] for m in masks]
        failures = {"ball" if worst else "size" for ok, worst in verdicts.values() if not ok}
        assert failures == {"ball", "size"}

    @pytest.mark.parametrize(
        "lines, seed, trials, message",
        [
            ([], 1, 1, "non-empty line set"),
            (None, 1, 0, "trials must be >= 1, got 0"),
            (None, 1, -1, "trials must be >= 1, got -1"),
            (None, -1, 1, "non-negative"),
        ],
    )
    def test_trials_input_errors(self, lines, seed, trials, message):
        delta = 2.0**-4
        lines = parallel_lines(4, 2.0**-2) if lines is None else lines
        with pytest.raises(ValueError, match=message):
            random_thin_trials(lines, A=2.0, C0=1.0, eps=0.0, delta=delta, seed=seed, trials=trials,
                               net=BallNet.build(2, delta), d=1, beta=1.0)

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

    def test_empty_line_set_rejected(self):
        with pytest.raises(GeometryError, match="non-empty line set"):
            random_thin([], A=1.0, C0=1.0, eps=0.0, delta=2.0**-4, seed=0,
                        net=BallNet.build(2, 2.0**-4), d=1, beta=1.0)

    @pytest.mark.parametrize("max_attempts", [0, -1])
    def test_attempts_below_one_rejected(self, max_attempts):
        with pytest.raises(ValueError, match="max_attempts must be >= 1"):
            random_thin(parallel_lines(4, 2.0**-2), A=1.0, C0=1.0, eps=0.0, delta=2.0**-4, seed=0,
                        net=BallNet.build(2, 2.0**-4), d=1, beta=1.0, max_attempts=max_attempts)


def reference_accepts(lines, mask, q, delta, s, radii):
    """(ok, worst) for the lines `mask` keeps: the size rule, then all-pairs
    counts over every net center (`full_net_max`); worst is (r, count,
    bound) of the worst violating ball, or None when the size rule fails."""
    kept = [l for l, m in zip(lines, mask) if m]
    if 2 * len(kept) < q * len(lines) or not kept:
        return False, None
    worst, excess = None, 1.0
    for r in radii:
        bound = (r / delta) ** s
        if bound >= len(kept):
            continue
        count = full_net_max(lines[0].n, r, kept)
        if count > bound * (1.0 + 1e-12) and count / bound > excess:
            worst, excess = (r, count, bound), count / bound
    return worst is None, worst


def reference_thin(lines, q, seed, delta, s, radii, max_attempts):
    """Per-attempt thinning: redraw each attempt's mask and judge it with
    `reference_accepts`.

    Returns ("ok", kept, attempts) or ("fail", kept, (r, count, bound)) with
    the last failing attempt's kept lines and worst ball."""
    failed = None
    for attempt in range(max_attempts):
        mask = np.random.default_rng([seed, attempt]).random(len(lines)) < q
        kept = [l for l, m in zip(lines, mask) if m]
        ok, worst = reference_accepts(lines, mask, q, delta, s, radii)
        if ok:
            return "ok", kept, attempt + 1
        if worst is not None:
            failed = kept, worst
    return ("fail", *failed) if failed else ("fail", [], None)


class TestRandomThinAgainstReference:
    """Thinning counted by mask from one incidence table gives the outcome of
    re-checking every attempt's kept lines against the whole net."""

    #: n -> (delta, d, number of lines); the (seed, A, beta) cases below give
    #: first- and second-attempt successes and failures on these sets.
    SETUPS = {2: (2.0**-5, 1, 20), 3: (0.5, 2, 12)}
    CASES = [(0, 2.0, 1.0), (0, 2.0, 0.5), (2, 2.0, 1.0), (5, 4.0, 1.0), (7, 4.0, 1.0)]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", ["random", "clustered", "concentrated"])
    def test_outcomes_match(self, n, kind):
        delta, d, count = self.SETUPS[n]
        rng = np.random.default_rng([n, len(kind)])
        if kind == "random":
            lines = random_lines(rng, count, n, max_foot=0.5)
        else:
            lines = clustered_lines(rng, count, n, 0.3 if kind == "clustered" else delta / 8)
        net = BallNet.build(n, delta)
        outcomes = []
        for seed, A, beta in self.CASES:
            s = concentration_exponent(d, beta)
            expected = reference_thin(lines, 1.0 / A, seed, delta, s, net.radii, max_attempts=3)
            try:
                res = random_thin(lines, A=A, C0=1.0, eps=0.0, delta=delta, seed=seed,
                                  net=net, d=d, beta=beta, max_attempts=3)
                got = ("ok", list(res.lines), res.attempts)
            except ThinningError as err:
                worst = err.worst_ball
                if worst is not None:
                    r, key, held, bound = worst
                    center = net.center_line(r, key[1], tuple(key[2:]))
                    assert sum(line_metric(line, center) <= r + 1e-12 for line in expected[1]) == held, (seed, key)
                    worst = (r, held, bound)
                got = ("fail", expected[1], worst)
            assert got == expected, (seed, A, beta)
            outcomes.append(got[0])
        if kind == "concentrated":
            assert set(outcomes) == {"fail"}
        if kind == "random":
            assert "ok" in outcomes


class TestKeptIncidences:
    """The net keeps one line set's incidences; every other set, a reordering
    or a superset included, gets its own counts."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_results_equal_a_fresh_net(self, n):
        delta = 2.0**-4
        rng = np.random.default_rng(n)
        a = clustered_lines(rng, 10, n, 0.05)
        b = random_lines(rng, 10, n, max_foot=0.5)
        sets = [a, b, a, [a[i] for i in rng.permutation(len(a))], a + b[:1], random_lines(rng, 10, n, max_foot=0.5)]

        def outcome(lines, net):
            feet, dirs = np.stack([l.x for l in lines]), np.stack([l.u.u for l in lines])
            scans = [net.scan(r, feet, dirs) for r in net.radii]
            try:
                res = random_thin(lines, A=2.0, C0=1.0, eps=0.0, delta=delta, seed=5,
                                  net=net, d=1, beta=1.0, max_attempts=3)
                thin = (res.lines, res.attempts)
            except ThinningError as err:
                thin = err.worst_ball
            return scans, check_ball_condition(lines, delta, 1, 1.0, net), thin

        net = BallNet.build(n, delta)
        for lines in sets:
            assert outcome(lines, net) == outcome(lines, BallNet.build(n, delta))
        last = sets[-1]
        assert net._kept_key == (np.stack([l.x for l in last]).tobytes(), np.stack([l.u.u for l in last]).tobytes())


class TestCheckBallCondition:
    def test_agrees_with_worst_ratio(self):
        rng = np.random.default_rng(12)
        delta = 2.0**-5
        net = BallNet.build(2, delta)
        lines = random_lines(rng, 12, 2, max_foot=0.5)
        ok, worst = check_ball_condition(lines, delta, 1, 1.0, net)
        ratio = worst_ratio_of_lines(lines, delta, 1, 1.0, net)
        assert ok == (ratio <= 1.0 + 1e-9)

    def test_empty_line_set_rejected(self):
        """An empty set is refused, as by `worst_ratio_of_lines`, not certified."""
        with pytest.raises(GeometryError, match="non-empty line set"):
            check_ball_condition([], 2.0**-4, 1, 1.0, BallNet.build(2, 2.0**-4))
