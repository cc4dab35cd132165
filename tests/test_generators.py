"""Generators: plane configurations, rejection sampling, bushes, axes."""

import math

import numpy as np
import pytest

from tubelab import concentration
from tubelab.concentration import BallNet, ball_condition_worst_ratio
from tubelab.generators import (
    SPAN,
    cantor_offsets,
    gen_axes,
    gen_bush,
    gen_lines_in_planes,
    gen_random_nonconcentrated,
)
from tubelab.linegeom import Direction, GeometryError, SphereNet, complete_orthonormal, point_in_tube


class TestCantorOffsets:
    def test_beta_one_full_grid(self):
        off = cantor_offsets(1.0, 1 / 16)
        assert len(off) == 16
        np.testing.assert_allclose(np.diff(off), 1 / 16, atol=1e-12)

    def test_beta_half_counts(self):
        assert len(cantor_offsets(0.5, 2.0**-6)) == 8
        assert len(cantor_offsets(0.5, 2.0**-4)) == 4

    @pytest.mark.parametrize("delta", [0.0, -0.5, 0.75, float("nan")])
    def test_scale_outside_range_rejected(self, delta):
        with pytest.raises(ValueError, match=r"Cantor scale must lie in \(0, 1/2\]"):
            cantor_offsets(0.5, delta)

    def test_covering_exponent(self):
        # Exact covering counts of the construction at dyadic scales fit
        # the target exponent.
        off = cantor_offsets(0.5, 2.0**-6)
        xs, ys = [], []
        for j in range(1, 7):
            s = 2.0**-j
            xs.append(math.log(1 / s))
            ys.append(math.log(len(np.unique(np.floor(off / s)))))
        slope = np.polyfit(xs, ys, 1)[0]
        assert abs(slope - 0.5) <= 0.15


class TestLinesInPlanes:
    def test_n2_d1_b1_count_and_full_mass(self):
        delta = 1 / 16
        F = gen_lines_in_planes(2, 1, 1.0, delta)
        assert len(F) == 16
        # Parallel unit tubes: total mass equals the sum of volumes.
        from tubelab.functionals import Grid, lp_norm_tube_sum

        G = Grid.for_family(F, 4)
        assert lp_norm_tube_sum(F, 1.0, G) == pytest.approx(F.sum_volume(), rel=0.02)

    def test_n3_d2_counting(self):
        delta = 2.0**-5
        F = gen_lines_in_planes(3, 2, 1.0, delta, size_cap=300_000)
        target = delta ** (-2 * (2 - 1) - 1.0)
        assert 0.3 * target <= len(F) <= target

    def test_lines_near_their_planes(self):
        delta = 2.0**-5
        F = gen_lines_in_planes(3, 2, 1.0, delta, size_cap=300_000)
        offsets = (cantor_offsets(1.0, delta) - 0.5) * 0.7
        for t in F.tubes[:: max(len(F) // 60, 1)]:
            # Distance from the segment to the nearest plane, measured along
            # the transverse coordinate e_(d+1).
            gap = min(abs(float(t.segment_center[2]) - o) for o in offsets)
            assert gap <= 2 * delta

    def test_ball_condition_constant_order_one(self):
        delta = 2.0**-6
        F = gen_lines_in_planes(2, 1, 1.0, delta)
        ratio = ball_condition_worst_ratio(F, BallNet.build(2, delta))
        assert ratio <= 8.0

    def test_size_cap(self):
        with pytest.raises(GeometryError, match="larger delta"):
            gen_lines_in_planes(3, 2, 1.0, 2.0**-5, size_cap=100)

    @pytest.mark.parametrize("delta", [2.0**-3, 2.0**-4, 2.0**-5])
    def test_plane_directions_from_cap_cover(self, delta):
        # The cap cover's unoriented centers give the same planes family as
        # a dedupe of the raw net rows by their sign-normalized 9-decimal key:
        # equal directions, and byte-identical feet, since the in-plane
        # completion of -u is that of u.
        keep, seen = [], set()
        for u in SphereNet(2, delta * math.pi / 2.0).rows:
            key = tuple(np.round(np.where(np.abs(u) > 1e-9, u * np.sign(u[np.argmax(np.abs(u) > 1e-9)]), u), 9))
            if key not in seen:
                seen.add(key)
                keep.append(u)
        offsets = (cantor_offsets(1.0, delta) - 0.5) * SPAN
        feet_1d = np.arange(-SPAN / 2.0, SPAN / 2.0 + 1e-12, delta)
        dirs, centers = [], []
        for u in keep:
            in_plane = complete_orthonormal(u[None], 2)[1]
            for off in offsets:
                for c in feet_1d:
                    dirs.append(Direction([u[0], u[1], 0.0]).u)
                    centers.append(np.array([0.0, 0.0, off]) + c * np.array([in_plane[0], in_plane[1], 0.0]))
        F = gen_lines_in_planes(3, 2, 1.0, delta, size_cap=300_000)
        assert len(F) == len(centers)
        assert all((t.direction.u == u).all() for t, u in zip(F.tubes, dirs))
        assert b"".join(t.segment_center.tobytes() for t in F.tubes) == np.stack(centers).tobytes()

    def test_cardinality_budget_respected(self):
        for n, d, beta in ((2, 1, 1.0), (3, 1, 0.5), (3, 2, 1.0)):
            for delta in (2.0**-4, 2.0**-5):
                F = gen_lines_in_planes(n, d, beta, delta, size_cap=300_000)
                assert len(F) <= delta ** (2 * (1 - d) - beta) * (1 + 1e-9)


class TestRandomNonconcentrated:
    def test_target_one(self):
        # beta = 0 makes the target count 1 and the ball bound 1 at every
        # radius: the first candidate is accepted and no second one can be.
        res = gen_random_nonconcentrated(2, 1, 0.0, 2.0**-4, seed=0)
        assert len(res.family) == 1
        assert res.complete

    def test_passes_independent_recheck(self):
        delta = 2.0**-5
        res = gen_random_nonconcentrated(2, 1, 1.0, delta, seed=5)
        assert res.complete
        assert len(res.family) == 32
        fresh_net = BallNet.build(2, delta)
        assert ball_condition_worst_ratio(res.family, fresh_net) <= 1.0 + 1e-9

    def test_at_most_one_line_per_delta_ball(self):
        from tubelab.linegeom import line_metric, line_of_tube

        delta = 2.0**-4
        res = gen_random_nonconcentrated(2, 1, 1.0, delta, seed=9)
        lines = [line_of_tube(t) for t in res.family.tubes]
        # The r = delta bound is 1, so accepted axes keep their distance.
        for i, a in enumerate(lines):
            for b in lines[i + 1 :]:
                assert line_metric(a, b) > delta / 2

    def test_reproducible(self, monkeypatch):
        """A draw on an emptied net dict and a draw on the nets it left
        behind give the same bytes."""
        delta = 2.0**-4
        monkeypatch.setattr(concentration, "_DIRECTION_NETS", {})
        a = gen_random_nonconcentrated(2, 1, 1.0, delta, seed=7).family
        assert len(concentration._DIRECTION_NETS) == len(BallNet.build(2, delta).radii)
        b = gen_random_nonconcentrated(2, 1, 1.0, delta, seed=7).family
        assert [t.segment_center.tobytes() for t in a.tubes] == [
            t.segment_center.tobytes() for t in b.tubes
        ]
        assert a.direction_matrix().tobytes() == b.direction_matrix().tobytes()

    def test_stall_returns_partial_family_with_flag(self, monkeypatch):
        import tubelab.generators as gen_mod

        monkeypatch.setattr(gen_mod, "STALL_FACTOR", 0)
        res = gen_random_nonconcentrated(2, 1, 1.0, 2.0**-4, seed=0)
        assert not res.complete
        assert len(res.family) == 0
        assert res.draws == 0


class TestBushAndAxes:
    def test_bush_two_directions(self):
        F = gen_bush(2, 2.0**-5, 2)
        np.testing.assert_allclose(F.tubes[0].direction.u, [1.0, 0.0])
        np.testing.assert_allclose(F.tubes[1].direction.u, [0.0, 1.0])
        for t in F.tubes:
            assert point_in_tube(t, [0.0, 0.0])

    def test_bush_common_point_large(self):
        F = gen_bush(3, 2.0**-4, 40)
        assert len(F) == 40
        for t in F.tubes:
            assert point_in_tube(t, [0.0, 0.0, 0.0])

    def test_axes_crossings(self):
        delta = 2.0**-5
        fams = gen_axes(2, 2, delta, 4)
        assert [len(f) for f in fams] == [4, 4]
        # Every horizontal tube crosses every vertical tube inside both
        # segments: the crossing point lies within 0.3 of both centers.
        for t1 in fams[0].tubes:
            for t2 in fams[1].tubes:
                crossing = np.array([t2.segment_center[0], t1.segment_center[1]])
                assert point_in_tube(t1, crossing)
                assert point_in_tube(t2, crossing)

    def test_axes_n3_k3(self):
        fams = gen_axes(3, 3, 2.0**-4, 8)
        assert [len(f) for f in fams] == [8, 8, 8]
        for i, f in enumerate(fams):
            for t in f.tubes:
                assert abs(t.direction.u[i]) == pytest.approx(1.0)
