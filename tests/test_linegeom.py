"""Geometric primitives: metric, wedge volumes, tubes, cap covers."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelab import linegeom
from tubelab.linegeom import (
    Direction,
    GeometryError,
    Line,
    SphereNet,
    Subspace,
    Tube,
    WEDGE_TUPLE_LIMIT,
    build_cap_cover,
    complete_orthonormal,
    line_metric,
    line_of_tube,
    point_in_tube,
    rowdot,
    segment_point_distances,
    subspace_wedge,
    tuple_wedges,
    unit_ball_volume,
    wedge_volume,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_units(rng, count, n):
    v = rng.normal(size=(count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestDirection:
    def test_normalized(self):
        d = Direction([3.0, 4.0])
        assert abs(np.linalg.norm(d.u) - 1.0) <= 1e-12

    def test_canonical_sign_first_significant_coordinate(self):
        d = Direction([-1.0, 2.0])
        assert d.u[0] > 0

    def test_sign_flip_gives_identical_representative(self):
        v = np.array([0.3, -0.8, 0.1])
        assert Direction(v) == Direction(-v)
        assert hash(Direction(v)) == hash(Direction(-v))

    def test_tiny_leading_coordinate_skipped(self):
        d = Direction([1e-12, -1.0])
        assert d.u[1] > 0

    def test_zero_vector_rejected(self):
        with pytest.raises(GeometryError):
            Direction([0.0, 0.0])

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_canonicalization_idempotent(self, coords):
        v = np.array(coords)
        if np.linalg.norm(v) < 1e-6:
            return
        d = Direction(v)
        again = Direction(d.u)
        assert d == again


class TestLine:
    def test_foot_orthogonal(self):
        l = Line([1.0, 0.0, 0.0], [2.0, 0.7, -1.0])
        assert abs(float(np.dot(l.x, l.u.u))) <= 1e-10
        np.testing.assert_allclose(l.x, [0.0, 0.7, -1.0], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            Line(Direction([1.0, 0.0]), [0.0, 0.0, 0.0])


class TestLineMetric:
    def test_identity(self):
        l = Line([1.0, 1.0], [0.2, 0.4])
        assert line_metric(l, l) == 0.0

    def test_orthogonal_axes_through_origin(self):
        lx = Line([1.0, 0.0], [0.0, 0.0])
        ly = Line([0.0, 1.0], [0.0, 0.0])
        assert line_metric(lx, ly) == pytest.approx(1.0, abs=1e-12)

    def test_parallel_offset(self):
        # Feet 0 and (0, 0.3), directions equal: the metric reduces to the
        # foot distance 0.3 (direct evaluation of |x - x'| + |u ^ u'|).
        lx = Line([1.0, 0.0], [0.0, 0.0])
        l2 = Line([1.0, 0.0], [0.0, 0.3])
        assert line_metric(lx, l2) == pytest.approx(0.3, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            line_metric(
                Line([1.0, 0.0], [0.0, 0.0]),
                Line([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
            )

    def test_symmetry_and_triangle_random_triples(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            for _ in range(3400):
                us = random_units(rng, 3, n)
                feet = rng.uniform(-1, 1, size=(3, n))
                lines = [Line(u, x) for x, u in zip(feet, us)]
                dab = line_metric(lines[0], lines[1])
                dba = line_metric(lines[1], lines[0])
                dbc = line_metric(lines[1], lines[2])
                dac = line_metric(lines[0], lines[2])
                assert dab == pytest.approx(dba, abs=1e-12)
                assert dac <= dab + dbc + 1e-12


class TestWedgeVolume:
    def test_orthonormal(self):
        assert wedge_volume(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate(self):
        assert wedge_volume([[1.0, 0.0], [1.0, 0.0]]) == 0.0

    def test_planar_45_degrees(self):
        got = wedge_volume([[1.0, 0.0], unit([1.0, 1.0])])
        assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_too_many_vectors(self):
        with pytest.raises(GeometryError):
            wedge_volume([[1, 0], [0, 1], [1, 0]])  # 3 vectors in R^2

    def test_non_unit_rejected(self):
        with pytest.raises(GeometryError):
            wedge_volume([[2.0, 0.0]])

    def test_single_vector(self):
        assert wedge_volume([[0.0, 1.0]]) == pytest.approx(1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_permutation_and_sign_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, n + 1))
        vs = random_units(rng, k, n)
        base = wedge_volume(vs)
        perm = rng.permutation(k)
        flips = rng.choice([-1.0, 1.0], size=k)
        assert wedge_volume(vs[perm] * flips[:, None]) == pytest.approx(base, abs=1e-9)

    def test_monotone_under_removing_a_vector(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(2, n + 1))
            vs = random_units(rng, k, n)
            full = wedge_volume(vs)
            for i in range(k):
                sub = np.delete(vs, i, axis=0)
                assert full <= wedge_volume(sub) + 1e-12


class TestTupleWedges:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_wedge_volume(self, seed):
        rng = np.random.default_rng(seed)
        for n in range(2, 6):
            for k in range(1, min(n, 4) + 1):
                mats = []
                for _ in range(k):
                    m = random_units(rng, int(rng.integers(1, 5)), n)
                    # A row parallel to an earlier matrix's row, and an axis row.
                    if mats:
                        m[0] = -mats[0][0]
                    m[-1] = np.eye(n)[int(rng.integers(n))]
                    mats.append(m)
                W = tuple_wedges(mats)
                assert W.shape == tuple(m.shape[0] for m in mats)
                for idx in np.ndindex(*W.shape):
                    want = wedge_volume([mats[j][i] for j, i in enumerate(idx)])
                    # Compared as Gram determinants: near-parallel tuples have
                    # determinants at roundoff level, whose square roots differ.
                    assert abs(W[idx] ** 2 - want**2) <= 1e-12, (n, k, idx)

    def test_orthogonal_and_parallel_rows(self):
        eye = np.eye(4)
        W = tuple_wedges([eye, eye, eye])
        for idx in np.ndindex(*W.shape):
            assert W[idx] == (1.0 if len(set(idx)) == 3 else 0.0)

    def test_size_guard_names_tuple_count(self):
        big = np.tile(np.eye(2)[:1], (5000, 1))
        count = 5000 * 5000
        assert count > WEDGE_TUPLE_LIMIT
        with pytest.raises(MemoryError, match=f"{count} 2-tuples"):
            tuple_wedges([big, big])


class TestCompleteOrthonormal:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_orthonormal_basis_keeping_given_rows(self, n):
        rng = np.random.default_rng(n)
        for rows in (random_units(rng, 1, n), np.linalg.qr(rng.normal(size=(n, n - 1)))[0].T):
            B = complete_orthonormal(rows, n)
            assert B.shape == (n, n)
            np.testing.assert_array_equal(B[: len(rows)], rows)
            np.testing.assert_allclose(B @ B.T, np.eye(n), atol=1e-12)

    def test_axis_rows_complete_with_remaining_axes(self):
        B = complete_orthonormal(np.eye(3)[1:2], 3)
        np.testing.assert_array_equal(B, np.eye(3)[[1, 0, 2]])


class TestRowdot:
    @staticmethod
    def _dot_per_row(a, b):
        a, b = np.broadcast_arrays(a, b)
        out = np.empty(a.shape[:-1])
        for i in np.ndindex(out.shape):
            out[i] = np.dot(a[i], b[i])
        return out

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bitwise_equal_to_dot_per_row(self, n):
        """Each product is `np.dot` of its two rows in every shape the callers
        use: rows, a stack of rows, and a stack of (m, n) blocks against one
        (m, n) block; a row with itself gives the squared norm."""
        rng = np.random.default_rng(n)
        N, m, P = 200, 7, 5
        cases = [
            (rng.normal(size=(N, n)), rng.normal(size=(N, n))),
            (rng.normal(size=(3, N, n)), rng.normal(size=(3, N, n))),
            (rng.normal(size=(P, m, n)), rng.normal(size=(m, n))),
        ]
        for a, b in cases + [(a, a) for a, _ in cases]:
            want = self._dot_per_row(a, b)
            got = rowdot(a, b)
            assert got.shape == want.shape
            assert np.array_equal(got, want)


class TestSubspaceWedge:
    def test_vector_in_subspace(self):
        H = Subspace([[1.0, 0.0, 0.0]])
        assert subspace_wedge(H, Direction([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_vector_orthogonal(self):
        H = Subspace([[1.0, 0.0, 0.0]])
        assert subspace_wedge(H, Direction([0.0, 1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)

    def test_three_by_three_gram_oracle(self):
        # Hand oracle: Gram of (e1, e2, (e2+e3)/sqrt2) is
        # [[1,0,0],[0,1,s],[0,s,1]] with s = 1/sqrt2; det = 1 - s^2 = 1/2.
        H = Subspace(np.eye(3)[:2])
        u = unit([0.0, 1.0, 1.0])
        expected = math.sqrt(0.5)
        assert subspace_wedge(H, Direction(u)) == pytest.approx(expected, abs=1e-12)
        assert wedge_volume([[1, 0, 0], [0, 1, 0], u]) == pytest.approx(expected, abs=1e-12)

    def test_basis_independence(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(3, 6))
            k = int(rng.integers(1, n - 1))
            basis = np.linalg.qr(rng.normal(size=(n, k)))[0].T
            H1 = Subspace(basis)
            rot = np.linalg.qr(rng.normal(size=(k, k)))[0]
            H2 = Subspace(rot @ basis)
            u = Direction(rng.normal(size=n))
            assert subspace_wedge(H1, u) == pytest.approx(subspace_wedge(H2, u), abs=1e-9)

    def test_full_dimension_rejected(self):
        H = Subspace(np.eye(3)[:2])
        assert H.k + 1 == H.n  # boundary case is fine
        with pytest.raises(GeometryError):
            Subspace(np.eye(3))  # k = n is not a valid Subspace


class TestTube:
    def test_point_at_center(self):
        T = Tube([0.0, 0.0], Direction([1.0, 0.0]), 0.1)
        assert point_in_tube(T, [0.0, 0.0])

    def test_point_outside_radius(self):
        T = Tube([0.0, 0.0], Direction([1.0, 0.0]), 0.1)
        assert not point_in_tube(T, [0.0, 0.2])

    def test_endpoint_ball(self):
        # 0.05 beyond the segment end along the axis: distance to the
        # endpoint is 0.05 <= 0.1.
        T = Tube([0.0, 0.0], Direction([1.0, 0.0]), 0.1)
        assert point_in_tube(T, [0.55, 0.0])
        assert not point_in_tube(T, [0.65, 0.0])

    def test_radius_range(self):
        with pytest.raises(GeometryError):
            Tube([0.0, 0.0], Direction([1.0, 0.0]), 0.6)
        with pytest.raises(GeometryError):
            Tube([0.0, 0.0], Direction([1.0, 0.0]), 0.0)

    def test_volume_formula(self):
        T = Tube([0.0, 0.0], Direction([1.0, 0.0]), 0.125)
        assert T.volume() == pytest.approx(2 * 0.125 + math.pi * 0.125**2, abs=1e-12)
        T3 = Tube([0.0, 0.0, 0.0], Direction([1.0, 0.0, 0.0]), 0.125)
        expected = math.pi * 0.125**2 + unit_ball_volume(3) * 0.125**3
        assert T3.volume() == pytest.approx(expected, abs=1e-12)


class TestSegmentPointDistances:
    @staticmethod
    def reference(p, c, u, length) -> float:
        """One distance in scalar Python floats, in the documented order:
        t = rel . u summed over the coordinates in turn and clipped, then the
        root of the sum of the squares of rel - t u, coordinate by coordinate."""
        rel = [float(a) - float(b) for a, b in zip(p, c)]
        t = 0.0
        for r, v in zip(rel, u):
            t = t + r * float(v)
        half = 0.5 * float(length)
        t = min(max(t, -half), half)
        total = 0.0
        for r, v in zip(rel, u):
            w = r - t * float(v)
            total = total + w * w
        return math.sqrt(total)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bitwise_equal_to_one_call_per_segment(self, n):
        # The rasterizer's membership test is `<= r + 1e-12` on these values,
        # so every form must give the same bits as one point alone, not just
        # close values.
        rng = np.random.default_rng(70 + n)
        dirs = random_units(rng, 5, n)
        # Runs of equal directions and runs of a single point.
        u = np.repeat(dirs, [30, 1, 25, 2, 1], axis=0)
        m = len(u)
        center, length = rng.normal(size=(m, n)), rng.uniform(0.5, 3.0, m)
        points = rng.normal(size=(3, m, n))
        ref = self.reference
        # A segment per point, stacked over a leading axis, with an array
        # and a scalar length.
        got = segment_point_distances(points, center, u, length)
        assert got.shape == (3, m)
        for lead in range(3):
            for i in range(m):
                assert got[lead, i] == ref(points[lead, i], center[i], u[i], length[i]), (lead, i)
        got = segment_point_distances(points, center, u, 1.5)
        for lead in range(3):
            for i in range(m):
                assert got[lead, i] == ref(points[lead, i], center[i], u[i], 1.5), (lead, i)
        # Flat points, one per segment.
        flat = segment_point_distances(points[0], center, u, length)
        assert flat.shape == (m,)
        assert all(flat[i] == ref(points[0, i], center[i], u[i], length[i]) for i in range(m))
        # One segment for many points.
        one = rng.normal(size=(200, n))
        got = segment_point_distances(one, center[0], u[0], 1.5)
        assert got.shape == (200,)
        assert all(got[i] == ref(one[i], center[0], u[0], 1.5) for i in range(200))
        # Stacked centers of segments sharing u.
        stack = rng.normal(size=(6, 1, n))
        got = segment_point_distances(one, stack, u[0], 1.5)
        assert got.shape == (6, 200)
        for j in range(6):
            assert all(got[j, i] == ref(one[i], stack[j, 0], u[0], 1.5) for i in range(200)), j


class TestLineOfTube:
    def test_axis_tube(self):
        T = Tube([0.0, 0.0], Direction([1.0, 0.0]), 0.1)
        l = line_of_tube(T)
        np.testing.assert_allclose(l.x, [0.0, 0.0], atol=1e-12)

    def test_offset_tube(self):
        T = Tube([0.0, 0.5], Direction([1.0, 0.0]), 0.1)
        l = line_of_tube(T)
        np.testing.assert_allclose(l.x, [0.0, 0.5], atol=1e-12)

    def test_foot_projection(self):
        # Center along the diagonal direction itself: the foot projects to 0.
        u = unit([1.0, 1.0])
        T = Tube(0.3 * u, Direction(u), 0.1)
        l = line_of_tube(T)
        np.testing.assert_allclose(l.x, [0.0, 0.0], atol=1e-12)


class TestSphereNet:
    #: Ball-net radii r per dimension; the net resolution is alpha = r/4.
    RADII = {2: (2.0**-10, 2.0**-6, 2.0**-3, 1.0), 3: (2.0**-6, 2.0**-4, 2.0**-2, 1.0), 4: (0.25, 0.5, 1.0)}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_within_matches_bruteforce(self, n):
        rng = np.random.default_rng(n)
        for r in self.RADII[n]:
            net = SphereNet(n, r / 4.0)
            for angle in (math.asin(r) if r < 1.0 else math.pi / 2.0, math.pi / 2.0):
                cos_bound = math.cos(min(angle + 1e-12, math.pi / 2.0))
                for u in random_units(rng, 40, n):
                    want = np.nonzero(np.abs(net.rows @ u) >= cos_bound)[0]
                    np.testing.assert_array_equal(net.within(u, angle), want)

    def test_within_at_the_poles(self):
        net = SphereNet(3, 2.0**-6)
        for u in (np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]), unit([1e-9, 0.0, 1.0])):
            want = np.nonzero(np.abs(net.rows @ u) >= math.cos(0.05 + 1e-12))[0]
            np.testing.assert_array_equal(net.within(u, 0.05), want)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3, 4]),
        st.sampled_from([1.0, 0.5, 0.2, 0.05]),
        st.integers(0, 2**32 - 1),
    )
    def test_every_unit_vector_within_alpha_of_a_row(self, n, alpha, seed):
        net = SphereNet(n, alpha)
        np.testing.assert_allclose(np.linalg.norm(net.rows, axis=1), 1.0, atol=1e-12)
        u = random_units(np.random.default_rng(seed), 1, n)[0]
        assert float((net.rows @ u).max()) >= math.cos(alpha)

    def test_complement_is_orthonormal_and_orthogonal(self, monkeypatch):
        fills = []
        complete_unit_rows = linegeom._complete_unit_rows

        def counting(rows):
            fills.append(len(rows))
            return complete_unit_rows(rows)

        monkeypatch.setattr(linegeom, "_complete_unit_rows", counting)
        net = SphereNet(4, 0.5)
        for i in (0, len(net) // 2, len(net) - 1):
            q = net.complements(np.array([i]))[0]
            assert q.shape == (3, 4)
            np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(q @ net.rows[i], 0.0, atol=1e-12)
            assert q.tobytes() == complete_orthonormal(net.rows[i][None], 4)[1:].tobytes()
            before = len(fills)
            assert net.complements(np.array([i]))[0].tobytes() == q.tobytes()
            assert len(fills) == before
        assert fills == [1, 1, 1]

    @pytest.mark.parametrize(
        "n, alpha",
        [(2, 2.0**-11), (2, 2.0**-8), (2, 0.25), (3, 2.0**-6), (3, 2.0**-5), (3, 2.0**-3), (3, 0.25), (4, 0.25), (4, 0.5)],
    )
    def test_basis_table_matches_complete_orthonormal_bytes(self, n, alpha):
        """Every row of the batched foot-basis table is bit for bit the
        completion of `complete_orthonormal`, the scalar reference; a table
        filled in several batches, in any order, holds the same bytes."""
        net = SphereNet(n, alpha)
        want = np.stack([complete_orthonormal(row[None], n)[1:] for row in net.rows])
        half = np.random.default_rng(n).permutation(len(net))[: len(net) // 2]
        assert net.complements(half).tobytes() == want[half].tobytes()
        assert net.complements(np.arange(len(net))).tobytes() == want.tobytes()

    @staticmethod
    def _circle_within_loop(net, u, angle):
        """`SphereNet.within` for dim 2 as a loop over Python ranges."""
        angle = min(angle, math.pi / 2.0)
        cos_bound = math.cos(min(angle + 1e-12, math.pi / 2.0))
        m = len(net)
        phi = math.atan2(u[1], u[0])
        idx = []
        for target in (phi, phi + math.pi):
            lo = int(math.ceil((target - angle) / net.spacing - 0.5 - 1e-9))
            hi = int(math.floor((target + angle) / net.spacing - 0.5 + 1e-9))
            idx.extend(range(lo, hi + 1))
        cand = np.unique(np.mod(np.array(idx, dtype=np.int64), m))
        dots = np.abs(net.rows[cand] @ u)
        return cand[dots >= cos_bound]

    @pytest.mark.parametrize("alpha", [2.0**-12, 2.0**-6, 0.25, 1.0, 3.0])
    def test_circle_within_matches_range_loop(self, alpha):
        net = SphereNet(2, alpha)
        rng = np.random.default_rng(17)
        near_wrap = [math.pi - 1e-3, -math.pi + 1e-3, math.pi, 1e-4, -1e-4, 0.0, math.pi / 2.0]
        phis = list(rng.uniform(-math.pi, math.pi, 30)) + near_wrap
        phis += [(i + 0.5) * net.spacing for i in range(-1, 2)] + [i * net.spacing for i in range(-1, 2)]
        angles = [0.0, 1e-3, alpha / 3.0, alpha, 0.9, math.pi / 2.0, 2.0, math.pi]
        for phi in phis:
            u = np.array([math.cos(phi), math.sin(phi)])
            for angle in angles:
                got = net.within(u, angle)
                assert got.tolist() == self._circle_within_loop(net, u, angle).tolist(), (phi, angle)


class TestCapCover:
    def test_rho_out_of_range(self):
        with pytest.raises(GeometryError):
            build_cap_cover(2, 0.0)
        with pytest.raises(GeometryError):
            build_cap_cover(2, 1.5)

    def test_circle_coverage_dense_sampling(self):
        cov = build_cap_cover(2, math.pi / 4.0)
        angles = np.linspace(0, 2 * math.pi, 10_000, endpoint=False)
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        dots = np.abs(pts @ cov.center_matrix.T)
        worst = np.arccos(np.clip(dots.max(axis=1), -1, 1)).max()
        assert worst <= cov.rho

    def test_overlap_bound_n2(self):
        cov = build_cap_cover(2, 1.0)
        rng = np.random.default_rng(0)
        pts = random_units(rng, 5000, 2)
        counts = (np.abs(pts @ cov.center_matrix.T) >= math.cos(1.0) - 1e-12).sum(axis=1)
        assert counts.max() <= 100

    def test_n3_monte_carlo_coverage_and_count(self):
        rho = 0.25
        cov = build_cap_cover(3, rho)
        assert len(cov) <= 25**3 * rho ** (1 - 3)
        rng = np.random.default_rng(1)
        pts = random_units(rng, 100_000, 3)
        dots = np.abs(pts @ cov.center_matrix.T)
        worst = np.arccos(np.clip(dots.max(axis=1), -1, 1)).max()
        assert worst <= rho
        counts = (dots >= math.cos(rho) - 1e-12).sum(axis=1)
        assert counts.max() <= 1000

    @pytest.mark.parametrize(
        "n, rho, caps", [(2, 0.125, 13), (3, 0.125, 682), (3, 0.25, 222), (4, 0.5, 657), (3, 1.0, 15)]
    )
    def test_antipodal_twins_merged(self, n, rho, caps):
        # The ring lattice holds u and -u up to the last bit; one of each
        # pair survives, and the survivors are canonical net rows in order.
        cov = build_cap_cover(n, rho)
        assert len(cov) == caps
        dots = np.abs(cov.center_matrix @ cov.center_matrix.T)
        np.fill_diagonal(dots, 0.0)
        assert dots.max() < 1.0 - 1e-9
        rows = iter(Direction(row).u.tobytes() for row in SphereNet(n, rho).rows)
        assert all(c.u.tobytes() in rows for c in cov.centers)

    def test_cover_shared_per_key(self):
        # One cover per (n, rho), equal to a fresh build and immutable.
        cov = build_cap_cover(3, 0.25)
        assert build_cap_cover(3, 0.25) is cov and build_cap_cover(3, 0.125) is not cov
        fresh = build_cap_cover.__wrapped__(3, 0.25)
        assert fresh is not cov and fresh.center_matrix.tobytes() == cov.center_matrix.tobytes()
        assert not cov.center_matrix.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            cov.rho = 0.5

    def test_caps_containing_matches_bruteforce(self):
        cov = build_cap_cover(3, 0.3)
        rng = np.random.default_rng(2)
        for u in random_units(rng, 50, 3):
            got = set(cov.caps_containing(u).tolist())
            dots = np.abs(cov.center_matrix @ u)
            want = set(np.nonzero(dots >= math.cos(0.3) - 1e-12)[0].tolist())
            assert got == want
