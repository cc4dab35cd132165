"""Geometric primitives: metric, wedge volumes, tubes, cap covers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelab.linegeom import (
    Direction,
    GeometryError,
    Line,
    Subspace,
    Tube,
    WEDGE_TUPLE_LIMIT,
    build_cap_cover,
    complete_orthonormal,
    line_metric,
    line_of_tube,
    point_in_tube,
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
        l = Line.through([2.0, 0.7, -1.0], [1.0, 0.0, 0.0])
        assert abs(float(np.dot(l.x, l.u.u))) <= 1e-10
        np.testing.assert_allclose(l.x, [0.0, 0.7, -1.0], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            Line(Direction([1.0, 0.0]), [0.0, 0.0, 0.0])


class TestLineMetric:
    def test_identity(self):
        l = Line.through([0.2, 0.4], [1.0, 1.0])
        assert line_metric(l, l) == 0.0

    def test_orthogonal_axes_through_origin(self):
        lx = Line.through([0.0, 0.0], [1.0, 0.0])
        ly = Line.through([0.0, 0.0], [0.0, 1.0])
        assert line_metric(lx, ly) == pytest.approx(1.0, abs=1e-12)

    def test_parallel_offset(self):
        # Feet 0 and (0, 0.3), directions equal: the metric reduces to the
        # foot distance 0.3 (direct evaluation of |x - x'| + |u ^ u'|).
        lx = Line.through([0.0, 0.0], [1.0, 0.0])
        l2 = Line.through([0.0, 0.3], [1.0, 0.0])
        assert line_metric(lx, l2) == pytest.approx(0.3, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            line_metric(
                Line.through([0.0, 0.0], [1.0, 0.0]),
                Line.through([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
            )

    def test_symmetry_and_triangle_random_triples(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            for _ in range(3400):
                us = random_units(rng, 3, n)
                feet = rng.uniform(-1, 1, size=(3, n))
                lines = [Line.through(x, u) for x, u in zip(feet, us)]
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

    def test_caps_containing_matches_bruteforce(self):
        cov = build_cap_cover(3, 0.3)
        rng = np.random.default_rng(2)
        for u in random_units(rng, 50, 3):
            got = set(cov.caps_containing(u).tolist())
            dots = np.abs(cov.center_matrix @ u)
            want = set(np.nonzero(dots >= math.cos(0.3) - 1e-12)[0].tolist())
            assert got == want
