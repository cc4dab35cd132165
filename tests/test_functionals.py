"""Grid functionals: norms, multilinear sums, decompositions, rescaling."""

import itertools
import math

import numpy as np
import pytest

from tubelab import functionals
from tubelab.functionals import (
    C_COMP,
    FamilyRaster,
    Grid,
    TubeFamily,
    UnderResolvedGridError,
    calculation_chain,
    coarse_overlap_bound,
    coarsen_to_rho_tubes,
    decompose_lp,
    induction_step_terms,
    lp_norm_tube_sum,
    multilinear_cell_values,
    multilinear_kakeya_lhs,
    multilinear_kakeya_rhs,
    rasterize_tube,
    rescale_into_ball,
)
from tubelab.linegeom import (
    Direction,
    GeometryError,
    Tube,
    point_in_tube,
    segment_point_distances,
    wedge_volume,
)


def family(tubes, delta, n, d=1, beta=1.0):
    return TubeFamily(tubes, delta, n, d, beta)


def generic_family(rng, n, delta, count, d=1, beta=1.0):
    tubes = []
    for i in range(count):
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        c = rng.uniform(-0.3, 0.3, size=n)
        tubes.append(Tube(c, Direction(u), delta))
    return family(tubes, delta, n, d, beta)


class TestRasterization:
    def test_matches_bruteforce_cell_membership(self):
        rng = np.random.default_rng(3)
        for trial in range(8):
            n = 2 if trial % 2 == 0 else 3
            delta = 1 / 16
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            T = Tube(rng.uniform(-0.25, 0.25, size=n), Direction(u), delta)
            F = family([T], delta, n)
            G = Grid.for_family(F, factor=4)
            got = set(rasterize_tube(G, T).tolist())
            allc = np.arange(G.total_cells)
            dist = segment_point_distances(
                G.centers_of_linear(allc), T.segment_center, T.direction.u, T.length
            )
            want = set(allc[dist <= delta + 1e-12].tolist())
            assert got == want

    def test_streaming_counts_match_per_tube_counts(self, monkeypatch):
        rng = np.random.default_rng(5)
        F = generic_family(rng, 2, 1 / 16, 12)
        G = Grid.for_family(F, 4)
        small = FamilyRaster.build(F, G)
        monkeypatch.setattr(functionals, "PER_TUBE_LIMIT", len(F) - 1)
        big = FamilyRaster.build(F, G)
        assert small.tube_cells is not None and big.tube_cells is None
        np.testing.assert_array_equal(small.occ, big.occ)
        np.testing.assert_array_equal(small.counts, big.counts)
        assert small.entries == big.entries


class TestLpNorm:
    def test_single_tube_volume_within_5_percent(self):
        for n in (2, 3):
            delta = 2.0**-4
            T = Tube([0.0] * n, Direction([1.0] + [0.0] * (n - 1)), delta)
            F = family([T], delta, n)
            G = Grid.for_family(F, 4)
            got = lp_norm_tube_sum(F, 1.0, G)
            assert got == pytest.approx(T.volume(), rel=0.05)

    def test_disjoint_tubes_additive(self):
        delta = 2.0**-5
        T1 = Tube([0.0, -0.3], Direction([1.0, 0.0]), delta)
        T2 = Tube([0.0, 0.3], Direction([1.0, 0.0]), delta)
        F12 = family([T1, T2], delta, 2)
        F1 = family([T1], delta, 2)
        G = Grid.for_family(F12, 4)
        for p in (1.0, 2.0, 3.0):
            v1 = lp_norm_tube_sum(F1, p, G)
            v12 = lp_norm_tube_sum(F12, p, G)
            assert v12 == pytest.approx(2.0 ** (1.0 / p) * v1, rel=1e-9)

    def test_coincident_tubes_scalar_homogeneous(self):
        delta = 2.0**-5
        T = Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)
        F2 = family([T, T], delta, 2)
        F1 = family([T], delta, 2)
        G = Grid.for_family(F1, 4)
        assert lp_norm_tube_sum(F2, 2.0, G) == pytest.approx(
            2.0 * lp_norm_tube_sum(F1, 2.0, G), rel=1e-12
        )

    def test_under_resolved_grid_rejected(self):
        delta = 2.0**-5
        F = family([Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)], delta, 2)
        with pytest.raises(UnderResolvedGridError):
            lp_norm_tube_sum(F, 2.0, Grid(2, delta, 1 + delta))


class TestMultilinear:
    def test_crossing_tubes_intersection_square(self):
        # Two orthogonal tubes crossing at the origin: the transversality
        # sum is the indicator of the intersection, a (2 delta)^2 square.
        delta = 2.0**-5
        F1 = family([Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)], delta, 2)
        F2 = family([Tube([0.0, 0.0], Direction([0.0, 1.0]), delta)], delta, 2)
        G = Grid(2, delta / 8, 1 + delta)
        lhs = multilinear_kakeya_lhs([F1, F2], G)
        assert lhs == pytest.approx(2 * delta, rel=0.02)

    def test_empty_family_zero(self):
        delta = 2.0**-5
        F1 = family([Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)], delta, 2)
        F0 = family([], delta, 2)
        G = Grid.for_family(F1, 4)
        assert multilinear_kakeya_lhs([F1, F0], G) == 0.0

    def test_parallel_families_zero(self):
        delta = 2.0**-5
        F1 = family([Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)], delta, 2)
        F2 = family([Tube([0.0, 0.2], Direction([1.0, 0.0]), delta)], delta, 2)
        G = Grid.for_family(F1, 4)
        assert multilinear_kakeya_lhs([F1, F2], G) == 0.0

    def test_rhs_prefactor_n2k2(self):
        delta = 2.0**-5
        T = Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)
        F = family([T], delta, 2)
        assert multilinear_kakeya_rhs([F, F]) == pytest.approx(T.volume())

    def test_rhs_prefactor_n3k2(self):
        delta = 1.0 / 8.0
        T = Tube([0.0, 0.0, 0.0], Direction([1.0, 0.0, 0.0]), delta)
        F = family([T], delta, 3)
        assert multilinear_kakeya_rhs([F, F]) == pytest.approx(math.sqrt(8.0) * T.volume())

    def test_rhs_n3k3_linear_in_total_volume(self):
        delta = 2.0**-4
        tubes = [Tube([0.0, 0.0, 0.0], Direction([1.0, 0.0, 0.0]), delta)] * 4
        F = family(tubes, delta, 3)
        assert multilinear_kakeya_rhs([F, F, F]) == pytest.approx(4 * tubes[0].volume())

    @pytest.mark.parametrize("shared", [False, True])
    def test_n4_k4_matches_tuple_enumeration(self, shared):
        # Oracle: cell membership by point_in_tube on every cell center, and
        # the sum over ordered 4-tuples of containing tubes of wedge_volume.
        rng = np.random.default_rng(41)
        n, delta = 4, 0.5
        fams = []
        for axis in range(n):
            tubes = []
            for _ in range(2):
                u = np.eye(n)[axis] + 0.3 * rng.normal(size=n)
                tubes.append(Tube(rng.uniform(-0.15, 0.15, size=n), Direction(u), delta))
            fams.append(family(tubes, delta, n))
        if shared:
            fams = [family([f.tubes[0] for f in fams], delta, n)] * n
        G = Grid.for_family(fams[0], factor=2)
        centers = G.centers_of_linear(np.arange(G.total_cells))
        inside = [
            [[i for i, t in enumerate(f.tubes) if point_in_tube(t, c)] for f in fams]
            for c in centers
        ]
        want = {}
        for cell, members in enumerate(inside):
            total = 0.0
            for combo in itertools.product(*members):
                total += wedge_volume([fams[j].tubes[i].direction.u for j, i in enumerate(combo)])
            if total > 0.0:
                want[cell] = total
        cells, vals = multilinear_cell_values(fams, G)
        got = dict(zip(cells.tolist(), vals.tolist()))
        assert want and set(want) <= set(got)
        for cell in got:
            assert got[cell] == pytest.approx(want.get(cell, 0.0), rel=1e-12, abs=1e-12)

    def test_loomis_whitney_n4_round_tube_value(self):
        # Four axis tubes crossing at the origin.  For slabs Loomis-Whitney
        # is an equality (criterion 02); round tubes cross in
        # {x : |x without x_i| <= delta for every i}, of volume V4 delta^4
        # with V4 = 8 * int_{B^3} min_i |x_i| dx = 2 * int_{S^2} min_i |u_i|,
        # so the exact ratio is (V4 delta^4)^(3/4) / |T|.
        from tubelab.generators import gen_axes

        th = (np.arange(1000) + 0.5) * math.pi / 1000
        ph = (np.arange(2000) + 0.5) * math.pi / 1000
        T_, P_ = np.meshgrid(th, ph, indexing="ij")
        u = np.abs(np.stack([np.sin(T_) * np.cos(P_), np.sin(T_) * np.sin(P_), np.cos(T_)]))
        v4 = 2.0 * float((u.min(axis=0) * np.sin(T_)).sum()) * (math.pi / 1000) ** 2
        delta = 2.0**-3
        families = gen_axes(4, 4, delta, 1)
        G = Grid.for_family(families[0], h=delta / 4)
        ratio = multilinear_kakeya_lhs(families, G) / multilinear_kakeya_rhs(families)
        exact = (v4 * delta**4) ** 0.75 / families[0].tubes[0].volume()
        assert ratio <= 1.0
        assert abs(ratio / exact - 1.0) <= 0.1


class TestDecompose:
    def test_single_cap_family_puts_norm_in_cap_term(self):
        delta = 2.0**-5
        tubes = [Tube([0.0, 0.1 * i - 0.2], Direction([1.0, 0.0]), delta) for i in range(5)]
        F = family(tubes, delta, 2)
        G = Grid.for_family(F, 4)
        t1, t2 = decompose_lp(FamilyRaster.build(F, G), 0.25, 2, 2.0)
        assert t1 == 0.0
        assert t2 > 0.0

    def test_single_tube_cap_term_lower_bound(self):
        delta = 2.0**-5
        rho, k, p = 0.25, 2, 2.0
        T = Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)
        F = family([T], delta, 2)
        G = Grid.for_family(F, 4)
        _, t2 = decompose_lp(FamilyRaster.build(F, G), rho, k, p)
        norm = lp_norm_tube_sum(F, p, G)
        assert t2 >= rho ** ((2 - k) / (p / (p - 1))) * norm - 1e-12

    def test_spread_directions_norm_bounded_by_terms(self):
        rng = np.random.default_rng(9)
        delta = 2.0**-5
        tubes = []
        for i in range(40):
            ang = math.pi * (i + 0.5) / 40
            tubes.append(
                Tube(rng.uniform(-0.25, 0.25, size=2),
                     Direction([math.cos(ang), math.sin(ang)]), delta)
            )
        F = family(tubes, delta, 2)
        G = Grid.for_family(F, 4)
        t1, t2 = decompose_lp(FamilyRaster.build(F, G), 0.25, 2, 2.0)
        assert t1 > 0 and t2 > 0
        norm = lp_norm_tube_sum(F, 2.0, G)
        assert norm <= 4.0 * (t1 + t2)


class TestCoarsening:
    def test_every_tube_assigned_within_bounds(self):
        rng = np.random.default_rng(11)
        delta = 2.0**-5
        F = generic_family(rng, 2, delta, 20)
        co = coarsen_to_rho_tubes(F, 8 * delta)
        assert len(co.assignment) == len(F)
        for assigned in co.assignment:
            assert 1 <= len(assigned) <= coarse_overlap_bound(2)

    def test_containment_is_genuine(self):
        rng = np.random.default_rng(13)
        delta = 2.0**-5
        F = generic_family(rng, 3, delta, 10)
        co = coarsen_to_rho_tubes(F, 0.25)
        for fi, assigned in enumerate(co.assignment):
            T = F.tubes[fi]
            for ci in assigned:
                C = co.coarse_tubes[ci]
                d = segment_point_distances(
                    np.stack(T.endpoints), C.segment_center, C.direction.u, C.length
                )
                assert float(d.max()) <= C.radius - delta + 1e-9

    def test_duplicate_tubes_identical_assignments(self):
        delta = 2.0**-5
        T = Tube([0.1, -0.05], Direction([1.0, 0.2]), delta)
        F = family([T, T], delta, 2)
        co = coarsen_to_rho_tubes(F, 0.25)
        assert co.assignment[0] == co.assignment[1]

    def test_scale_precondition(self):
        delta = 2.0**-3
        F = family([Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)], delta, 2)
        with pytest.raises(ValueError):
            coarsen_to_rho_tubes(F, 2 * delta)

    def test_cap_grouping_bounded_by_coarse_grouping(self):
        # Both sides of the localization comparison evaluated on the grid:
        # sum over direction caps of ||.||_p^p against sum over coarse tubes.
        rng = np.random.default_rng(17)
        delta = 2.0**-5
        rho, p = 0.25, 2.0
        F = generic_family(rng, 3, delta, 60)
        G = Grid.for_family(F, 4)
        raster = FamilyRaster.build(F, G)
        cells = raster.tube_cells
        from tubelab.linegeom import build_cap_cover

        cover = build_cap_cover(3, rho)
        lhs = 0.0
        groups = {}
        for ti, t in enumerate(F.tubes):
            for ci in cover.caps_containing(t.direction):
                groups.setdefault(int(ci), []).append(ti)
        for tubes in groups.values():
            _, counts = np.unique(np.concatenate([cells[t] for t in tubes]), return_counts=True)
            lhs += float(np.sum(counts.astype(float) ** p)) * G.cell_volume
        co = coarsen_to_rho_tubes(F, rho)
        by_coarse = {}
        for fi, assigned in enumerate(co.assignment):
            for ci in assigned:
                by_coarse.setdefault(ci, []).append(fi)
        rhs = 0.0
        for fine in by_coarse.values():
            _, counts = np.unique(np.concatenate([cells[t] for t in fine]), return_counts=True)
            rhs += float(np.sum(counts.astype(float) ** p)) * G.cell_volume
        assert lhs <= 10.0 * rhs


class TestRescaling:
    def _coarse_tube(self, n, rho):
        u = np.zeros(n)
        u[0] = 1.0
        from tubelab.functionals import COARSE_LENGTH

        return Tube(np.zeros(n), Direction(u), rho, COARSE_LENGTH)

    def test_coaxial_tube_radius_exact(self):
        delta, rho = 2.0**-5, 0.25
        T_rho = self._coarse_tube(2, rho)
        F = family([Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)], delta, 2)
        rs = rescale_into_ball(F, T_rho)
        assert rs.family.delta == pytest.approx(delta / rho, abs=1e-15)
        assert rs.family.ball_radius == C_COMP

    def test_coarse_tube_maps_to_unit_comparable(self):
        rho = 0.25
        T_rho = self._coarse_tube(3, rho)
        img = rs = rescale_into_ball(
            family([Tube([0.0, 0.0, 0.0], Direction([1.0, 0.0, 0.0]), rho / 4)], rho / 4, 3),
            T_rho,
        )
        t = rs.family.tubes[0]
        np.testing.assert_allclose(np.abs(t.direction.u), [1.0, 0.0, 0.0], atol=1e-12)

    def test_tilted_tube_direction_and_radius(self):
        # A fine tube at angle rho/2 to the coarse axis: after the 1/rho
        # transverse dilation the image direction satisfies
        # tan(angle') = tan(rho/2)/rho, about 1/2 for small rho, and the
        # re-fit radius stays within 2 delta/rho.
        delta, rho = 2.0**-6, 2.0**-3
        ang = rho / 2
        u = np.array([math.cos(ang), math.sin(ang)])
        F = family([Tube([0.0, 0.0], Direction(u), delta)], delta, 2)
        rs = rescale_into_ball(F, self._coarse_tube(2, rho))
        t = rs.family.tubes[0]
        img_angle = math.atan2(abs(t.direction.u[1]), abs(t.direction.u[0]))
        expected = math.atan(math.tan(ang) / rho)
        assert img_angle == pytest.approx(expected, rel=1e-6)
        assert abs(expected - 0.5) < 0.05
        assert t.radius <= 2 * delta / rho

    def test_round_trip_recovers_originals(self):
        rng = np.random.default_rng(19)
        delta, rho = 2.0**-5, 0.25
        T_rho = self._coarse_tube(2, rho)
        tubes = []
        while len(tubes) < 6:
            u = rng.normal(size=2)
            u /= np.linalg.norm(u) * np.sign(u[0])
            if abs(math.atan2(u[1], u[0])) > rho / 4:
                continue
            c = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-rho / 3, rho / 3)])
            t = Tube(c, Direction(u), delta)
            d = segment_point_distances(np.stack(t.endpoints), T_rho.segment_center,
                                        T_rho.direction.u, T_rho.length)
            if float(d.max()) <= rho - delta:
                tubes.append(t)
        F = family(tubes, delta, 2)
        rs = rescale_into_ball(F, T_rho)
        for orig, img in zip(F.tubes, rs.family.tubes):
            back = rs.transform.unmap_tube(img)
            assert np.linalg.norm(back.segment_center - orig.segment_center) <= 2 * delta
            assert abs(back.radius - orig.radius) <= 1e-12
            assert abs(back.length - orig.length) <= 1e-9

    def test_outside_tube_rejected_with_offender(self):
        delta, rho = 2.0**-5, 0.25
        T_rho = self._coarse_tube(2, rho)
        F = family([Tube([0.0, 0.45], Direction([1.0, 0.0]), delta)], delta, 2)
        with pytest.raises(GeometryError, match="tube 0"):
            rescale_into_ball(F, T_rho)


class TestCalculationChain:
    def test_single_tube_all_zero_lhs(self):
        delta = 2.0**-4
        F = family([Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)], delta, 2)
        G = Grid.for_family(F, 4)
        rep = calculation_chain(F, G)
        assert rep.lines[0] == 0.0
        assert all(rep.lines[0] <= v + 1e-15 for v in rep.lines[1:])

    def test_saturated_family_ratios(self):
        # 16 tubes at delta = 1/16 in generic directions: the final line is
        # delta^(p(1-d)/p') * sum |T| = sum |T| for d = 1, beta = 1, and the
        # cardinality-step ratio is at least 1 for a saturated family.
        rng = np.random.default_rng(23)
        delta = 1.0 / 16.0
        F = generic_family(rng, 2, delta, 16)
        G = Grid.for_family(F, 4)
        rep = calculation_chain(F, G)
        assert rep.lines[5] == pytest.approx(F.sum_volume(), rel=1e-12)
        assert rep.adjacent_ratios[3] >= 1.0
        assert rep.pointwise_step_ok
        assert rep.regroup_equal and rep.simplify_equal
        assert rep.cardinality_step_ok

    def test_regrouping_identity_random_parameters(self):
        # Lines 3 and 4 (and 5 and 6) are one formula written two ways;
        # check the exponent algebra on random parameter tuples directly.
        rng = np.random.default_rng(29)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            n = d + int(rng.integers(1, 3))
            beta = float(rng.uniform(0.05, 1.0))
            delta = float(rng.uniform(0.01, 0.4))
            sumT = float(rng.uniform(0.1, 5.0))
            p_prime = d + beta
            p = p_prime / (p_prime - 1.0)
            v3 = (delta ** (1 - n) * sumT) ** (p - (d + 1) / d) * delta ** (
                (d + 1 - n) / d
            ) * sumT ** ((d + 1) / d)
            v4 = delta ** (1 + (1 - n) * (p - 1)) * sumT**p
            assert v3 == pytest.approx(v4, rel=1e-9)
            v5 = delta ** (1 + (1 - n) * (p - 1)) * (
                delta ** (n - 1) * delta ** (2 * (1 - d) - beta)
            ) ** (p - 1) * sumT
            v6 = delta ** (p * (1 - d) / p_prime) * sumT
            assert v5 == pytest.approx(v6, rel=1e-9)

    def test_cardinality_precondition(self):
        rng = np.random.default_rng(31)
        delta = 1.0 / 8.0
        F = generic_family(rng, 2, delta, 20)  # budget is 8
        G = Grid.for_family(F, 4)
        with pytest.raises(ValueError, match="budget"):
            calculation_chain(F, G)

    def test_beta_zero_rejected(self):
        delta = 2.0**-4
        F = family([Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)], delta, 2, d=1, beta=0.0)
        G = Grid.for_family(F, 4)
        with pytest.raises(ValueError, match="beta"):
            calculation_chain(F, G)


class TestInductionStep:
    def test_single_tube_terms(self):
        delta = 2.0**-5
        F = family([Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)], delta, 2)
        G = Grid.for_family(F, 4)
        t1, t2 = induction_step_terms(FamilyRaster.build(F, G), 0.25)
        assert t1 > 0
        norm = lp_norm_tube_sum(F, F.p, G)
        assert norm <= 10.0 * (t1 + t2)

    def test_all_tubes_in_one_coarse_tube(self):
        # Tubes far inside a single axis-parallel coarse tube: the grouped
        # term reduces to rho^((1-d)/p') times the full norm.
        delta, rho = 2.0**-6, 0.25
        tubes = [
            Tube([0.05 * i - 0.1, 0.002 * i], Direction([1.0, 0.0]), delta)
            for i in range(5)
        ]
        F = family(tubes, delta, 2)
        G = Grid.for_family(F, 4)
        t1, t2 = induction_step_terms(FamilyRaster.build(F, G), rho)
        norm = lp_norm_tube_sum(F, F.p, G)
        expected = rho ** ((1 - F.d) / F.p_prime) * norm
        # Coarse tubes overlap, so groups may repeat: t2 is at least the
        # single-group value.
        assert t2 >= expected - 1e-12

    def test_bush_constant_stable_across_scales(self):
        from tubelab.generators import gen_bush

        rho = 0.25
        cs = []
        for delta in (2.0**-4, 2.0**-5, 2.0**-6):
            F = gen_bush(2, delta, int(round(1 / delta)))
            G = Grid.for_family(F, 4)
            t1, t2 = induction_step_terms(FamilyRaster.build(F, G), rho)
            cs.append(lp_norm_tube_sum(F, F.p, G) / (t1 + t2))
        assert max(cs) / min(cs) <= 2.0
