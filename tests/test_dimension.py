"""Box-counting dimension, region building, duality comparison, norm fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelab.dimension import (
    ExponentFit,
    Region,
    box_counting_dim,
    box_counts,
    default_dimension_scales,
    exponent_fit_norms,
    holder_comparison,
)
from tubelab.functionals import FamilyRaster, Grid, TubeFamily, lp_norm_tube_sum, rasterize_tube
from tubelab.generators import cantor_offsets, gen_bush, gen_lines_in_planes
from tubelab.linegeom import Direction, GeometryError, Tube
from tubelab.suites import suite_member


def disk_region(h=2.0**-8):
    G = Grid(2, h, 1.0)
    centers = G.centers_of_linear(np.arange(G.total_cells))
    return Region(G, np.nonzero(np.linalg.norm(centers, axis=1) <= 1.0)[0])


class TestRegion:
    def test_volume(self):
        G = Grid(2, 0.25, 1.0)
        R = Region(G, [0, 1, 5])
        assert R.volume == pytest.approx(3 * 0.25**2)

    def test_empty_rejected(self):
        G = Grid(2, 0.25, 1.0)
        with pytest.raises(GeometryError):
            Region(G, [])

    def test_build_E_delta_single_tube_volume(self):
        delta = 2.0**-5
        T = Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)
        F = TubeFamily([T], delta, 2, 1, 1.0)
        G = Grid.for_family(F, 4)
        E = Region(G, FamilyRaster.build(F, G).occ)
        assert E.volume == pytest.approx(T.volume(), rel=0.05)

    def test_disjoint_union_additive(self):
        delta = 2.0**-5
        T1 = Tube([0.0, -0.3], Direction([1.0, 0.0]), delta)
        T2 = Tube([0.0, 0.3], Direction([1.0, 0.0]), delta)
        F = TubeFamily([T1, T2], delta, 2, 1, 1.0)
        F1 = TubeFamily([T1], delta, 2, 1, 1.0)
        G = Grid.for_family(F, 4)
        assert Region(G, FamilyRaster.build(F, G).occ).volume == pytest.approx(
            2 * Region(G, FamilyRaster.build(F1, G).occ).volume
        )

    def test_coincident_tubes_volume_of_one(self):
        delta = 2.0**-5
        T = Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)
        F2 = TubeFamily([T, T], delta, 2, 1, 1.0)
        F1 = TubeFamily([T], delta, 2, 1, 1.0)
        G = Grid.for_family(F1, 4)
        assert Region(G, FamilyRaster.build(F2, G).occ).volume == Region(G, FamilyRaster.build(F1, G).occ).volume


class TestRegionCells:
    def test_cells_sorted_distinct_int64(self):
        G = Grid(2, 1.0 / 16, 1.0)
        rng = np.random.default_rng(3)
        cells = rng.integers(0, G.total_cells, size=400)
        cells = np.concatenate([cells, cells[:50], cells[::-7]])
        R = Region(G, cells.tolist())
        assert R.cells.dtype == np.int64
        assert R.cells.tolist() == sorted(set(cells.tolist()))

    @pytest.mark.parametrize("cells", [[-1, 3, 5], [3, 1024], [1024], [0, 2**40]])
    def test_cells_outside_grid_rejected(self, cells):
        G = Grid(2, 1.0 / 16, 1.0)
        assert G.total_cells == 1024
        with pytest.raises(GeometryError, match=r"\[0, 1024\)"):
            Region(G, cells)

    @pytest.mark.parametrize("cells", [[1.7, 2.2], [3.0, 0.5], [np.nan], [np.inf, 1.0]])
    def test_non_integer_cells_rejected(self, cells):
        G = Grid(2, 1.0 / 16, 1.0)
        with pytest.raises(GeometryError, match=r"integers in \[0, 1024\)"):
            Region(G, cells)

    @pytest.mark.parametrize(
        "cells, want",
        [([1, 5, 9], [1, 5, 9]), ([1, 5, 5, 9], [1, 5, 9]), ([9, 5, 1], [1, 5, 9]), ([4], [4]), ([1, 0, 2], [0, 1, 2])],
    )
    def test_cells_sorted_or_left_as_they_are(self, cells, want):
        G = Grid(2, 1.0 / 16, 1.0)
        for dtype in (np.int32, np.int64):
            R = Region(G, np.array(cells, dtype=dtype))
            assert R.cells.dtype == np.int64 and R.cells.tolist() == want

    def test_raster_cells_kept_bit_for_bit(self):
        F = suite_member("bush-n3").family(2.0**-4)
        G = Grid.for_family(F, 4)
        occ = FamilyRaster.build(F, G).occ
        assert Region(G, occ).cells.tobytes() == np.unique(occ).tobytes()

    def test_integral_float_cells_accepted(self):
        G = Grid(2, 1.0 / 16, 1.0)
        assert Region(G, [5.0, 1.0, 5.0]).cells.tolist() == [1, 5]

    @pytest.mark.parametrize(
        "points, match",
        [
            ([0.0, 5.0, -7.0], r"point 1 lies outside \[-1, 1\]\^1: \[5.0\]"),
            ([-7.0, 5.0], r"point 0 lies outside \[-1, 1\]\^1: \[-7.0\]"),
            ([0.5, np.nan, 5.0], r"point 1 is not finite: \[nan\]"),
            ([np.inf], r"point 0 is not finite"),
            ([np.nextafter(1.0, 2.0)], r"point 0 lies outside"),
        ],
    )
    def test_points_outside_the_grid_rejected(self, points, match):
        G = Grid(1, 2.0**-4, 1.0)
        assert G.m == 32 and G.lo + G.m * G.h == 1.0
        with pytest.raises(GeometryError, match=match):
            Region.from_points(G, points)

    def test_points_on_the_closed_box_faces(self):
        G = Grid(1, 2.0**-4, 1.0)
        assert Region.from_points(G, [1.0, -1.0, 0.0, np.nextafter(1.0, 0.0)]).cells.tolist() == [0, 16, 31]
        G2 = Grid(2, 2.0**-4, 1.0)
        assert Region.from_points(G2, [[1.0, -1.0], [-1.0, 1.0]]).cells.tolist() == [31, 31 * 32]
        with pytest.raises(GeometryError, match=r"point 1 lies outside \[-1, 1\]\^2: \[0.0, 1.5\]"):
            Region.from_points(G2, [[0.0, 0.0], [0.0, 1.5]])

    @pytest.mark.parametrize("points", [[0.1, 0.2, 0.3], [[0.1, 0.2, 0.3]], [[[0.1, 0.2]]]])
    def test_points_of_another_dimension_rejected(self, points):
        with pytest.raises(GeometryError, match=r"points must have shape \(N, 2\)"):
            Region.from_points(Grid(2, 2.0**-4, 1.0), points)


class TestBoxCountingDim:
    def test_full_disk_two_dimensional(self):
        fit = box_counting_dim(disk_region(), [2.0**-j for j in range(1, 6)])
        assert fit.slope == pytest.approx(2.0, abs=0.1)

    def test_single_tube_coarse_scales_one_dimensional(self):
        delta = 2.0**-6
        T = Tube([0.0, 0.0, 0.0], Direction([1.0, 0.0, 0.0]), delta)
        F = TubeFamily([T], delta, 3, 1, 1.0)
        G = Grid.for_family(F, 4)
        E = Region(G, FamilyRaster.build(F, G).occ)
        scales = [2.0**-j for j in range(1, 5)]
        # Anchor averaging removes the +1 alignment bias that dominates a
        # short ladder of coarse scales.
        fit = box_counting_dim(E, scales, offsets=4)
        # Oracle: a unit segment needs 1/s boxes of size s, so the ideal
        # counts on these scales are (2, 4, 8, 16) with slope exactly 1.
        ideal = ExponentFit(scales, [1.0 / s for s in scales], x_is_inverse=True)
        assert ideal.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.slope == pytest.approx(ideal.slope, abs=0.15)

    def test_cantor_offsets_half_dimensional(self):
        off = cantor_offsets(0.5, 2.0**-6)
        G = Grid(1, 2.0**-8, 1.0)
        fit = box_counting_dim(Region.from_points(G, off), [2.0**-j for j in range(1, 7)])
        # Exact covering counts of this construction double every second
        # dyadic scale, so the fitted slope is 8/17.5.
        assert fit.slope == pytest.approx(8.0 / 17.5, abs=1e-9)
        assert abs(fit.slope - 0.5) <= 0.15

    def test_counts_monotone_under_inclusion(self):
        G = Grid(2, 2.0**-6, 1.0)
        centers = G.centers_of_linear(np.arange(G.total_cells))
        inner = Region(G, np.nonzero(np.linalg.norm(centers, axis=1) <= 0.5)[0])
        outer = Region(G, np.nonzero(np.linalg.norm(centers, axis=1) <= 0.9)[0])
        for s in (0.5, 0.25, 0.125):
            assert box_counts(inner, s) <= box_counts(outer, s)

    def test_degenerate_scales_rejected(self):
        R = disk_region(h=2.0**-6)
        with pytest.raises(GeometryError):
            box_counting_dim(R, [2.0**-10, 2.0**-11, 2.0**-12])

    def test_repeated_effective_scales_dropped(self):
        R = disk_region(h=2.0**-4)
        fit = box_counting_dim(R, [0.25, 0.5, 0.25, 0.125])
        assert fit.scales == (0.25, 0.5, 0.125)
        assert fit.values == tuple(box_counts(R, s) for s in (0.25, 0.5, 0.125))
        assert fit.slope == box_counting_dim(R, [0.25, 0.5, 0.125]).slope
        # 0.26 snaps to 0.25 as well; the first of each snapped scale is kept.
        assert box_counting_dim(R, [0.5, 0.25, 0.26, 0.125, 0.5]).scales == (0.5, 0.25, 0.125)

    def test_too_few_distinct_scales_named(self):
        R = disk_region(h=2.0**-4)
        with pytest.raises(GeometryError, match=r"snap to \[0\.25\] at grid step h = 0\.0625"):
            box_counting_dim(R, [0.25, 0.26, 0.27])

    def test_needs_three_scales(self):
        with pytest.raises(GeometryError):
            ExponentFit([1.0, 0.5], [1.0, 2.0])


def brute_force_box_counts(R, scale, offsets):
    """Distinct coarse multi-index tuples per anchor, averaged over anchors."""
    factor = max(int(round(scale / R.grid.h)), 1)
    multi = np.stack(np.unravel_index(R.cells, (R.grid.m,) * R.grid.n), axis=1).tolist()
    total = 0.0
    for t in range(offsets):
        shift = (t * factor) // offsets
        total += float(len({tuple((i + shift) // factor for i in cell) for cell in multi}))
    return total / offsets


class TestBoxCountsOracle:
    @pytest.mark.parametrize("n, m", [(1, 62), (2, 24), (3, 12), (4, 7)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_set_of_coarse_boxes(self, n, m, seed):
        rng = np.random.default_rng([n, seed])
        G = Grid(n, 1.0 / m, 0.5)
        assert G.m == m
        for size in (1, 5, G.total_cells // 3):
            cells = rng.integers(0, G.total_cells, size=size)
            R = Region(G, cells)
            # Factors that divide m and factors that do not, up to one box
            # covering the whole grid.
            for factor in sorted({1, 2, 3, 4, 5, m // 2, m}):
                for offsets in (1, 2, 3, 4):
                    scale = factor * G.h
                    assert box_counts(R, scale, offsets) == brute_force_box_counts(R, scale, offsets)

    def test_large_grid_keys(self):
        # 2^11 cells per axis in n = 3: linear indices pass int32, so the
        # per-axis indices and the finest box keys are int64, while coarser
        # keys are int32 built from int64 indices.
        G = Grid(3, 2.0**-10, 1.0)
        rng = np.random.default_rng(5)
        R = Region(G, rng.integers(0, G.total_cells, size=2000))
        for scale, offsets in ((G.h, 1), (2 * G.h, 3), (0.1, 4)):
            assert box_counts(R, scale, offsets) == brute_force_box_counts(R, scale, offsets)


class TestHolderComparison:
    def test_single_tube_chain_tight(self):
        delta = 2.0**-5
        T = Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)
        F = TubeFamily([T], delta, 2, 1, 1.0)
        G = Grid.for_family(F, 4)
        rep = holder_comparison(F, G, F.p)
        assert rep.chain_holds
        # One tube: mass = |T| and |E| = |T|, so the comparison collapses to
        # |T| <= |T|^(1/p') |T|^(1/p), an equality.
        assert rep.mass_lhs == pytest.approx(rep.holder_rhs, rel=1e-9)

    def test_sharpness_n2_deficit(self):
        F = gen_lines_in_planes(2, 1, 1.0, 2.0**-6)
        G = Grid.for_family(F, 4)
        rep = holder_comparison(F, G, F.p)
        assert rep.chain_holds
        assert rep.exponent_deficit >= -0.2

    def test_wrong_p_rejected(self):
        F = gen_lines_in_planes(2, 1, 1.0, 2.0**-5)
        G = Grid.for_family(F, 4)
        with pytest.raises(ValueError, match="p must equal"):
            holder_comparison(F, G, 3.0)

    def test_chain_holds_on_random_families(self):
        from tubelab.generators import gen_random_nonconcentrated

        for seed in (1, 2, 3):
            res = gen_random_nonconcentrated(2, 1, 1.0, 2.0**-5, seed=seed)
            G = Grid.for_family(res.family, 4)
            rep = holder_comparison(res.family, G, res.family.p)
            assert rep.chain_holds

    @given(st.sampled_from([2, 3]), st.integers(0, 100_000), st.integers(1, 12), st.floats(0.1, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_duality_chain_property(self, n, seed, count, beta):
        """sum |T ∩ E| <= |E|^(1/p') ||sum chi_T||_p on random families at
        factor 4, with the mass recomputed from per-tube rasters."""
        rng = np.random.default_rng(seed)
        delta = 1 / 16 if n == 2 else 1 / 8
        tubes = [
            Tube(rng.uniform(-0.3, 0.3, size=n), Direction(rng.normal(size=n)), delta)
            for _ in range(count)
        ]
        F = TubeFamily(tubes, delta, n, int(rng.integers(1, n)), beta)
        G = Grid.for_family(F, 4)
        rep = holder_comparison(F, G, F.p)
        assert rep.mass_lhs <= rep.holder_rhs * (1 + 1e-9)
        cells = sum(rasterize_tube(G, t).size for t in tubes)
        assert rep.mass_lhs == G.h**n * cells


class TestExponentFitNorms:
    def test_single_tube_exponent_zero(self):
        # One tube at every scale: the normalized value is
        # |T|^(1/p) * |T|^(-1/p) ~ 1 up to grid error, so the slope is ~0,
        # which meets the (1-d)/p' <= 0 bound for d >= 1.
        fit = exponent_fit_norms(lambda dl: gen_bush(2, dl, 1), [2.0**-3, 2.0**-4, 2.0**-5], 2.0)
        assert abs(fit.slope) <= 0.1

    def test_sharpness_n2_flat(self):
        fit = exponent_fit_norms(
            lambda dl: gen_lines_in_planes(2, 1, 1.0, dl), [2.0**-j for j in range(3, 8)], 2.0
        )
        assert abs(fit.slope) <= 0.15
        assert fit.residual < 0.1

    def test_suite_member_family_is_a_scale_callable(self):
        # A suite member's `family` and a generator closure name the same
        # family at each scale, so they give the same fit.
        scales = [2.0**-3, 2.0**-4, 2.0**-5]
        from_suite = exponent_fit_norms(suite_member("planes-n2-d1-b1").family, scales, 2.0)
        from_generator = exponent_fit_norms(lambda dl: gen_lines_in_planes(2, 1, 1.0, dl), scales, 2.0)
        assert from_suite.slope == from_generator.slope
        assert from_suite.values == from_generator.values

    def test_bush_exponent_above_prediction(self):
        scales = [2.0**-4, 2.0**-5, 2.0**-6]
        values = []
        for s in scales:
            fam = gen_bush(2, s, int(round(1 / s)))
            g = Grid.for_family(fam, 4)
            values.append(lp_norm_tube_sum(fam, 2.0, g) / fam.sum_volume() ** 0.5)
        fit = ExponentFit(scales, values)
        assert fit.slope >= (1 - 1) / 2.0 - 0.15

    def test_scale_generation_failure_propagates(self):
        with pytest.raises(GeometryError):
            exponent_fit_norms(
                lambda dl: gen_lines_in_planes(3, 2, 1.0, dl, size_cap=50),
                [2.0**-3, 2.0**-4, 2.0**-5],
                1.5,
            )


class TestDefaultScales:
    def test_finest_three_above_resolution(self):
        G = Grid(2, 2.0**-8, 1.0 + 2.0**-6)
        scales = default_dimension_scales(G)
        assert len(scales) == 3
        assert min(scales) >= 4 * G.h - 1e-12
        assert scales == sorted(scales, reverse=True)
