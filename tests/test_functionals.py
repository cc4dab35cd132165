"""Grid functionals: norms, multilinear sums, decompositions, coarsening."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tubelab import functionals, linegeom
from tubelab.functionals import (
    COARSE_LENGTH,
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
)
from tubelab.generators import gen_lines_in_planes
from tubelab.linegeom import (
    Direction,
    GeometryError,
    Tube,
    build_cap_cover,
    complete_orthonormal,
    point_in_tube,
    segment_point_distances,
    tuple_wedges,
    wedge_volume,
)
from tubelab.suites import DECOMPOSE_RHO, suite_member


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


def _reference_family_check(tubes, delta, n, ball_radius):
    """The family's tube checks, one tube at a time."""
    for i, t in enumerate(tubes):
        if t.n != n:
            raise GeometryError(f"tube {i} lives in R^{t.n}, family in R^{n}")
        if abs(t.radius - delta) > 1e-12:
            raise GeometryError(f"tube {i} has radius {t.radius}, family scale {delta}")
        if float(np.linalg.norm(t.segment_center)) > ball_radius + 1e-9:
            raise GeometryError(f"tube {i} center outside B(0, {ball_radius})")
        for e in t.endpoints:
            if float(np.linalg.norm(e)) > ball_radius + 1e-9:
                raise GeometryError(f"tube {i} segment leaves B(0, {ball_radius})")


def _check_outcome(check):
    try:
        check()
    except GeometryError as e:
        return str(e)
    return None


def _faulty_tube(n, delta, faults):
    """A tube failing the named family checks (dim, radius, center, end)."""
    if "dim" in faults:
        return Tube(np.zeros(n + 1), Direction(np.eye(n + 1)[0]), delta)
    radius = 1.5 * delta if "radius" in faults else delta
    center = 1.2 if "center" in faults else 0.8 if "end" in faults else 0.0
    return Tube(center * np.eye(n)[0], Direction(np.eye(n)[0]), radius)


class TestFamilyChecks:
    """`TubeFamily` checks its tubes in one stacked pass; the first failing
    tube and its message must be the ones a check per tube gives."""

    @pytest.mark.parametrize(
        "faults",
        [
            {},
            {5: "dim"},
            {5: "dim", 7: "radius"},
            {3: "radius", 5: "dim"},
            {4: "radius center"},
            {4: "center", 2: "end"},
            {6: "end", 9: "radius"},
            {0: "center end"},
            {39: "end"},
            {39: "dim", 38: "center"},
        ],
    )
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_first_failure_matches_per_tube_loop(self, n, faults):
        rng = np.random.default_rng(n)
        delta = 2.0**-4
        tubes = list(generic_family(rng, n, delta, 40).tubes)
        for i, kinds in faults.items():
            tubes[i] = _faulty_tube(n, delta, kinds.split())
        got = _check_outcome(lambda: TubeFamily(tubes, delta, n, 1, 1.0))
        assert got == _check_outcome(lambda: _reference_family_check(tubes, delta, n, 1.0))
        assert (got is None) == (not faults)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_norms_at_the_threshold(self, n):
        """Ball radii within a few ulps of each tube's center and endpoint
        norms, less the 1e-9 slack: a norm off by one ulp flips a decision."""
        rng = np.random.default_rng(10 + n)
        delta = 2.0**-4
        decided = set()
        for _ in range(150):
            u = rng.normal(size=n)
            tube = Tube(rng.uniform(-0.4, 0.4, size=n), Direction(u), delta, length=rng.uniform(0.5, 1.5))
            for point in (tube.segment_center, *tube.endpoints):
                radius = float(np.linalg.norm(point)) - 1e-9
                for _ in range(3):
                    radius = float(np.nextafter(radius, 0.0))
                for _ in range(7):
                    got = _check_outcome(lambda: TubeFamily([tube], delta, n, 1, 1.0, ball_radius=radius))
                    want = _check_outcome(lambda: _reference_family_check([tube], delta, n, radius))
                    assert got == want
                    decided.add(want is None)
                    radius = float(np.nextafter(radius, 2.0))
        assert decided == {True, False}


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

    #: Tube radius per dimension; only the grid factor delta/h matters to the
    #: rasterizer, and larger tubes keep the fine grids cheap.
    BRUTE_DELTA = {2: 1 / 16, 3: 1 / 2, 4: 1 / 2}
    BRUTE_FACTORS = {
        2: [*range(2, 9), 10, 12, 16, 32],
        3: [*range(2, 9), 10, 12, 16, 32],
        4: [*range(2, 9), 10, 12],
    }

    @staticmethod
    def bruteforce_raster(G, T, chunk=1 << 18):
        """Sorted linear indices of the cells of the tube's bounding box whose
        center is within T.radius of the core segment (point_in_tube's test)."""
        ends = np.stack(T.endpoints)
        lo = np.maximum(np.floor((ends.min(axis=0) - T.radius - G.lo) / G.h).astype(int), 0)
        hi = np.minimum(np.ceil((ends.max(axis=0) + T.radius - G.lo) / G.h).astype(int), G.m - 1)
        shape = tuple(hi - lo + 1)
        size = math.prod(shape)
        u = T.direction.u
        found = []
        for start in range(0, size, chunk):
            flat = np.arange(start, min(start + chunk, size))
            multi = np.stack(np.unravel_index(flat, shape), axis=1) + lo
            rel = G.lo + (multi + 0.5) * G.h - T.segment_center
            t = np.clip(rel @ u, -T.length / 2, T.length / 2)
            inside = np.linalg.norm(rel - np.outer(t, u), axis=1) <= T.radius
            found.append(np.ravel_multi_index(multi[inside].T, (G.m,) * G.n))
        return np.sort(np.concatenate(found))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tilted_tubes_match_bruteforce_bounding_box(self, n):
        """rasterize_tube returns exactly the brute-force cell set of every
        cell center in the tube's bounding box, at grid factors 2 to 8 and 10
        to 32 (to 12 for n = 4), for diagonal, random, axis-parallel and
        near-axis directions.  A rasterizer that searches a fixed transverse
        window of r/h + sqrt(n) + 1 cells per slab loses cells here from
        factor 10 on in every dimension."""
        rng = np.random.default_rng(40 + n)
        delta = self.BRUTE_DELTA[n]
        e = np.eye(n)
        dirs = [np.ones(n), e[0], e[0] + 1e-3 * e[1]]
        dirs += list(rng.normal(size=(2 if n < 4 else 0, n)))
        for factor in self.BRUTE_FACTORS[n]:
            G = Grid(n, delta / factor, 1.5)
            for u in dirs:
                T = Tube(rng.uniform(-0.1, 0.1, size=n), Direction(u), delta)
                np.testing.assert_array_equal(
                    rasterize_tube(G, T), self.bruteforce_raster(G, T), err_msg=f"{n}, {factor}, {u}"
                )

    def test_streaming_counts_match_per_tube_counts(self, monkeypatch):
        rng = np.random.default_rng(5)
        F = generic_family(rng, 2, 1 / 16, 12)
        G = Grid.for_family(F, 4)
        # np.unique over the per-tube cells, against the count field.
        with monkeypatch.context() as mp:
            mp.setattr(functionals, "DENSE_BYTES_LIMIT", 0)
            small = FamilyRaster.build(F, G)
        monkeypatch.setattr(functionals, "PER_TUBE_LIMIT", len(F) - 1)
        big = FamilyRaster.build(F, G)
        assert small.tube_cells is not None and big.tube_cells is None
        np.testing.assert_array_equal(small.occ, big.occ)
        np.testing.assert_array_equal(small.counts, big.counts)
        assert small.entries == big.entries

    def test_family_above_per_tube_limit_refused_by_per_tube_evaluations(self, monkeypatch):
        # Above the limit the raster keeps no runs: the multilinear sums and
        # the two grouped norms refuse it, and the message names the limit.
        F = suite_member("bush-n2").family(2.0**-4)
        G = Grid.for_family(F, 4)
        monkeypatch.setattr(functionals, "PER_TUBE_LIMIT", len(F) - 1)
        raster = FamilyRaster.build(F, G)
        assert raster.tube_cells is None
        match = rf"at most PER_TUBE_LIMIT = {len(F) - 1} tubes"
        with pytest.raises(GeometryError, match=match):
            multilinear_cell_values([F, F], G)
        with pytest.raises(GeometryError, match=match):
            decompose_lp(raster, DECOMPOSE_RHO, 2, F.p)
        with pytest.raises(GeometryError, match=match):
            induction_step_terms(raster, DECOMPOSE_RHO)

    def test_dense_build_peak_is_the_field(self):
        # 2 x 2,001 axis-parallel tubes take the dense path; counting each
        # tube into the field in place keeps the peak at the field's size,
        # not at the family's 2.3M incidence entries.
        from tubelab.generators import gen_axes

        F = family([t for f in gen_axes(2, 2, 1 / 16, 2001) for t in f.tubes], 1 / 16, 2)
        G = Grid.for_family(F, 4)
        tracemalloc.start()
        try:
            raster = FamilyRaster.build(F, G)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert raster.tube_cells is None
        assert peak < 2 * G.total_cells * 8 + 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_norm_only_build_peak_is_the_field(self):
        # 640 tubes, below PER_TUBE_LIMIT, with 1.4M incidence entries on a
        # grid of 88^3 cells (5.3 MiB as int64): a norm counts its runs in
        # the field and expands no per-tube cell lists, which with their
        # concatenation would take 2 x 11 MiB.  The bound is an int64 field
        # plus 2 MiB for a batch, so a field grown back to 8 bytes per cell
        # fails it.
        F = gen_lines_in_planes(3, 2, 1.0, 0.1)
        G = Grid.for_family(F, 4)
        assert len(F) == 640 and G.m == 88
        tracemalloc.start()
        try:
            lp_norm_tube_sum(F, F.p, G)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < G.total_cells * 8 + 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_dense_field_over_limit_names_largest_factor(self, monkeypatch):
        rng = np.random.default_rng(6)
        F = generic_family(rng, 2, 1 / 16, 3)
        monkeypatch.setattr(functionals, "PER_TUBE_LIMIT", 1)
        G8 = Grid.for_family(F, 8)
        cell_bytes = functionals.FIELD_DTYPE.itemsize
        monkeypatch.setattr(functionals, "DENSE_BYTES_LIMIT", Grid.for_family(F, 5).total_cells * cell_bytes)
        with pytest.raises(MemoryError, match=rf"{G8.m}\^2 cells.*largest grid factor that fits is 5"):
            FamilyRaster.build(F, G8)
        assert FamilyRaster.build(F, Grid.for_family(F, 5)).tube_cells is None
        monkeypatch.setattr(functionals, "DENSE_BYTES_LIMIT", cell_bytes)
        with pytest.raises(MemoryError, match="no grid with h <= delta/2 fits"):
            FamilyRaster.build(F, Grid.for_family(F, 2))

    def test_field_that_fits_only_at_its_own_cell_size_is_counted(self, monkeypatch):
        # 640 tubes with 1.4M entries on 88^3 cells pick the count field.
        # The limit admits the field at its own cell size but not at 8
        # bytes per cell: the build counts in the field and equals np.unique.
        F = gen_lines_in_planes(3, 2, 1.0, 0.1)
        G = Grid.for_family(F, 4)
        with monkeypatch.context() as mp:
            mp.setattr(functionals, "DENSE_BYTES_LIMIT", 0)
            unique = FamilyRaster.build(F, G)
        limit = G.total_cells * functionals.FIELD_DTYPE.itemsize
        assert G.total_cells * 8 > limit
        monkeypatch.setattr(functionals, "DENSE_BYTES_LIMIT", limit)
        calls = []
        field_counts = functionals._field_counts
        monkeypatch.setattr(functionals, "_field_counts", lambda *a: calls.append(1) or field_counts(*a))
        rasters = {"default": FamilyRaster.build(F, G)}
        monkeypatch.setattr(functionals, "PER_TUBE_LIMIT", -1)
        rasters["field"] = FamilyRaster.build(F, G)
        assert len(calls) == 2
        for path, raster in rasters.items():
            np.testing.assert_array_equal(raster.occ, unique.occ, err_msg=path)
            np.testing.assert_array_equal(raster.counts, unique.counts, err_msg=path)
            assert raster.counts.dtype == np.int64 and raster.entries == unique.entries, path

    def test_planes_family_at_two_to_minus_six_fits_at_factor_4(self):
        # n = 3, d = 2, beta = 1/2 at delta = 2^-6: 520^3 cells take 536 MiB
        # as the count field, under DENSE_BYTES_LIMIT at factor 4, not at 5.
        F = gen_lines_in_planes(3, 2, 0.5, 2.0**-6)
        G4 = Grid.for_family(F, 4)
        assert G4.m == 520 and functionals._field_bytes(G4) <= functionals.DENSE_BYTES_LIMIT
        functionals._check_dense_size(F, G4)
        with pytest.raises(MemoryError, match="largest grid factor that fits is 4"):
            functionals._check_dense_size(F, Grid.for_family(F, 5))


def exact_raster(G, T):
    """Sorted linear indices of the cells of T's bounding box, padded by one
    cell, that pass the rasterizer's membership rule
    segment_point_distances(...) <= r + 1e-12, tested on every cell."""
    ends = np.stack(T.endpoints)
    lo = np.maximum(np.floor((ends.min(axis=0) - T.radius - G.lo) / G.h).astype(int) - 1, 0)
    hi = np.minimum(np.ceil((ends.max(axis=0) + T.radius - G.lo) / G.h).astype(int) + 1, G.m - 1)
    box = np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(lo, hi)], indexing="ij")
    multi = np.stack(box, axis=-1).reshape(-1, G.n)
    dist = segment_point_distances(G.lo + (multi + 0.5) * G.h, T.segment_center, T.direction.u, T.length)
    return np.sort(np.ravel_multi_index(multi[dist <= T.radius + 1e-12].T, (G.m,) * G.n))


def count_paths(monkeypatch, F, G):
    """{path: raster} of F on G: the default build, the count field
    (forced by a family above PER_TUBE_LIMIT) and np.unique over the cells
    (forced by a field above DENSE_BYTES_LIMIT)."""
    rasters = {"default": FamilyRaster.build(F, G)}
    with monkeypatch.context() as mp:
        mp.setattr(functionals, "PER_TUBE_LIMIT", -1)
        rasters["field"] = FamilyRaster.build(F, G)
    with monkeypatch.context() as mp:
        mp.setattr(functionals, "DENSE_BYTES_LIMIT", 0)
        rasters["unique"] = FamilyRaster.build(F, G)
    return rasters


def assert_rasters_exact(monkeypatch, F, G):
    """rasterize_tube, the per-tube cell lists expanded from the kept runs and
    the counts of every count path equal the exact test applied to every
    cell; returns the cell lists."""
    want = [exact_raster(G, T) for T in F.tubes]
    for i, (T, cells) in enumerate(zip(F.tubes, want)):
        np.testing.assert_array_equal(rasterize_tube(G, T), cells, err_msg=f"tube {i}")
    occ, counts = np.unique(np.concatenate(want) if want else np.empty(0, dtype=np.int64), return_counts=True)
    for path, raster in count_paths(monkeypatch, F, G).items():
        np.testing.assert_array_equal(raster.occ, occ, err_msg=path)
        np.testing.assert_array_equal(raster.counts, counts, err_msg=path)
        assert raster.counts.dtype == counts.dtype and raster.entries == sum(c.size for c in want), path
        assert (raster.tube_cells is None) == (path == "field")
        if raster.tube_cells is not None:
            lists = functionals._tube_cell_lists(raster)
            assert len(lists) == len(want)
            for got, cells in zip(lists, want):
                np.testing.assert_array_equal(got, cells, err_msg=path)
    return want


def reference_lookup(F, G, cells):
    """(starts, ends, ids): the tubes of F containing cells[i] are
    ids[starts[i]:ends[i]], in tube order, from the `exact_raster` cell list
    of every tube: the reference for `_candidate_lookup`."""
    lists = [exact_raster(G, T) for T in F.tubes]
    cat = np.concatenate(lists) if lists else np.empty(0, dtype=np.int64)
    order = np.argsort(cat, kind="stable")
    cat, ids = cat[order], np.repeat(np.arange(len(lists)), [c.size for c in lists])[order]
    return np.searchsorted(cat, cells, "left"), np.searchsorted(cat, cells, "right"), ids


class TestRunEdges:
    """Run ends, grazing rows and the two count paths, against the exact test
    on every cell.  The rasterizer tests only the cells at the ends of a
    candidate run, so each case here puts a run end or a whole row at the
    threshold."""

    #: (delta, grid factor) per dimension, keeping the count fields small.
    LAST_CELL_GRIDS = {2: (1 / 16, 4), 3: (1 / 4, 4), 4: (1 / 2, 2)}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_runs_ending_on_the_last_cell(self, n, monkeypatch):
        # A tube along each axis ends on the ball's boundary, so its cap
        # reaches the grid's last cell along that axis, and a mirrored one
        # starts on the first; a slightly tilted one ends on the boundary too.  A -1 written one past the last cell would land in
        # the next row of the field, or past its end.
        delta, factor = self.LAST_CELL_GRIDS[n]
        e = np.eye(n)
        tubes = [Tube(s * 0.5 * e[a], Direction(e[a]), delta) for a in range(n) for s in (1, -1)]
        tilted = [Direction(e[a] + 0.04 * e[(a + 1) % n]) for a in range(n)]
        tubes += [Tube(0.5 * u.u, u, delta) for u in tilted]
        F = family(tubes, delta, n)
        G = Grid.for_family(F, factor)
        want = assert_rasters_exact(monkeypatch, F, G)
        for a in range(n):
            multi = np.unravel_index(want[2 * a], (G.m,) * n)
            assert (multi[a] == G.m - 1).any() and (np.unravel_index(want[2 * a + 1], (G.m,) * n)[a] == 0).any()

    @staticmethod
    def axis_at(y: float, dist: float) -> float:
        """An axis coordinate y0 with fl(y - y0) == dist exactly."""
        y0 = y - dist
        for _ in range(8):
            if y - y0 == dist:
                return y0
            y0 = np.nextafter(y0, -np.inf if y - y0 < dist else np.inf)
        raise AssertionError(f"no axis at distance {dist!r} from {y!r}")

    @pytest.mark.parametrize("n", [2, 3])
    def test_grazing_rows_of_axis_parallel_tubes(self, n, monkeypatch):
        # Every cell of one row has the computed distance d to the axis of
        # an axis-parallel tube: r and r -+ 1 ulp, r + 1e-12 (the threshold
        # itself) and the next double above it.  Only the last is outside.
        delta = 1 / 16
        r = delta
        thr = r + 1e-12
        dists = [np.nextafter(r, 0.0), r, np.nextafter(r, 1.0), thr, np.nextafter(thr, 1.0)]
        G = Grid.for_family(family([], delta, n), 4)
        y = G.lo + (G.m // 2 + 0.5) * G.h
        tubes = []
        for i, d in enumerate(dists):
            c = np.zeros(n)
            c[1] = self.axis_at(y, d)
            if n == 3:
                c[2] = G.lo + (G.m // 2 - 8 + 4 * i + 0.5) * G.h
            tubes.append(Tube(c, Direction(np.eye(n)[0]), delta))
        F = family(tubes, delta, n)
        want = assert_rasters_exact(monkeypatch, F, G)
        for d, T, cells in zip(dists, tubes, want):
            multi = np.stack(np.unravel_index(cells, (G.m,) * n), axis=1)
            on_row = (G.lo + (multi[:, 1] + 0.5) * G.h == y) & (
                np.ones(len(multi), dtype=bool) if n == 2 else G.lo + (multi[:, 2] + 0.5) * G.h == T.segment_center[2]
            )
            # Inside, the row holds every cell whose center projects onto the segment.
            assert (on_row.sum() >= G.m // 4 - 1) == (d <= thr), (d, on_row.sum())

    TILTS = [1e-9, 1e-7, 1e-6, 1.1e-6, 1e-5, 1e-3, 1e-1]

    @pytest.mark.parametrize("factor", [2, 4, 8, 16, 32])
    def test_tangent_rows_of_tilted_tubes(self, factor, monkeypatch):
        # The stress construction of the scanline: a tube tilted off axis 0
        # in the (0, 1) plane, with its center snapped so that a row of cell
        # centers along axis 0 is tangent to its cylinder (at distance r
        # from the axis, on either side), for tilts about the axis-parallel
        # branch's 1e-6 switch.
        delta = 1 / 2
        G = Grid(3, delta / factor, 1.0 + delta)
        mid = G.lo + (G.m // 2 + 0.5) * G.h
        tubes = []
        for tilt in self.TILTS:
            for side in (-1.0, 1.0):
                c = np.array([0.1, mid, mid + side * delta])
                tubes.append(Tube(c, Direction([1.0, tilt, 0.0]), delta))
        F = family(tubes, delta, 3)
        assert_rasters_exact(monkeypatch, F, G)

    @pytest.mark.parametrize("n", [2, 3])
    def test_empty_and_one_tube_families(self, n, monkeypatch):
        delta = 1 / 8
        T = Tube(np.full(n, 0.1), Direction(np.arange(1.0, n + 1.0)), delta)
        G = Grid.for_family(family([T], delta, n), 4)
        for tubes in ([], [T]):
            F = family(tubes, delta, n)
            want = assert_rasters_exact(monkeypatch, F, G)
            assert len(want) == len(tubes) and all(c.size > 0 for c in want)

    @pytest.mark.parametrize("n", [3, 4])
    def test_field_counts_equal_unique_counts(self, n, monkeypatch):
        # Tubes near each axis and generic ones: runs along every scan axis,
        # so the field is differenced and summed along each axis in turn.
        rng = np.random.default_rng(60 + n)
        delta = 1 / 4 if n == 3 else 1 / 2
        tubes = list(generic_family(rng, n, delta, 12).tubes)
        for a in range(n):
            for _ in range(3):
                u = np.eye(n)[a] + 0.3 * rng.normal(size=n)
                u[a] = 2.0
                tubes.append(Tube(rng.uniform(-0.2, 0.2, size=n), Direction(u), delta))
        F = family(tubes, delta, n)
        assert set(np.argmax(np.abs(F.direction_matrix()), axis=1).tolist()) == set(range(n))
        assert_rasters_exact(monkeypatch, F, Grid.for_family(F, 4 if n == 3 else 2))


class TestBatchIndependence:
    """A tube's cells do not depend on the other tubes of its batch: the
    membership test is elementwise, so shuffling the family and giving every
    tube a batch of its own leaves every count path unchanged."""

    @pytest.mark.parametrize(
        "make",
        [
            # Many tubes share each direction.
            lambda: gen_lines_in_planes(3, 2, 1.0, 0.16),
            lambda: suite_member("random-n3-d1").family(2.0**-5),
        ],
        ids=["planes-n3d2-0.16", "random-n3-d1-2^-5"],
    )
    def test_shuffled_one_tube_batches(self, make, monkeypatch):
        F = make()
        G = Grid.for_family(F, 4)
        want = count_paths(monkeypatch, F, G)
        perm = np.random.default_rng(8).permutation(len(F))
        shuffled = family([F.tubes[i] for i in perm], F.delta, F.n, F.d, F.beta)
        monkeypatch.setattr(functionals, "_BATCH_ROWS", (1, 1))
        got = count_paths(monkeypatch, shuffled, G)
        for path, raster in want.items():
            np.testing.assert_array_equal(got[path].occ, raster.occ, err_msg=path)
            np.testing.assert_array_equal(got[path].counts, raster.counts, err_msg=path)
            assert got[path].entries == raster.entries, path
            if raster.tube_cells is not None:
                got_lists, want_lists = (functionals._tube_cell_lists(r) for r in (got[path], raster))
                for j, i in enumerate(perm):
                    np.testing.assert_array_equal(got_lists[j], want_lists[i], err_msg=path)


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
        G = Grid.for_family(families[0], factor=4)
        ratio = multilinear_kakeya_lhs(families, G) / multilinear_kakeya_rhs(families)
        exact = (v4 * delta**4) ** 0.75 / families[0].tubes[0].volume()
        assert ratio <= 1.0
        assert abs(ratio / exact - 1.0) <= 0.1


def per_cell_values(rasters):
    """The per-cell multilinear loop: every candidate cell looks up its
    tubes per slot in `reference_lookup` and sums its own block of the wedge
    table."""
    if len({id(r) for r in rasters}) == 1:
        cand = rasters[0].occ[rasters[0].counts >= 2]
    else:
        cand = rasters[0].occ
        for r in rasters[1:]:
            cand = np.intersect1d(cand, r.occ, assume_unique=True)
    if cand.size == 0:
        return cand, np.zeros(0)
    W = tuple_wedges([r.family.direction_matrix() for r in rasters])
    lookups = [reference_lookup(r.family, r.grid, cand) for r in rasters]
    vals = np.zeros(cand.size)
    for i in range(cand.size):
        subs = [ids[s[i] : e[i]] for (s, e, ids) in lookups]
        vals[i] = W[np.ix_(*subs)].sum()
    return cand, vals


def tuple_enumeration(fams, G):
    """{cell: (value, tuples)}: membership by point_in_tube on the cell
    centers near each tube, and the sum of wedge_volume over the ordered
    tuples of containing tubes, one from each family."""
    hits = {}
    for f in {id(f): f for f in fams}.values():
        found: dict[int, list[int]] = {}
        for i, t in enumerate(f.tubes):
            # Cells of the bounding box within r + h of the axis, a margin
            # wide enough that point_in_tube alone decides membership.
            ends = np.stack(t.endpoints)
            lo = np.maximum(np.floor((ends.min(axis=0) - t.radius - G.lo) / G.h).astype(int), 0)
            hi = np.minimum(np.ceil((ends.max(axis=0) + t.radius - G.lo) / G.h).astype(int), G.m - 1)
            axes = np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(lo, hi)], indexing="ij")
            multi = np.stack(axes, axis=-1).reshape(-1, G.n)
            centers = G.lo + (multi + 0.5) * G.h
            rel = centers - t.segment_center
            along = np.clip(rel @ t.direction.u, -t.length / 2, t.length / 2)
            near = np.linalg.norm(rel - np.outer(along, t.direction.u), axis=1) <= t.radius + G.h
            linear = np.ravel_multi_index(multi.T, (G.m,) * G.n)
            for cell, x in zip(linear[near].tolist(), centers[near]):
                if point_in_tube(t, x):
                    found.setdefault(cell, []).append(i)
        hits[id(f)] = found
    cells = set.intersection(*[set(hits[id(f)]) for f in fams])
    wedges = {}
    want = {}
    for cell in cells:
        members = [hits[id(f)][cell] for f in fams]
        total = 0.0
        for combo in itertools.product(*members):
            if combo not in wedges:
                wedges[combo] = wedge_volume([f.tubes[i].direction.u for f, i in zip(fams, combo)])
            total += wedges[combo]
        want[cell] = (total, math.prod(len(m) for m in members))
    return want


class TestFaceSums:
    """Per-face multilinear sums against the per-cell loop and against
    explicit tuple enumeration."""

    @staticmethod
    def slot_families(case):
        if case == "bush-n2":
            return suite_member("bush-n2").mk_families(2.0**-4)
        axes = suite_member("axes-n3-k3").mk_families(2.0**-4)
        if case == "axes-n3-k3":
            return axes
        bush = suite_member("bush-n3").family(2.0**-4)
        return [bush, bush, axes[0]]

    @pytest.mark.parametrize("case", ["bush-n2", "axes-n3-k3", "mixed-AAB"])
    def test_equals_per_cell_loop_and_tuple_enumeration(self, case):
        fams = self.slot_families(case)
        assert len({id(f) for f in fams}) == {"bush-n2": 1, "axes-n3-k3": 3, "mixed-AAB": 2}[case]
        G = Grid.for_family(fams[0], 4)
        built = {}
        rasters = [built.setdefault(id(f), FamilyRaster.build(f, G)) for f in fams]
        cells, vals = multilinear_cell_values(fams, G)
        ref_cells, ref_vals = per_cell_values(rasters)
        assert np.array_equal(cells, ref_cells) and np.array_equal(vals, ref_vals)

        # The pairs kept on the candidate cells are those of the reference.
        lookups = [reference_lookup(r.family, G, cells) for r in built.values()]
        for r, (starts, ends, ids) in zip(built.values(), lookups):
            got_starts, got_ends, got_ids = functionals._candidate_lookup(r, cells)
            np.testing.assert_array_equal(got_ends - got_starts, ends - starts)
            np.testing.assert_array_equal(got_ids, np.concatenate([ids[a:b] for a, b in zip(starts, ends)]))
        # The dedup path runs: fewer distinct faces than cells.
        faces = {tuple(ids[s[i] : e[i]].tobytes() for s, e, ids in lookups) for i in range(cells.size)}
        assert 1 < len(faces) < cells.size

        want = tuple_enumeration(fams, G)
        got = dict(zip(cells.tolist(), vals.tolist()))
        assert any(v > 0.0 for v, _ in want.values())
        for cell in set(got) | set(want):
            value, tuples = want.get(cell, (0.0, 0))
            assert abs(got.get(cell, 0.0) - value) <= 3e-8 * max(tuples, 1), cell


class TestChunkedFaceSums:
    """Face-local sums in chunks of at most WEDGE_TUPLE_LIMIT tuples, with
    the limit patched down so that every case runs in many chunks."""

    @staticmethod
    def slot_families(case):
        if case != "n4-k4":
            return TestFaceSums.slot_families(case)
        # The shared family of test_n4_k4_matches_tuple_enumeration.
        rng = np.random.default_rng(41)
        n, delta = 4, 0.5
        tubes = []
        for axis in range(n):
            for i in range(2):
                u = np.eye(n)[axis] + 0.3 * rng.normal(size=n)
                t = Tube(rng.uniform(-0.15, 0.15, size=n), Direction(u), delta)
                if i == 0:
                    tubes.append(t)
        return [family(tubes, delta, n)] * n

    @staticmethod
    def face_tuples(fams, G, cells):
        """Tuples of each cell's face: the product over slots of its tubes."""
        lookups = [reference_lookup(f, G, cells) for f in fams]
        return np.prod([e - s for s, e, _ in lookups], axis=0)

    @pytest.mark.parametrize("case", ["bush-n2", "axes-n3-k3", "mixed-AAB", "n4-k4"])
    @pytest.mark.parametrize("spare", [0, 1])
    def test_chunked_equals_unchunked_and_per_cell_loop(self, case, spare, monkeypatch):
        fams = self.slot_families(case)
        G = Grid.for_family(fams[0], 2 if case == "n4-k4" else 4)
        built = {}
        rasters = [built.setdefault(id(f), FamilyRaster.build(f, G)) for f in fams]
        ref_cells, ref_vals = per_cell_values(rasters)
        cells, vals = multilinear_cell_values(fams, G)
        tuples = self.face_tuples(fams, G, cells)
        # The largest face fills a chunk, alone or with spare room for one
        # tuple; smaller faces share chunks.
        limit = int(tuples.max()) + spare
        monkeypatch.setattr(linegeom, "WEDGE_TUPLE_LIMIT", limit)
        assert tuples.sum() > 2 * limit
        got_cells, got_vals = multilinear_cell_values(fams, G)
        assert got_cells.tobytes() == cells.tobytes() == ref_cells.tobytes()
        assert got_vals.tobytes() == vals.tobytes() == ref_vals.tobytes()

    def test_family_above_the_limit_whose_faces_fit(self, monkeypatch):
        F = suite_member("random-n3-k3").family(2.0**-4)
        fams = [F] * 3
        G = Grid.for_family(F, 4)
        cells, vals = multilinear_cell_values(fams, G)
        limit = int(self.face_tuples(fams, G, cells).max())
        assert limit < len(F) ** 3
        monkeypatch.setattr(linegeom, "WEDGE_TUPLE_LIMIT", limit)
        with pytest.raises(MemoryError):
            tuple_wedges([F.direction_matrix()] * 3)
        got_cells, got_vals = multilinear_cell_values(fams, G)
        assert got_cells.tobytes() == cells.tobytes() and got_vals.tobytes() == vals.tobytes()
        want = tuple_enumeration(fams, G)
        got = dict(zip(got_cells.tolist(), got_vals.tolist()))
        assert any(v > 0.0 for v, _ in want.values())
        for cell in set(got) | set(want):
            value, count = want.get(cell, (0.0, 0))
            assert abs(got.get(cell, 0.0) - value) <= 3e-8 * max(count, 1), cell

    @pytest.mark.parametrize("case", ["bush-n2", "mixed-AAB"])
    def test_face_above_the_limit_names_its_tube_counts(self, case, monkeypatch):
        fams = TestFaceSums.slot_families(case)
        G = Grid.for_family(fams[0], 4)
        cells, _ = multilinear_cell_values(fams, G)
        lookups = [reference_lookup(f, G, cells) for f in fams]
        sizes = np.stack([e - s for s, e, _ in lookups], axis=1)
        big = sizes[np.argmax(sizes.prod(axis=1))].tolist()
        monkeypatch.setattr(linegeom, "WEDGE_TUPLE_LIMIT", math.prod(big) - 1)
        counts = " x ".join(map(str, big))
        match = rf"a face with {counts} tubes per slot has {math.prod(big)} {len(fams)}-tuples, above WEDGE_TUPLE_LIMIT"
        with pytest.raises(MemoryError, match=match):
            multilinear_cell_values(fams, G)


class TestGroupedLpPower:
    @staticmethod
    def per_group_unique(raster, groups, p):
        """The grouped sum by `np.unique` over each group's `exact_raster` cells."""
        G = raster.grid
        cells = [exact_raster(G, T) for T in raster.family.tubes]
        acc = 0.0
        for tubes in groups:
            _, counts = np.unique(np.concatenate([cells[t] for t in tubes]), return_counts=True)
            acc += float(np.sum(counts.astype(float) ** p)) * G.cell_volume
        return acc

    def test_random_groups_equal_per_group_unique(self):
        rng = np.random.default_rng(23)
        F = generic_family(rng, 2, 2.0**-5, 30)
        raster = FamilyRaster.build(F, Grid.for_family(F, 4))
        groups = [list(rng.permutation(30)[: rng.integers(2, 12)]) for _ in range(25)]
        # Single-tube groups, tube 7 in several groups, and groups listed
        # twice: once as they are and once in reverse order.
        groups += [[7], [0], [29], [7, 3, 0], [7]] + groups[:3] + [g[::-1] for g in groups[3:6]]
        groups = [groups[i] for i in rng.permutation(len(groups))]
        assert any(g != sorted(g) for g in groups)
        for p in (1.0, 1.5, 2.0, 3.0):
            assert raster.grouped_lp_power(groups, p) == self.per_group_unique(raster, groups, p)

    def test_bush_coarse_groups_equal_per_group_unique(self):
        F = suite_member("bush-n3").family(2.0**-4)
        raster = FamilyRaster.build(F, Grid.for_family(F, 4))
        groups: dict[int, list[int]] = {}
        for fi, assigned in enumerate(coarsen_to_rho_tubes(F, DECOMPOSE_RHO).assignment):
            for ci in assigned:
                groups.setdefault(ci, []).append(fi)
        # Every group holds one tube, and each tube lies in several groups.
        assert all(len(g) == 1 for g in groups.values()) and len(groups) > len(F)
        got = raster.grouped_lp_power(groups.values(), F.p)
        assert got == self.per_group_unique(raster, groups.values(), F.p)


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

    @pytest.mark.parametrize("n", [2, 3])
    def test_no_twin_coarse_tubes(self, n):
        # Two coarse tubes with one center and one axis up to sign are the
        # same tube; no fine tube may be counted in both.
        rng = np.random.default_rng(11)
        delta = 2.0**-5
        co = coarsen_to_rho_tubes(generic_family(rng, n, delta, 20), 0.25)
        for assigned in co.assignment:
            centers = np.stack([co.coarse_tubes[c].segment_center for c in assigned])
            axes = np.stack([co.coarse_tubes[c].direction.u for c in assigned])
            same_center = (np.abs(centers[:, None] - centers[None]) <= 1e-12).all(axis=2)
            same_axis = np.abs(np.abs(axes @ axes.T) - 1.0) <= 1e-12
            twins = np.argwhere(np.triu(same_center & same_axis, k=1))
            assert twins.size == 0, [(assigned[a], assigned[b]) for a, b in twins]

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
        cells = functionals._tube_cell_lists(FamilyRaster.build(F, G))
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


def per_offset_coarsening(F, rho):
    """The scalar coarsening loop: every (tube, cap, axial shift, lattice
    offset) candidate tested on its own.  Returns (assignment, centers)."""
    n, delta, trans = F.n, F.delta, rho / 4.0
    cover = build_cap_cover(n, rho / 2.0)
    bases = {i: complete_orthonormal(c.u[None], n)[1:] for i, c in enumerate(cover.centers)}
    box = np.stack(np.meshgrid(*([np.arange(-1, 2)] * (n - 1)), indexing="ij"), axis=-1).reshape(-1, n - 1)
    index: dict[tuple, int] = {}
    centers, assignment = [], []
    for tube in F.tubes:
        got = []
        e0, e1 = tube.endpoints
        for ci in cover.caps_containing(tube.direction):
            w, Q = cover.centers[int(ci)].u, bases[int(ci)]
            t_along = float(np.dot(tube.segment_center, w))
            base_j = np.round(Q @ tube.segment_center / trans).astype(np.int64)
            for a in (round(t_along) - 1, round(t_along), round(t_along) + 1):
                for off in box:
                    j = base_j + off
                    center = a * w + Q.T @ (j * trans)
                    dists = segment_point_distances(np.stack([e0, e1]), center, w, COARSE_LENGTH)
                    if float(dists.max()) <= rho - delta + 1e-12:
                        key = (int(ci), int(a)) + tuple(int(v) for v in j)
                        if key not in index:
                            index[key] = len(centers)
                            centers.append(center)
                        if index[key] not in got:
                            got.append(index[key])
        assignment.append(tuple(sorted(got)))
    return tuple(assignment), centers


class TestCoarseningAgainstScalarLoop:
    @pytest.mark.parametrize("name", ["bush-n3", "planes-n3-d1-b05", "random-n2-d1"])
    @pytest.mark.parametrize("delta", [2.0**-4, 2.0**-5])
    def test_assignment_and_centers_equal(self, name, delta):
        F = suite_member(name).family(delta)
        co = coarsen_to_rho_tubes(F, DECOMPOSE_RHO)
        assignment, centers = per_offset_coarsening(F, DECOMPOSE_RHO)
        assert co.assignment == assignment
        assert len(co.coarse_tubes) == len(centers)
        for C, center in zip(co.coarse_tubes, centers):
            assert C.segment_center.tobytes() == center.tobytes()

    @pytest.mark.parametrize(("n", "count", "delta", "rho"), [(3, 20, 2.0**-6, 8 * 2.0**-6), (4, 4, 2.0**-4, 0.5)])
    def test_generic_family_equal(self, n, count, delta, rho):
        F = generic_family(np.random.default_rng(41), n, delta, count)
        co = coarsen_to_rho_tubes(F, rho)
        assignment, centers = per_offset_coarsening(F, rho)
        assert co.assignment == assignment
        assert [C.segment_center.tobytes() for C in co.coarse_tubes] == [c.tobytes() for c in centers]

    def test_empty_family(self):
        F = family([], 2.0**-5, 3)
        co = coarsen_to_rho_tubes(F, 0.25)
        assert co.assignment == () and co.coarse_tubes == ()
        raster = FamilyRaster.build(F, Grid.for_family(F, 4))
        assert induction_step_terms(raster, 0.25) == (0.0, 0.0)

    def test_uncontained_tube_named(self, monkeypatch):
        delta = 2.0**-5
        F = family([Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)] * 2, delta, 2)
        monkeypatch.setattr(functionals, "COARSE_LENGTH", 0.5)
        with pytest.raises(GeometryError, match=r"fine tube 0 not contained"):
            coarsen_to_rho_tubes(F, 0.25)

    def test_overlap_bound_names_tube(self, monkeypatch):
        delta = 2.0**-5
        tubes = [Tube([0.1, 0.0], Direction([1.0, 1.0]), delta), Tube([0.0, 0.0], Direction([1.0, 0.0]), delta)]
        F = family(tubes, delta, 2)
        sizes = [len(a) for a in coarsen_to_rho_tubes(F, 0.25).assignment]
        assert sizes[0] < sizes[1]
        monkeypatch.setattr(functionals, "coarse_overlap_bound", lambda n: sizes[0])
        with pytest.raises(GeometryError, match=rf"fine tube 1 assigned to {sizes[1]} coarse tubes, bound is {sizes[0]}"):
            coarsen_to_rho_tubes(F, 0.25)


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
        assert rep.lines[3] >= rep.lines[4]
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
        with pytest.raises(ValueError, match=r"beta = 0 is unsupported here"):
            calculation_chain(F, G)


class TestInductionStep:
    @pytest.mark.parametrize("ratio", [2.0, 1.5])
    def test_scale_precondition_is_the_coarsenings(self, ratio):
        # rho = 2 delta passes no check of its own: the coarsening's strict
        # delta < rho/2 is the one rule.
        F = suite_member("bush-n2").family(2.0**-4)
        raster = FamilyRaster.build(F, Grid.for_family(F, 4))
        with pytest.raises(ValueError, match=r"need delta < rho/2, got delta=0.0625, rho="):
            induction_step_terms(raster, ratio * F.delta)

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
