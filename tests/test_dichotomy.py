"""Spread-or-concentrate dichotomy: certificates, oracles, cap sums."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelab.dichotomy import (
    BudgetError,
    DirectionMultiset,
    _captures,
    control_card_ratio,
    count_spread_tuples,
    decide_dichotomy,
    verify_option_a,
    verify_option_b,
)
from tubelab.linegeom import (
    WEDGE_TUPLE_LIMIT,
    Direction,
    GeometryError,
    Subspace,
    build_cap_cover,
    complete_orthonormal,
    subspace_wedge,
    tuple_wedges,
    wedge_volume,
)


def random_multiset(rng, n, count, clustered=False):
    if clustered:
        v = rng.normal(size=n) + 0.01 * rng.normal(size=(count, n))
    else:
        v = rng.normal(size=(count, n))
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    return DirectionMultiset(v)


def brute_force_spread_count(U, k, rho):
    """Independent oracle: enumerate every ordered k-tuple directly."""
    import itertools

    mat = U.matrix()
    count = 0
    for combo in itertools.product(range(len(U)), repeat=k):
        if wedge_volume(mat[list(combo)]) >= rho ** (k - 1):
            count += 1
    return count


class TestCountSpreadTuples:
    def test_all_equal_directions(self):
        U = DirectionMultiset([[1.0, 0.0]] * 5)
        assert count_spread_tuples(U, 2, 0.5) == 0

    def test_two_orthogonal(self):
        # All 4 ordered pairs enumerated: only the two mixed pairs have
        # wedge 1 >= 0.5.
        U = DirectionMultiset([[1.0, 0.0], [0.0, 1.0]])
        assert count_spread_tuples(U, 2, 0.5) == 2

    def test_orthonormal_triple(self):
        # 27 ordered triples; the 3! permutations of distinct vectors have
        # wedge 1 >= 0.9^2, every triple with a repeat has wedge 0.
        U = DirectionMultiset(np.eye(3))
        assert count_spread_tuples(U, 3, 0.9) == 6

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(2, n + 1))
            U = random_multiset(rng, n, int(rng.integers(2, 7)))
            rho = float(rng.uniform(0.05, 0.9))
            assert count_spread_tuples(U, k, rho) == brute_force_spread_count(U, k, rho)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        U = random_multiset(rng, 3, 8)
        perm = list(rng.permutation(8))
        U2 = DirectionMultiset([U.items[i] for i in perm])
        assert count_spread_tuples(U, 2, 0.3) == count_spread_tuples(U2, 2, 0.3)

    def test_monotone_in_rho(self):
        rng = np.random.default_rng(2)
        U = random_multiset(rng, 3, 7)
        counts = [count_spread_tuples(U, 2, r) for r in (0.05, 0.2, 0.5, 0.9)]
        assert counts == sorted(counts, reverse=True)

    def test_budget_exceeded(self):
        U = DirectionMultiset(np.random.default_rng(0).normal(size=(110, 3)))
        with pytest.raises(BudgetError):
            count_spread_tuples(U, 3, 0.5)

    def test_budget_is_the_wedge_tuple_limit(self):
        # 101^3 = 1,030,301 tuples lie above 10^6 and below 2^20.
        U = DirectionMultiset(np.random.default_rng(0).normal(size=(101, 3)))
        assert 10**6 < len(U) ** 3 <= WEDGE_TUPLE_LIMIT
        assert 0 < count_spread_tuples(U, 3, 0.5) < len(U) ** 3


class TestDecideDichotomy:
    def test_fully_degenerate_gives_b(self):
        U = DirectionMultiset([[1.0, 0.0]] * 6)
        res = decide_dichotomy(U, 2, 0.1)
        assert res.variant == "B"
        assert res.captured_count == 6
        np.testing.assert_allclose(np.abs(res.witness.basis), [[1.0, 0.0]], atol=1e-12)

    def test_boundary_half_threshold_gives_a(self):
        # N copies each of e1, e2: exactly half of the (2N)^2 ordered pairs
        # are mixed, hitting the 1/2 threshold with equality.
        N = 4
        U = DirectionMultiset([[1.0, 0.0]] * N + [[0.0, 1.0]] * N)
        res = decide_dichotomy(U, 2, 0.1)
        assert res.variant == "A"
        assert res.good_tuple_count == 2 * N * N

    def test_random_directions_on_sphere_give_a(self):
        rng = np.random.default_rng(1)
        U = random_multiset(rng, 3, 20)
        res = decide_dichotomy(U, 3, 0.05)
        assert res.variant == "A"
        assert res.good_tuple_count == brute_force_spread_count(U, 3, 0.05)

    @given(st.integers(0, 100_000))
    @settings(max_examples=120, deadline=None)
    def test_totality_with_exhaustive_verification(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        N = int(rng.integers(1, 13))
        k = int(rng.integers(2, n + 1))
        rho = [0.05, 0.1, 0.3][int(rng.integers(3))]
        U = random_multiset(rng, n, N, clustered=bool(rng.random() < 0.5))
        res = decide_dichotomy(U, k, rho)
        if res.variant == "A":
            assert verify_option_a(U, k, rho, res.good_tuple_count)
        else:
            assert verify_option_b(U, k, rho, res.witness)


class TestVerifiers:
    def test_b_with_orthogonal_subspace_fails(self):
        U = DirectionMultiset([[0.0, 0.0, 1.0]] * 5)
        H = Subspace(np.eye(3)[:2])  # orthogonal to every element
        assert not verify_option_b(U, 3, 0.01, H)

    def test_a_recount(self):
        U = DirectionMultiset([[1.0, 0.0], [0.0, 1.0]])
        assert verify_option_a(U, 2, 0.5, 2)
        assert not verify_option_a(U, 2, 0.5, 3)

    def test_b_trivially_true_on_containing_subspace(self):
        U = DirectionMultiset([[1.0, 0.0]] * 7)
        H = Subspace([[1.0, 0.0]])
        assert verify_option_b(U, 2, 0.0, H)


class TestControlCardRatio:
    def test_degenerate_at_most_one(self):
        U = DirectionMultiset([[1.0, 0.0, 0.0]] * 8)
        assert control_card_ratio(U, 2, 0.3) <= 1.0 + 1e-12

    def test_orthonormal_exact_sums(self):
        # Exact evaluation for U = {e1, e2, e3}, k = 3, rho = 0.1: the wedge
        # sum is 6 (the 3! permutations), the captured supremum is realized
        # by a coordinate plane containing two basis vectors.
        U = DirectionMultiset(np.eye(3))
        ratio = control_card_ratio(U, 3, 0.1)
        expected_rhs = 0.1 ** (-2.0 / 3.0) * 6.0 ** (1.0 / 3.0) + 2.0
        assert ratio <= 4.0
        assert ratio == pytest.approx(3.0 / expected_rhs, rel=0.2)

    def test_random_directions_bounded(self):
        rng = np.random.default_rng(7)
        U = random_multiset(rng, 3, 50)
        ratio = control_card_ratio(U, 2, 0.2)
        assert math.isfinite(ratio)
        assert ratio <= 8.0


class TestCapSumComparison:
    def test_constant_stable_over_random_instances(self):
        # (#U)^p is controlled by the wedge-sum term plus the cap p-sum:
        # (#U)^p <= C [rho^((1-k)p/k) (sum wedges)^(p/k)
        #              + rho^((2-k)(p-1)) sum_caps count^p].
        # The required C is recorded over 100 random instances at fixed
        # (n, k, p, rho) and must stay within a factor 2 of its median.
        n, k, p, rho = 3, 2, 2.0, 0.3
        cov = build_cap_cover(n, rho)
        cs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            N = int(rng.integers(4, 13))
            v = rng.normal(size=(N, n))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            U = DirectionMultiset(v)
            mat = U.matrix()
            dots = mat @ mat.T
            wedge_sum = float(np.sqrt(np.clip(1 - dots**2, 0, 1)).sum())
            members = Counter(int(ci) for u in U.items for ci in cov.caps_containing(u))
            cap_sum = sum(c**p for _, c in sorted(members.items()))
            rhs = (
                rho ** ((1 - k) * p / k) * wedge_sum ** (p / k)
                + rho ** ((2 - k) * (p - 1)) * cap_sum
            )
            cs.append(N**p / rhs)
        cs = np.array(cs)
        med = float(np.median(cs))
        assert float(cs.max()) <= 2.0 * med
        assert float(cs.min()) >= med / 2.0
        assert float(cs.max()) <= 2.0  # the bound holds with a small constant



class TestCaptures:
    """The batched capture count against per-row `subspace_wedge`."""

    @staticmethod
    def rows_for(rng, basis):
        """Random rows, rows inside span(basis) and rows orthogonal to it."""
        m, n = basis.shape
        inside = rng.normal(size=(6, m)) @ basis
        outside = complete_orthonormal(basis, n)[m:]
        v = np.vstack([rng.normal(size=(20, n)), inside, outside, -outside])
        return DirectionMultiset(v / np.linalg.norm(v, axis=1, keepdims=True)).matrix()

    @staticmethod
    def assert_bitwise(mat, basis, got):
        """Each row's wedge equals the oracle's bit for bit: one row counts at
        its oracle value and not at the next float below; all rows count as
        the oracle does at every such threshold."""
        H = Subspace(basis)
        oracle = np.array([subspace_wedge(H, u) for u in mat])
        for i, w in enumerate(oracle):
            below = np.nextafter(w, -np.inf)
            assert got(mat[i : i + 1], basis, w) == 1
            assert got(mat[i : i + 1], basis, below) == 0
            assert got(mat, basis, w) == np.count_nonzero(oracle <= w)
            assert got(mat, basis, below) == np.count_nonzero(oracle <= below)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_single_basis(self, n):
        rng = np.random.default_rng(n)
        for m in range(1, n):
            # The witness's C-ordered completion and a probe's transposed QR.
            completed = complete_orthonormal(np.linalg.qr(rng.normal(size=(n, m)))[0].T, n)[:m]
            probe = np.linalg.qr(rng.normal(size=(n, m)))[0].T
            for basis in (completed, probe):
                self.assert_bitwise(self.rows_for(rng, basis), basis, _captures)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stacked_bases(self, n):
        rng = np.random.default_rng(10 + n)
        for m in range(1, n):
            stack = np.swapaxes(np.linalg.qr(rng.normal(size=(5, n, m)))[0], -1, -2)
            mat = self.rows_for(rng, stack[0])
            counts = _captures(mat, stack, 0.3)
            assert counts.shape == (5,)
            for p, basis in enumerate(stack):
                assert counts[p] == _captures(mat, basis, 0.3)
                self.assert_bitwise(
                    mat, basis, lambda rows, _, rho: _captures(rows, stack, rho)[p]
                )


def product_loop_witness(U, k, rho):
    """The (j*, witness basis) of option B by explicit prefix enumeration in
    `itertools.product` order, each wedge table recomputed where it is used."""
    import itertools

    mat = U.matrix()
    N = len(U)
    for j in range(2, k + 1):
        if int(np.count_nonzero(tuple_wedges([mat] * j) < rho ** (j - 1))) * 2 ** (2 * k + 1 - 2 * j) >= N**j:
            break
    prefix_wedges = tuple_wedges([mat] * (j - 1))
    full_wedges = tuple_wedges([mat] * j)
    for prefix in itertools.product(range(N), repeat=j - 1):
        if prefix_wedges[prefix] < rho ** (j - 2):
            continue
        captures = int(np.count_nonzero(full_wedges[prefix] < rho ** (j - 1)))
        if captures * 2 ** (2 * k + 2 - 2 * j) >= N:
            W = np.linalg.qr(mat[list(prefix)].T)[0].T
            return j, complete_orthonormal(W, U.n)[: k - 1]
    return j, None


class TestWitnessPrefix:
    def test_matches_product_loop(self):
        """Clustered multisets behind a few outliers, so the first witness
        prefix is not the first tuple: near one direction (B at j = 2) and
        spread in a plane (B at j = 3)."""
        rng = np.random.default_rng(3)
        seen = Counter()
        for trial in range(120):
            n = int(rng.integers(3, 5))
            rho = [0.05, 0.1, 0.3][trial % 3]
            # A plane needs k = 3 and more than 8 directions, or the repeated
            # pairs alone make j = 2 abundant.
            dim, k, size = (1, int(rng.integers(3, n + 1)), 6) if trial % 2 else (2, 3, 12)
            span = np.linalg.qr(rng.normal(size=(n, dim)))[0].T
            cluster = rng.normal(size=(int(rng.integers(size, 2 * size)), dim)) @ span
            v = np.vstack([rng.normal(size=(trial % 4, n)), cluster + 1e-3 * rng.normal(size=(len(cluster), n))])
            U = DirectionMultiset(v / np.linalg.norm(v, axis=1, keepdims=True))
            res = decide_dichotomy(U, k, rho)
            if res.variant == "A":
                assert res.degenerate_index is None
                continue
            j, basis = product_loop_witness(U, k, rho)
            assert res.degenerate_index == j
            assert res.witness.basis.tobytes() == basis.tobytes()
            seen[j] += 1
        assert seen[2] >= 20 and seen[3] >= 20


class TestDirectionMatrix:
    def test_matrix_is_stacked_once_and_read_only(self):
        U = DirectionMultiset(np.eye(3))
        mat = U.matrix()
        assert mat is U.matrix()
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 2.0
        np.testing.assert_array_equal(mat, np.stack([d.u for d in U.items]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rows_are_the_directions_bit_for_bit(self, n):
        # Raw rows of every kind: non-unit, unit, negated, with zero or tiny
        # leading coordinates, and Direction objects mixed in.
        rng = np.random.default_rng(n)
        v = rng.normal(size=(3000, n)) * rng.uniform(0.1, 10.0, size=(3000, 1))
        v[::2] /= np.linalg.norm(v[::2], axis=1, keepdims=True)
        v[::3, 0] = 0.0
        v[1::5, 0] = -0.0
        v[2::7, 0] = 1e-10
        v[3::11, : n - 1] = 0.0
        v[::4] *= -1.0
        rows = [Direction(r) if i % 9 == 0 else r for i, r in enumerate(v)]
        U = DirectionMultiset(rows)
        want = np.stack([Direction(r).u for r in v])
        assert U.matrix().tobytes() == want.tobytes()
        assert len(U) == 3000 and U.n == n
        assert all(d.u.tobytes() == r.tobytes() for d, r in zip(U.items, want))

    @pytest.mark.parametrize(
        "rows, match",
        [
            ([], "non-empty"),
            ([[1.0, 0.0], [0.0, 0.0]], "zero vector"),
            ([[1.0, 0.0], [0.0, 0.0, 1.0]], "one ambient dimension"),
            ([[1.0], [2.0]], r"n >= 2"),
        ],
    )
    def test_bad_rows_rejected(self, rows, match):
        with pytest.raises(GeometryError, match=match):
            DirectionMultiset(rows)
