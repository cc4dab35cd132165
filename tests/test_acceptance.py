"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test ends with one PASS line; run with `pytest tests/test_acceptance.py
-v -s` to see them.  Criteria that freeze constants compare against the
golden values shipped in the package (regenerate with `tubelab run` +
`tubelab freeze`).
"""

import time

import numpy as np

from tubelab.cli import ExperimentConfig, regress, run_scenario
from tubelab.concentration import (
    BallNet,
    ThinningError,
    ball_condition_worst_ratio,
    random_thin,
    worst_ratio_of_lines,
)
from tubelab.dichotomy import (
    DirectionMultiset,
    decide_dichotomy,
    verify_option_a,
    verify_option_b,
)
from tubelab.dimension import (
    Region,
    box_counting_dim,
    exponent_fit_norms,
    holder_comparison,
)
from tubelab.functionals import (
    FamilyRaster,
    Grid,
    calculation_chain,
    decompose_lp,
    induction_step_terms,
    lp_norm_tube_sum,
    multilinear_kakeya_lhs,
)
from tubelab.generators import (
    GeneratorSpec,
    cantor_offsets,
    gen_lines_in_planes,
    gen_random_nonconcentrated,
)
from tubelab.linegeom import Direction, Line
from tubelab.suites import DECOMPOSE_DELTAS, standard_suite


def _report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d}: PASS - {detail}")


def test_criterion_01_dichotomy_totality_and_correctness():
    t0 = time.time()
    trials = 500
    for trial in range(trials):
        rng = np.random.default_rng([2024, trial])
        n = int(rng.integers(2, 4))
        N = int(rng.integers(1, 13))
        k = int(rng.integers(2, n + 1))
        rho = [0.05, 0.1, 0.3][int(rng.integers(3))]
        if rng.random() < 0.5:
            vecs = rng.normal(size=(N, n))
        else:
            vecs = rng.normal(size=n) + 0.01 * rng.normal(size=(N, n))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        U = DirectionMultiset(vecs)
        res = decide_dichotomy(U, k, rho)  # must always return
        if res.variant == "A":
            assert verify_option_a(U, k, rho, res.good_tuple_count), (trial, "A")
            assert 2 * res.good_tuple_count >= N**k
        else:
            assert verify_option_b(U, k, rho, res.witness), (trial, "B")
            assert res.captured_count * 4**k >= N
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(1, f"500 randomized dichotomies certified in {elapsed:.1f}s (< 60s)")


def test_criterion_02_loomis_whitney_exactness():
    t0 = time.time()
    from tubelab.generators import gen_axes
    from tubelab.functionals import multilinear_kakeya_rhs

    delta = 2.0**-5
    families = gen_axes(2, 2, delta, 4)
    G = Grid.for_family(families[0], h=delta / 8)
    ratio = multilinear_kakeya_lhs(families, G) / multilinear_kakeya_rhs(families)
    elapsed = time.time() - t0
    assert abs(ratio - 1.0) <= 0.1
    assert elapsed < 30.0
    _report(2, f"crossing-axes ratio {ratio:.4f} = 1 +- 0.1 in {elapsed:.1f}s (< 30s)")


#: Frozen after the first verified run of the standard suite: no member's
#: transversality ratio exceeds this.
C_MK_FROZEN = 1.0


def test_criterion_03_multilinear_bound_and_regression():
    rep = run_scenario(ExperimentConfig("kakeya-standard", "kakeya", 0, {}))
    assert rep.passed
    ratios = {k: v for k, v in rep.payload["values"].items() if k.startswith("mk_ratio")}
    worst = max(ratios.values())
    assert worst <= C_MK_FROZEN
    ok, rows = regress([rep])
    assert ok, [r for r in rows if r["status"] != "ok"]
    _report(
        3,
        f"suite ratios (n<=3, k<=3) bounded by {C_MK_FROZEN} (max {worst:.3f}); "
        f"{len(rows)} constants within 2x of golden",
    )


def test_criterion_04_decomposition_constants_stable():
    reports = []
    spreads = {}
    for scenario in ("decompose", "induction"):
        rep = run_scenario(ExperimentConfig(f"{scenario}-standard", scenario, 0, {}))
        reports.append(rep)
        per_member: dict[str, list[float]] = {}
        for key, val in rep.payload["constants"].items():
            member = key.split("[")[1].rstrip("]")
            per_member.setdefault(member, []).append(val)
        for member, cs in per_member.items():
            assert len(cs) == len(DECOMPOSE_DELTAS)
            spread = max(cs) / min(cs)
            spreads[f"{scenario}/{member}"] = spread
            assert spread <= 2.0, (scenario, member, cs)
    ok, rows = regress(reports)
    assert ok, [r for r in rows if r["status"] != "ok"]
    worst = max(spreads.values())
    _report(
        4,
        f"norm <= C (term1 + term2) with C stable across deltas {DECOMPOSE_DELTAS} "
        f"(worst spread x{worst:.2f} <= x2) for both splittings",
    )


#: Chain multilinear-step constants recorded on the first verified run.
CHAIN_CONSTANTS_FROZEN = {
    ("planes-n2-d1-b1", 2.0**-4): 0.0,
    ("planes-n2-d1-b1", 2.0**-5): 0.0,
    ("random-n2-d1", 2.0**-4): 0.3051,
    ("random-n2-d1", 2.0**-5): 0.3101,
    ("random-n3-d1", 2.0**-4): 0.0133,
    ("random-n3-d1", 2.0**-5): 0.0081,
}


def test_criterion_05_calculation_chain():
    from tubelab.suites import suite_member

    for (name, delta), frozen in CHAIN_CONSTANTS_FROZEN.items():
        member = suite_member(name)
        F = member.family(delta)
        assert F.d == 1 and F.beta == 1.0
        G = Grid.for_family(F, 4)
        rep = calculation_chain(F, G)
        # Equality lines match to 1%.
        assert rep.regroup_equal and rep.simplify_equal
        # Inequality lines hold: the pointwise bound exactly, the
        # substitution step with its recorded constant.
        assert rep.pointwise_step_ok
        assert rep.cardinality_step_ok
        c = rep.multilinear_constant
        if frozen == 0.0:
            assert c == 0.0
        else:
            assert 0.5 * frozen <= c <= 2.0 * frozen, (name, delta, c, frozen)
    _report(5, "six-line computation: equalities within 1%, inequalities at recorded constants")


def test_criterion_06_sharpness_exponent():
    t0 = time.time()
    results = []
    for n, d, beta, scales in (
        (2, 1, 1.0, [2.0**-j for j in range(3, 8)]),
        (3, 2, 1.0, [2.0**-3, 2.0**-4, 2.0**-5]),
    ):
        spec = GeneratorSpec("planes", n, scales[0], d=d, beta=beta, size_cap=400_000)
        p = (d + beta) / (d + beta - 1.0)
        fit = exponent_fit_norms(spec, scales, p)
        target = (1.0 - d) / (d + beta)
        assert abs(fit.slope - target) <= 0.15, (n, d, fit.slope, target)
        assert fit.residual < 0.1
        results.append(f"n={n},d={d}: slope {fit.slope:.3f} vs {target:.3f}")
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(6, "; ".join(results) + f" (+-0.15), {elapsed:.0f}s (< 600s)")


def test_criterion_07_nonconcentration_recheck():
    delta = 2.0**-5
    worst = 0.0
    for seed in range(20):
        res = gen_random_nonconcentrated(2, 1, 1.0, delta, seed=seed)
        fresh = BallNet.build(2, delta)
        ratio = ball_condition_worst_ratio(res.family, fresh)
        worst = max(worst, ratio)
        assert ratio <= 1.0 + 1e-9, (seed, ratio)
    _report(7, f"20 seeds pass the independent ball-condition re-check (worst {worst:.3f} <= 1)")


def test_criterion_08_random_thinning():
    # Synthetic input: 1024 parallel lines, feet spaced 4*delta, so every
    # r-ball holds about half its allowance (slack 2), and the thinning
    # probability 1/2 keeps Binomial concentration comfortable.
    delta = 2.0**-12
    u = Direction([1.0, 0.0])
    lines = [Line(u, [0.0, (i - 1023 / 2.0) * 4.0 * delta]) for i in range(1024)]
    net = BallNet.build(2, delta)
    input_ratio = worst_ratio_of_lines(lines, delta, 1, 1.0, net)
    assert input_ratio <= 1.0
    successes = 0
    for s in range(20):
        try:
            res = random_thin(lines, A=2.0, C0=1.0, eps=0.0, delta=delta, seed=s,
                              net=net, d=1, beta=1.0, max_attempts=1)
            assert 2 * len(res.lines) >= 0.5 * 1024
            successes += 1
        except ThinningError:
            pass
    assert successes >= 18  # >= 90% of 20 base seeds

    # Exact-binomial small case: success iff at least one of two lines is
    # kept, so P = 1 - (1 - 1/2)^2 = 3/4; 10^4 trials stay within Monte
    # Carlo error of the analytic value.
    small_delta = 1.0 / 64.0
    pair = [Line(u, [0.0, 0.0]), Line(u, [0.0, 0.5])]
    small_net = BallNet.build(2, small_delta)
    seeds = np.random.default_rng(77).integers(2**62, size=10_000)
    wins = 0
    for s in seeds:
        try:
            random_thin(pair, A=2.0, C0=1.0, eps=0.0, delta=small_delta, seed=int(s),
                        net=small_net, d=1, beta=1.0, max_attempts=1)
            wins += 1
        except ThinningError:
            pass
    rate = wins / 10_000
    assert abs(rate - 0.75) <= 0.02
    _report(
        8,
        f"thinning kept size and ball condition on {successes}/20 seeds (>= 18); "
        f"binomial case rate {rate:.4f} vs 3/4 (+-0.02)",
    )


def test_criterion_09_dimension_pipeline():
    # Full disk.
    G = Grid(2, 2.0**-8, 1.0)
    centers = G.centers_of_linear(np.arange(G.total_cells))
    disk = Region(G, np.nonzero(np.linalg.norm(centers, axis=1) <= 1.0)[0])
    disk_fit = box_counting_dim(disk, [2.0**-j for j in range(1, 6)])
    assert abs(disk_fit.slope - 2.0) <= 0.1

    # Cantor offset set at beta = 1/2.
    off = cantor_offsets(0.5, 2.0**-6)
    G1 = Grid(1, 2.0**-8, 1.0)
    cfit = box_counting_dim(Region.from_points(G1, off), [2.0**-j for j in range(1, 7)])
    assert abs(cfit.slope - 0.5) <= 0.15

    # The duality chain is exact arithmetic on every suite family ...
    for member in standard_suite():
        F = member.family(2.0**-4)
        rep = holder_comparison(F, Grid.for_family(F, 4), F.p)
        assert rep.chain_holds, member.name

    # ... and the sharpness families sit within 0.25 of dimension d + beta.
    deficits = {}
    for n, d, beta, delta in ((2, 1, 1.0, 2.0**-6), (3, 2, 1.0, 2.0**-5)):
        F = gen_lines_in_planes(n, d, beta, delta, size_cap=400_000)
        rep = holder_comparison(F, Grid.for_family(F, 4), F.p)
        assert rep.chain_holds
        assert rep.exponent_deficit >= -0.25, (n, d, rep.exponent_deficit)
        deficits[f"n{n}d{d}"] = rep.exponent_deficit
    _report(
        9,
        f"disk dim {disk_fit.slope:.3f} (2 +- 0.1), offsets dim {cfit.slope:.3f} "
        f"(0.5 +- 0.15), chains exact, deficits {deficits} >= -0.25",
    )


def test_criterion_10_grid_convergence():
    worst = 0.0
    for member in standard_suite():
        delta = 2.0**-5 if member.n == 2 else 2.0**-4
        vals = {}
        for factor in (4, 8):
            F = member.family(delta)
            G = Grid.for_family(F, factor=factor)
            fams = member.mk_families(delta)
            Gm = Grid.for_family(fams[0], factor=factor)
            raster = FamilyRaster.build(F, G)
            t1, t2 = decompose_lp(raster, 0.25, min(member.k, F.n), F.p)
            i1, i2 = induction_step_terms(raster, 0.25)
            vals[factor] = {
                "lp": lp_norm_tube_sum(F, F.p, G),
                "mk": multilinear_kakeya_lhs(fams, Gm),
                "dec1": t1,
                "dec2": t2,
                "ind2": i2,
            }
        for key in vals[4]:
            coarse, fine = vals[4][key], vals[8][key]
            if fine == 0.0:
                assert coarse == 0.0
                continue
            rel = abs(coarse / fine - 1.0)
            worst = max(worst, rel)
            assert rel < 0.05, (member.name, key, rel)
    _report(10, f"all functional values move < 5% between h=delta/4 and delta/8 (worst {worst:.3f})")


def test_criterion_11_determinism():
    cfg = ExperimentConfig(
        "det", "kakeya", 7, {"deltas": [0.0625], "members": ["axes-n2-k2", "random-n2-d1"]}
    )
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert a.payload_json().encode() == b.payload_json().encode()
    cfg2 = ExperimentConfig("det2", "dichotomy", 5, {"trials": 40})
    assert (
        run_scenario(cfg2).payload_json().encode()
        == run_scenario(cfg2).payload_json().encode()
    )
    _report(11, "identical config and seed give byte-identical report payloads")
