"""Release gate: one test per acceptance criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
for every criterion as it completes.
"""

import math

import numpy as np
import pytest

from kellybench import (
    SimConfig,
    conditional_growth_factor,
    doob_bound,
    doob_decompose,
    empirical_sup_prob,
    expected_wealth_enumeration,
    expected_wealth_linear,
    expected_wealth_product,
    f_star,
    f_star_approx,
    fractional_plan,
    kelly_fraction,
    log_drift_check,
    ruin_probability_full_stake,
    shannon,
    simulate,
    utility,
    utility_derivatives,
    variance_report,
)
from kellybench.cli import main

SEED = 424242
THREADS = 4


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{verdict} criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def test_criterion_01_kelly_point():
    fk = kelly_fraction(0.52)
    slope = utility_derivatives(fk, 0.52).first
    # "exactly" up to the one-ulp gap between 0.52-0.48 and the literal 0.04
    ok = abs(fk - 0.04) < 1e-15 and abs(slope) < 1e-12
    report(1, "Kelly point at p=0.52", ok, f"F_K={fk!r}, U'={slope:.2e}")


def test_criterion_02_entropy_identity():
    gaps = []
    for p in np.linspace(0.5 + 1e-6, 1.0 - 1e-6, 1000):
        lhs = utility(kelly_fraction(float(p)), float(p))
        rhs = math.log(2.0) - shannon(float(p))
        gaps.append(abs(lhs - rhs))
    worst = max(gaps)
    report(2, "growth/entropy identity over 1000 probabilities", worst < 1e-12,
           f"max gap {worst:.2e}")


def test_criterion_03_break_even_root():
    residuals = [abs(utility(f_star(float(p)), float(p)))
                 for p in np.linspace(0.505, 0.75, 50)]
    series = f_star_approx(0.52)
    eps_ok = abs(series.epsilon - 0.0001714) <= 0.10 * 0.0001714
    root_ok = abs(f_star(0.52) - (2.0 * 0.04 + series.epsilon)) < 1e-3
    ok = max(residuals) < 1e-12 and eps_ok and root_ok
    report(3, "break-even root and series correction", ok,
           f"max |U(f*)| {max(residuals):.2e}, eps={series.epsilon:.6g}")


def test_criterion_04_exact_expectation():
    worst = 0.0
    for p in (0.51, 0.52, 0.6):
        for F in (0.02, 0.04, 0.2):
            for N in (5, 10, 20):
                oracle = expected_wealth_enumeration(1000.0, p, F, N)
                linear = expected_wealth_linear(1000.0, p, F, N)
                worst = max(worst, abs(linear - oracle) / oracle)
    game = (1000.0, 0.52, 0.2, 20)
    product_gap = abs(expected_wealth_product(*game) - expected_wealth_enumeration(*game))
    report(4, "linear expectation matches enumeration oracle", worst < 1e-10,
           f"max rel gap {worst:.2e}; product-form gap {product_gap:.3g} reported")


def test_criterion_05_drift_trichotomy():
    p = 0.52
    stakes = ((kelly_fraction(p), 1), (f_star(p), 0), (0.2, -1))
    ok = True
    notes = []
    for F, sign in stakes:
        batch = simulate(SimConfig(w0=1000.0, p=p, F=F, N=1000, paths=100_000,
                                   seed=SEED, threads=THREADS))
        chk = log_drift_check(batch)
        ok &= abs(chk.z_score) <= 3.0
        if sign > 0:
            ok &= chk.empirical_drift - 3.0 * chk.se > 0.0
        elif sign < 0:
            ok &= chk.empirical_drift + 3.0 * chk.se < 0.0
        notes.append(f"F={F:.4f}: drift={chk.empirical_drift:.3e} z={chk.z_score:.2f}")
    report(5, "Monte Carlo drift trichotomy", ok, "; ".join(notes))


def test_criterion_06_ruin_law():
    p, N, paths = 0.52, 50, 100_000
    batch = simulate(SimConfig(w0=1000.0, p=p, F=1.0, N=N, paths=paths,
                               seed=SEED, threads=THREADS))
    expected = ruin_probability_full_stake(p, N)
    se = math.sqrt(expected * (1.0 - expected) / paths)
    empirical = float(np.mean(batch.ruined))
    freq_ok = abs(empirical - expected) < 3.0 * se
    certain = simulate(SimConfig(w0=1000.0, p=1.0, F=1.0, N=50, paths=100, seed=SEED))
    doubling_ok = bool(np.all(certain.final_wealth == 1000.0 * 2.0**50))
    report(6, "full-stake ruin law", freq_ok and doubling_ok,
           f"empirical {empirical:.6f} vs {expected:.6f} (se {se:.1e})")


def test_criterion_07_doob_maximal_inequality():
    cfg = SimConfig(w0=1000.0, p=0.52, F=0.04, N=200, paths=100_000,
                    seed=SEED, threads=THREADS)
    batch = simulate(cfg)
    lam_grid = np.linspace(1.01, 2.0, 20) * cfg.w0
    violations = sum(
        empirical_sup_prob(batch, float(lam))
        > doob_bound(cfg.w0, cfg.p, cfg.F, cfg.N, float(lam))
        for lam in lam_grid
    )
    report(7, "maximal inequality on 20-point threshold grid", violations == 0,
           f"{violations} violations")


def test_criterion_08_martingale_flatness():
    cfg = SimConfig(w0=1000.0, p=0.52, F=0.04, N=100, paths=100_000,
                    seed=SEED, threads=THREADS)
    dec = doob_decompose(simulate(cfg))
    flat = True
    worst_z = 0.0
    for j in range(len(dec.checkpoints)):
        m = dec.martingale_part[:, j]
        se = float(np.std(m, ddof=1) / math.sqrt(m.size))
        z = (float(np.mean(m)) - cfg.w0) / se
        worst_z = max(worst_z, abs(z))
        flat &= abs(z) <= 3.0
    report(8, "martingale flatness at 4 checkpoints", flat,
           f"worst |z| {worst_z:.2f}")


def test_criterion_09_variance_reporting():
    N, p, F, paths = 100, 0.52, 0.04, 100_000
    rep = variance_report(1000.0, N, p, F)
    ok = rep.oracle_exact is not None and rep.ratio is not None
    notes = [f"paper {rep.paper_estimate:.6g}, oracle {rep.oracle_exact:.6g}"]
    for seed in (SEED, SEED + 1):
        batch = simulate(SimConfig(w0=1000.0, p=p, F=F, N=N, paths=paths,
                                   seed=seed, threads=THREADS))
        w = batch.final_wealth
        sample_var = float(np.var(w, ddof=1))
        m4 = float(np.mean((w - np.mean(w)) ** 4))
        se = math.sqrt((m4 - sample_var**2) / paths)
        ok &= abs(sample_var - rep.oracle_exact) < 5.0 * se
        notes.append(f"seed {seed}: MC var {sample_var:.6g}")
    report(9, "variance report stable and oracle-consistent", ok, "; ".join(notes))


def test_criterion_10_fractional_kelly():
    plan = fractional_plan(0.52, 2.0 / 3.0)
    # "exactly" up to the one-ulp gap between (2/3)*F_K and the rational 2/75
    stake_ok = abs(plan.F_frac - 2.0 / 75.0) < 1e-15
    ordered = plan.growth_frac < plan.growth_full and plan.vol_frac < plan.vol_full
    report(10, "two-thirds Kelly trade-off", stake_ok and ordered,
           f"F={plan.F_frac!r}")


def test_criterion_11_reproducibility(tmp_path):
    args = ["simulate", "--p", "0.52", "--kelly", "--n", "500", "--paths", "5000",
            "--seed", str(SEED)]
    outs = [tmp_path / n for n in ("a", "b", "c")]
    main([*args, "--out", str(outs[0])])
    main([*args, "--out", str(outs[1])])
    main([*args, "--threads", "4", "--out", str(outs[2])])
    ok = True
    for name in ("trajectories_summary.csv", "doob.csv", "drift.csv"):
        ref = (outs[0] / name).read_bytes()
        ok &= (outs[1] / name).read_bytes() == ref
        ok &= (outs[2] / name).read_bytes() == ref
    report(11, "byte-identical CSVs across runs and thread counts", ok)
