"""Acceptance suite: one test per release criterion, one verdict line each.

Every criterion is checked at its stated tolerance against an independent
oracle (closed forms, golden-section search, exact enumeration, scipy
references). Run with -v to see one line per criterion; each test also
prints a `criterion NN PASS/FAIL` line with the measured margin, visible
with -s or in failure output.
"""

import math

import numpy as np
from numpy.testing import assert_allclose

from compound_deviations.counting import (
    BernoulliSumCounting,
    ExponentialInterarrival,
    FractionalPoissonCounting,
    PoissonCounting,
    RenewalCounting,
)
from compound_deviations.mittag_leffler import (
    _asymptotic_log,
    _series_value,
    log_mittag_leffler,
    switch_point,
)
from compound_deviations.montecarlo import (
    RUN_SIZE,
    HalfSpaceEvent,
    clt_regime_check,
    decay_rate_scan,
    enumerate_exact,
    estimate_event_prob,
    md_scaling_sweep,
    moment_limits_check,
    simulate_compound,
    tilt_parameters,
)
from compound_deviations.summands import FiniteSupportSummands, GaussianSummands
from compound_deviations.variational import (
    Cumulant,
    count_rate,
    legendre_transform,
    pair_covariance,
    rate_ld_explicit,
    rate_ld_variational,
    rate_md_centered_sum,
    rate_md_centered_summands,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def centered_sum_md_conjugate(mx, mn, x, y):
    """Oracle: ``legendre_transform`` of <p, C1 p>/2 at (x, y), with C1 the
    centred-sum pair covariance."""
    d = mn.derivs_at_zero()
    c1 = pair_covariance(mx.cov().matrix, mx.mean(), d.mean_rate,
                         d.variance_rate, centered_sum=True)
    quadratic = Cumulant(lambda p: 0.5 * float(p @ c1 @ p), lambda p: c1 @ p,
                         lambda p: c1, c1.shape[0])
    return legendre_transform(quadratic, np.append(x, y)).value


def md_quadratic_by_mixture(mx, mn, x):
    """Oracle: sum c_i^2 / p_i / (2 d1) for the least-squares c with
    sum c_i u_i = x and sum c_i = 0; +inf when x is off the span of the
    atom differences."""
    system = np.vstack([mx.atoms.T, np.ones(mx.atom_count)])
    rhs = np.append(x, 0.0)
    c = np.linalg.lstsq(system, rhs, rcond=None)[0]
    if np.linalg.norm(system @ c - rhs) > 1e-8 * (1.0 + np.linalg.norm(x)):
        return math.inf
    return float(np.sum(c * c / mx.probs)) / (2.0 * mn.derivs_at_zero().mean_rate)


def _criterion(cid, description, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {cid:02d} {'PASS' if ok else 'FAIL'} - "
          f"{description}{suffix}")
    assert ok, f"criterion {cid}: {description}{suffix}"


def golden_section_max(g, lo, hi, tol=1e-12):
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    gc, gd = g(c), g(d)
    while b - a > tol:
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - GOLDEN * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + GOLDEN * (b - a)
            gd = g(d)
    mid = 0.5 * (a + b)
    return g(mid)


def pm_one_summand():
    return FiniteSupportSummands([[1.0], [-1.0]], [0.5, 0.5])


def test_criterion_01_closed_form_count_cgfs():
    etas = np.linspace(-5.0, 5.0, 41)
    lam_tilde, nu, lam, p = 1.3, 0.5, 2.0, 0.4
    cases = [
        (PoissonCounting(lam_tilde),
         lambda e: lam_tilde * (math.exp(e) - 1.0)),
        (FractionalPoissonCounting(nu, lam),
         lambda e: lam ** (1.0 / nu) * (math.exp(e / nu) - 1.0)),
        (RenewalCounting(ExponentialInterarrival(1.7)),
         lambda e: 1.7 * (math.exp(e) - 1.0)),
        (BernoulliSumCounting(p=p),
         lambda e: math.log(1.0 + p * (math.exp(e) - 1.0))),
    ]
    worst = 0.0
    for model, formula in cases:
        for eta in etas:
            got = model.limit_cgf(float(eta))
            want = formula(float(eta))
            scale = max(abs(want), 1.0)
            worst = max(worst, abs(got - want) / scale)
    formulas_ok = worst <= 1e-12

    fractional = FractionalPoissonCounting(nu, lam)
    d = fractional.derivs_at_zero()
    h1, h2 = 1e-6, 1e-4
    fd_d1 = (fractional.limit_cgf(h1) - fractional.limit_cgf(-h1)) / (2.0 * h1)
    fd_d2 = (
        fractional.limit_cgf(h2) - 2.0 * fractional.limit_cgf(0.0)
        + fractional.limit_cgf(-h2)
    ) / (h2 * h2)
    deriv_err = max(abs(d.mean_rate - fd_d1), abs(d.variance_rate - fd_d2))
    closed_ok = (
        abs(d.mean_rate - lam ** (1.0 / nu) / nu) <= 1e-12
        and abs(d.variance_rate - lam ** (1.0 / nu) / nu ** 2) <= 1e-12
    )
    _criterion(
        1, "closed-form count CGFs and fractional derivative records",
        formulas_ok and deriv_err <= 1e-6 and closed_ok,
        f"max formula err {worst:.2e}, max FD err {deriv_err:.2e}",
    )


def test_criterion_02_count_rate_against_golden_section():
    mn = PoissonCounting(1.0)
    worst = 0.0
    for y in [0.25, 0.5, 1.0, 2.0, 4.0]:
        oracle = golden_section_max(
            lambda eta: y * eta - (math.exp(eta) - 1.0), -20.0, 20.0
        )
        worst = max(worst, abs(float(count_rate(mn, y).value) - oracle))
    at_two = abs(
        float(count_rate(mn, 2.0).value) - (2.0 * math.log(2.0) - 1.0)
    )
    _criterion(
        2, "count-marginal rate matches the 1-D conjugate oracle",
        worst <= 1e-6 and at_two <= 1e-6,
        f"max grid err {worst:.2e}, err at y=2 {at_two:.2e}",
    )


def test_criterion_03_variational_explicit_agreement():
    mx = FiniteSupportSummands([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    mn = PoissonCounting(1.0)
    worst = 0.0
    # Finite rates need x/y on the atom hull, so the grid walks the hull
    # mix t and the count slot y.
    for t in [0.1, 0.3, 0.5, 0.7, 0.9]:
        for y in [0.4, 0.8, 1.2, 2.0, 3.0]:
            x = [y * t, y * (1.0 - t)]
            explicit = float(rate_ld_explicit(mx, mn, x, y))
            joint = float(rate_ld_variational(mx, mn, x, y).value)
            worst = max(worst, abs(joint - explicit))
    origin = abs(float(rate_ld_explicit(mx, mn, [0.0, 0.0], 0.0)) - 1.0)
    _criterion(
        3, "variational and explicit pair rates agree on the 5x5 grid",
        worst <= 1e-5 and origin <= 1e-10,
        f"max |joint-explicit| {worst:.2e}, origin err {origin:.2e}",
    )


def test_criterion_04_contraction_identity():
    mx = GaussianSummands([0.3, -0.6], [[1.0, 0.2], [0.2, 0.8]])
    mn = PoissonCounting(1.5)
    mu = np.array([0.3, -0.6])
    grid = [-1.2, -0.4, 0.5, 1.3]
    exact_ok = True
    worst_var = 0.0
    for x1 in grid:
        for y in grid:
            x = np.array([x1, 0.4 * x1])
            shifted = rate_md_centered_sum(mx, mn, x, y)
            direct = rate_md_centered_summands(mx, mn, x - y * mu, y)
            exact_ok = exact_ok and shifted == direct
            varied = centered_sum_md_conjugate(mx, mn, x, y)
            worst_var = max(worst_var, abs(varied - float(shifted)))

    centered = GaussianSummands([0.0, 0.0], [[1.0, 0.2], [0.2, 0.8]])
    coincide = True
    for x1 in grid:
        for y in grid:
            x = np.array([x1, 0.4 * x1])
            coincide = coincide and (
                rate_md_centered_sum(centered, mn, x, y)
                == rate_md_centered_summands(centered, mn, x, y)
            )
    _criterion(
        4, "contraction identity for the centered compound sum",
        exact_ok and worst_var <= 1e-5 and coincide,
        f"variational gap {worst_var:.2e}",
    )


def test_criterion_05_finite_support_md_quadratic():
    mx = FiniteSupportSummands([[1.0, 0.0], [0.2, 1.5]], [0.3, 0.7])
    mn = PoissonCounting(1.9)
    atoms = np.array([[1.0, 0.0], [0.2, 1.5]])
    rng = np.random.default_rng(20240917)
    worst = 0.0
    for _ in range(20):
        c = rng.normal(size=2)
        c -= c.mean()
        x = c @ atoms
        closed = md_quadratic_by_mixture(mx, mn, x)
        solved = float(rate_md_centered_summands(mx, mn, x, 0.0))
        worst = max(worst, abs(closed - solved))
    off = md_quadratic_by_mixture(mx, mn, atoms[0]) == math.inf
    _criterion(
        5, "finite-support MD quadratic matches the covariance-solve route",
        worst <= 1e-6 and off,
        f"max route gap {worst:.2e}",
    )


def test_criterion_06_mittag_leffler_identities():
    worst_exp = 0.0
    for x in np.linspace(0.0, 20.0, 41):
        got = math.exp(log_mittag_leffler(1.0, 1.0, float(x)))
        worst_exp = max(worst_exp, abs(got - math.exp(x)) / math.exp(x))

    worst_rec = 0.0
    for nu in [0.3, 0.5, 0.8]:
        for beta in [0.5, 1.0, 2.0]:
            for x in [0.1, 1.0, 5.0]:
                lhs = math.exp(log_mittag_leffler(nu, beta, x))
                rhs = (x * math.exp(log_mittag_leffler(nu, beta + nu, x))
                       + 1.0 / math.gamma(beta))
                worst_rec = max(worst_rec, abs(lhs - rhs) / abs(rhs))

    worst_switch = 0.0
    for nu in [0.3, 0.5, 0.8]:
        for beta in [0.5, 1.0, 2.0]:
            x = switch_point(nu)
            series = _series_value(nu, beta, x)
            asym = math.exp(_asymptotic_log(nu, beta, x))
            worst_switch = max(worst_switch, abs(series - asym) / series)
    _criterion(
        6, "Mittag-Leffler exponential case, recurrence, branch crossover",
        worst_exp <= 1e-10 and worst_rec <= 1e-9 and worst_switch <= 1e-8,
        f"exp {worst_exp:.2e}, recurrence {worst_rec:.2e}, "
        f"crossover {worst_switch:.2e}",
    )


def test_criterion_07_importance_sampling_meta_runs():
    mx = pm_one_summand()
    mn = BernoulliSumCounting(p=0.5)
    event = HalfSpaceEvent([1.0], 0.0, 0.5)
    exact = enumerate_exact(mx, mn, 6, event)
    assert_allclose(exact, 299.0 / 4096.0, rtol=1e-12)
    tilt = tilt_parameters(mx, mn, event)
    hits = 0
    for k in range(100):
        seed = int(np.random.SeedSequence([20240917, k]).generate_state(1)[0])
        estimate = estimate_event_prob(
            mx, mn, 6, event, reps=10_000, method="tilted", seed=seed,
            tilt=tilt,
        )
        if abs(estimate.value - exact) <= 3.0 * estimate.std_error:
            hits += 1
    _criterion(
        7, "tilted estimator covers exact enumeration at 3 SE",
        hits >= 99, f"{hits}/100 meta-runs inside",
    )


def test_criterion_08_ldp_decay_rates():
    mx, mn = pm_one_summand(), PoissonCounting(1.0)
    count_event = HalfSpaceEvent([0.0], 1.0, 2.0)
    count_rate_exact = 2.0 * math.log(2.0) - 1.0
    count_scan = decay_rate_scan(
        mx, mn, count_event, ns=[50, 100, 200, 400], reps=10_000,
        seed=20240918, method="tilted",
    )
    count_rel = abs(count_scan.fitted_rate - count_rate_exact) / (
        count_rate_exact
    )

    sum_event = HalfSpaceEvent([1.0], 0.0, 0.5)
    infimum = tilt_parameters(mx, mn, sum_event).rate
    sum_scan = decay_rate_scan(
        mx, mn, sum_event, ns=[50, 100, 200, 400], reps=10_000,
        seed=20240919, method="tilted",
    )
    sum_rel = abs(sum_scan.fitted_rate - infimum) / infimum
    _criterion(
        8, "decay-rate scans reproduce the rate infima within 15%",
        count_rel <= 0.15 and sum_rel <= 0.15,
        f"count slope off {100 * count_rel:.1f}%, "
        f"sum slope off {100 * sum_rel:.1f}%",
    )


def test_criterion_09_md_scaling_limit():
    ns = [100, 1000, 10_000, 100_000]
    result = md_scaling_sweep(
        PoissonCounting(1.0), [n ** -0.5 for n in ns], etas=[-1.0, 1.0], ns=ns,
    )
    last = {r.eta: r for r in result.rows if r.n == 100_000}
    worst = max(abs(last[e].value - 0.5) / 0.5 for e in (-1.0, 1.0))
    monotone = all(result.gap_monotone.values())
    _criterion(
        9, "moderate-deviation sweep approaches the quadratic limit",
        worst <= 0.02 and monotone,
        f"gap at n=1e5 {100 * worst:.2f}%, monotone {monotone}",
    )


def test_criterion_10_moment_limits():
    mx = FiniteSupportSummands([[0.0], [2.0]], [0.5, 0.5])
    mn = PoissonCounting(1.0)
    result = moment_limits_check(
        mx, mn, n=200, reps=100_000, u=[1.0], v=[1.0], seed=20240920,
    )
    rows = {r.name: r for r in result.rows}
    exact_ok = all(
        abs(getattr(rows[name], column) - value) <= 1e-12
        for name, value in (("cov_SS", 2.0), ("cov_NS", 1.0), ("var_N", 1.0))
        for column in ("reference", "limit")
    )
    worst_margin = max(
        abs(r.empirical - r.reference) / (4.0 * r.std_error)
        for r in result.rows if r.std_error > 0.0
    )
    _criterion(
        10, "empirical scaled moments inside 4 SE of the exact identities",
        all(r.within_band for r in result.rows) and exact_ok,
        f"worst band use {100 * worst_margin:.0f}%",
    )


def test_criterion_11_clt_regime():
    mn = PoissonCounting(1.0)
    result = clt_regime_check(
        pm_one_summand(), mn, n=400, reps=100_000, v=[1.0], seed=20240921,
    )
    rows = {r.name: r for r in result.rows}
    # The limits are exact; the references are the n = 400 values, whose
    # count variance is read off the mass table.
    targets_ok = (
        rows["var_sum_coord"].limit == 1.0
        and rows["var_count_coord"].limit == 1.0
        and rows["cross_cov"].limit == 0.0
        and rows["var_sum_coord"].reference == 1.0
        and rows["var_count_coord"].reference == mn.var(400) / 400.0
        and rows["cross_cov"].reference == 0.0
    )
    _criterion(
        11, "CLT-scaled covariances match (1, 1, 0) within 4 SE",
        all(r.within_band for r in result.rows) and targets_ok,
        ", ".join(
            f"{name} {rows[name].empirical:+.4f}"
            for name in ("var_sum_coord", "var_count_coord", "cross_cov")
        ),
    )


def test_criterion_12_determinism_and_worker_independence():
    mx, mn = pm_one_summand(), PoissonCounting(1.0)
    reps = RUN_SIZE + 700

    first_sums, first_counts = simulate_compound(mx, mn, 50, reps,
                                                 seed=20240922, workers=1)
    second_sums, second_counts = simulate_compound(mx, mn, 50, reps,
                                                   seed=20240922, workers=2)
    third_sums, third_counts = simulate_compound(mx, mn, 50, reps,
                                                 seed=20240922, workers=1)
    plain_ok = (
        np.array_equal(first_counts, second_counts)
        and np.array_equal(first_sums, second_sums)
        and np.array_equal(first_counts, third_counts)
        and np.array_equal(first_sums, third_sums)
    )

    event = HalfSpaceEvent([0.0], 1.0, 2.0)
    tilted = [
        estimate_event_prob(mx, mn, 40, event, reps=reps, method="tilted",
                            seed=20240923, workers=w)
        for w in (1, 2, 1)
    ]
    tilted_ok = (
        tilted[0].value == tilted[1].value == tilted[2].value
        and tilted[0].std_error == tilted[1].std_error
    )
    _criterion(
        12, "stochastic runs are bit-identical across reruns and workers",
        plain_ok and tilted_ok,
    )
