"""Acceptance gate: eleven numbered criteria covering the closed-form
theory, the Monte Carlo harness, and the agreement between the two.

Each test computes its measured quantities, records one verdict through
the ``criterion`` fixture (printed as a PASS/FAIL line in the terminal
summary), and then asserts that same verdict — so a red criterion is a
red test, with the measured numbers in the failure message.

Benchmark operating point used throughout: L=1000, Q=100, mu=8e-4,
alpha=10, Px=1, 40 dB output-referred SNR (Pv=0.01).
"""

import decimal
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from sparselms import (
    AlgoParams,
    SignalModel,
    Variant,
    approx_min_msd,
    convergence_model,
    deltas,
    l0_steady_msd,
    exact_recursion,
    gen_system,
    lms_theory,
    monte_carlo,
    mu_max,
    optimal_kappa,
    run_trials,
    steady_bias,
    strengths,
    tapwise_recursion,
    za_steady_msd,
)
from sparselms.simulate import ExperimentSpec
from sparselms.theory import DegenerateSpectrumError, betas, solve_omega

L0 = Variant.L0LMS
BENCH = dict(L=1000, Q=100, mu=8e-4, alpha=10.0, Px=1.0, Pv=0.01)


def bench_strengths():
    return strengths(BENCH["alpha"], Q=BENCH["Q"])


def bench_params(kappa):
    return AlgoParams(variant=L0, mu=BENCH["mu"], kappa=kappa,
                      alpha=BENCH["alpha"])


def bench_signal():
    return SignalModel(Px=BENCH["Px"], Pv=BENCH["Pv"])


def gap_db(sim, theory):
    return 10.0 * math.log10(sim / theory)


# ---------------------------------------------------------------------------
# 1. optimal attraction weight at the benchmark point
# ---------------------------------------------------------------------------

def test_criterion_01_optimal_weight_value(criterion):
    t0 = time.perf_counter()
    sig = SignalModel.from_snr(1.0, 40.0, Q=BENCH["Q"])
    rep = l0_steady_msd((BENCH["L"], BENCH["Q"], bench_strengths()),
                        bench_params(0.0), sig)
    elapsed = time.perf_counter() - t0
    rel = abs(rep.kappa_opt - 3.75e-7) / 3.75e-7
    ok = rel <= 0.10 and elapsed < 1.0
    assert criterion(
        1, "optimal attraction weight within 10% of 3.75e-7", ok,
        f"kappa_opt={rep.kappa_opt:.6e}, rel err {rel:.3f}, "
        f"{elapsed * 1e3:.0f} ms"), (rep.kappa_opt, rel, elapsed)


# ---------------------------------------------------------------------------
# 2. the two steady-state forms agree on 1000 random parameter sets
# ---------------------------------------------------------------------------

def test_criterion_02_steady_state_dual_form(criterion):
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        L = int(rng.integers(8, 2001))
        Q = int(rng.integers(0, L + 1))
        mu = float(rng.uniform(0.05, 0.95)) * mu_max(L, 1.0)
        alpha = 10.0 ** float(rng.uniform(-1, 2))
        Pv = 10.0 ** float(rng.uniform(-7, -1))
        st = strengths(alpha, Q=Q)
        d = deltas(L, Q, mu, 1.0)
        b = betas(d, st, L, Q, mu, alpha, 1.0, Pv)
        ko, _, _ = optimal_kappa(b, d, L, mu, Pv)
        kappa = float(rng.uniform(0.0, 3.0)) * ko

        d_lms = mu * Pv * L / d.delta_L
        d_beta = d_lms + kappa * (b.diff * kappa - b.beta2 * b.beta3
                                  / (math.sqrt(kappa ** 2 + b.beta3) + kappa))
        om = solve_omega(d, st, L, Q, mu, kappa, alpha, 1.0, Pv)
        d_om = (2 * (L - Q) * d.delta_0 * om ** 2 / d.delta_Q
                + Q * mu * Pv / d.delta_Q
                + kappa ** 2 * d.delta_0_prime * st.G / (mu ** 2 * d.delta_Q))
        worst = max(worst, abs(d_beta - d_om) / max(abs(d_beta), abs(d_om)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    assert criterion(
        2, "weight-form vs power-balance steady state, 1000 draws", ok,
        f"max rel gap {worst:.2e}, {elapsed:.1f} s"), (worst, elapsed)


# ---------------------------------------------------------------------------
# 3. sign-attractor closed form vs quadratic route; small-range limit
# ---------------------------------------------------------------------------

def za_quadratic_reference(L, Q, mu, rho, Px, Pv):
    """Sign-attractor steady state via the quadratic in the zero-tap
    deviation scale.  The route cancels violently in binary64 (the
    result can sit many orders below the intermediate terms), so it is
    evaluated in 50-digit decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        pi = decimal.Decimal(
            "3.1415926535897932384626433832795028841971693993751")
        mu_, rho_ = decimal.Decimal(mu), decimal.Decimal(rho)
        px, pv = decimal.Decimal(Px), decimal.Decimal(Pv)
        dl = 2 - (L + 2) * mu_ * px
        d0 = 1 - mu_ * px
        b = (L - Q) * rho_ * (2 * d0 / pi).sqrt()
        c = (-(decimal.Decimal(L - 2 * Q) / (2 * pi) + Q + 1)
             * d0 * rho_ ** 2 / (mu_ * px)
             - d0 ** 2 * rho_ ** 2 / (pi * mu_ ** 2 * px ** 2)
             - mu_ * pv * d0)
        y = (-b + (b * b - 4 * dl * c).sqrt()) / (2 * dl)
        t = (pi * mu_ * px + d0) * rho_ ** 2 / (2 * pi * mu_ ** 2 * px ** 2)
        return float(2 / (mu_ * px) * (y * y - t) - pv / px)


def test_criterion_03_sign_attractor_equivalence_and_limit(criterion):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        L = int(rng.integers(8, 1501))
        Q = int(rng.integers(0, L + 1))
        mu = float(rng.uniform(0.05, 0.95)) * mu_max(L, 1.0)
        rho = 10.0 ** float(rng.uniform(-9, -4))
        Pv = 10.0 ** float(rng.uniform(-7, -1))
        rep = za_steady_msd(L, Q, mu, rho, 1.0, Pv)  # internal gate: 1e-9
        ref = za_quadratic_reference(L, Q, mu, rho, 1.0, Pv)
        worst = max(worst, abs(rep.d_inf_za - ref) / abs(ref))
    routes_ok = worst <= 1e-9

    # the zero-range attractor approaches the sign attractor as the
    # attraction range widens (alpha -> 0) with 2*alpha*kappa held fixed
    p = BENCH
    za = za_steady_msd(p["L"], p["Q"], p["mu"], 0.0, p["Px"], p["Pv"])
    rho = za.rho_opt
    d_za = za_steady_msd(p["L"], p["Q"], p["mu"], rho, p["Px"],
                         p["Pv"]).d_inf_za
    gaps = []
    for alpha in (1e-3, 1e-4, 1e-5):
        st = strengths(alpha, Q=p["Q"])
        rep = l0_steady_msd(
            (p["L"], p["Q"], st),
            AlgoParams(variant=L0, mu=p["mu"], kappa=rho / (2 * alpha),
                       alpha=alpha), bench_signal())
        gaps.append(abs(rep.d_inf - d_za) / d_za)
    limit_ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 1e-3

    ok = routes_ok and limit_ok
    assert criterion(
        3, "sign-attractor dual route and small-range limit", ok,
        f"max route gap {worst:.2e}; limit gaps "
        + " > ".join(f"{g:.2e}" for g in gaps)), (worst, gaps)


# ---------------------------------------------------------------------------
# 4. zero attraction weight collapses to plain LMS
# ---------------------------------------------------------------------------

def test_criterion_04_lms_reduction(criterion):
    p = BENCH
    model = convergence_model((p["L"], p["Q"], bench_strengths()),
                              bench_params(0.0), bench_signal())
    c_ok = (abs(model.c2) <= 1e-12 * abs(model.c1)
            and abs(model.c3) <= 1e-12 * abs(model.c1))

    n = np.arange(10001)
    s_ref = np.ones(p["Q"])                  # expected energy Q*sigma^2
    ref = lms_theory(p["L"], p["mu"], p["Px"], p["Pv"], s=s_ref, n=n)
    rel = float(np.max(np.abs(model.msd(n) - ref) / ref))
    ok = c_ok and rel <= 1e-10
    assert criterion(
        4, "zero attraction weight reproduces plain LMS", ok,
        f"|c2|/|c1|={abs(model.c2 / model.c1):.1e}, "
        f"|c3|/|c1|={abs(model.c3 / model.c1):.1e}, "
        f"curve max rel {rel:.2e}"), (c_ok, rel)


# ---------------------------------------------------------------------------
# 5 & 6. closed-form curve vs exact recursion; spectrum bounds
# ---------------------------------------------------------------------------

def _transient_grid(n_points=100):
    """Random stable operating points with an active attractor and three
    well-separated modes; returns (model, inputs) pairs."""
    rng = np.random.default_rng(56)
    out = []
    attempts = 0
    while len(out) < n_points and attempts < 2000:
        attempts += 1
        L = int(rng.integers(8, 801))
        Q = int(rng.integers(1, L))          # Q < L keeps both states live
        mu = float(rng.uniform(0.05, 0.9)) * mu_max(L, 1.0)
        alpha = 10.0 ** float(rng.uniform(-0.3, 1.7))
        Pv = 10.0 ** float(rng.uniform(-6, -2))
        st = strengths(alpha, Q=Q)
        d = deltas(L, Q, mu, 1.0)
        b = betas(d, st, L, Q, mu, alpha, 1.0, Pv)
        ko, _, _ = optimal_kappa(b, d, L, mu, Pv)
        if ko <= 0:
            continue
        kappa = float(rng.uniform(0.1, 2.0)) * ko
        params = AlgoParams(variant=L0, mu=mu, kappa=kappa, alpha=alpha)
        sig = SignalModel(Px=1.0, Pv=Pv)
        try:
            m = convergence_model((L, Q, st), params, sig)
        except DegenerateSpectrumError:
            continue
        lams = (m.lambda1, m.lambda2, m.lambda3)
        seps = [abs(a - b_) / max(abs(a), abs(b_))
                for i, a in enumerate(lams) for b_ in lams[i + 1:]]
        if min(seps) < 1e-5:                 # keep the modes distinct
            continue
        out.append((m, (L, Q, st, params, sig)))
    assert len(out) == n_points
    return out


GRID = _transient_grid()


def test_criterion_05_curve_matches_exact_recursion(criterion):
    worst = 0.0
    n = np.arange(5001)
    for model, (L, Q, st, params, sig) in GRID:
        rec = exact_recursion((L, Q, st), params, sig, n_max=5000)[:, 0]
        rel = np.max(np.abs(model.msd(n) - rec) / np.maximum(rec, 1e-300))
        worst = max(worst, float(rel))
    ok = worst <= 1e-8
    assert criterion(
        5, "closed-form curve vs exact recursion, 100-point grid", ok,
        f"max rel err {worst:.2e} over n <= 5000"), worst


def test_criterion_06_spectrum_bounds(criterion):
    # interlacing on every grid point of criterion 5
    chain_ok = True
    for model, _ in GRID:
        lo, hi = sorted((model.lambda1, model.lambda2))
        mid = 0.5 * (model.a00 + model.a11)
        chain_ok &= model.a11 < lo <= mid <= hi < model.a00

    # large steps (beyond half the stability limit): every mode decays
    # faster than the attraction-free rate
    rng = np.random.default_rng(6)
    margin = math.inf
    count = 0
    while count < 50:
        L = int(rng.integers(16, 1501))
        Q = int(rng.integers(1, L))
        mu = float(rng.uniform(0.501, 0.999)) * mu_max(L, 1.0)
        alpha = 10.0 ** float(rng.uniform(-1, 1.5))
        Pv = 10.0 ** float(rng.uniform(-6, -2))
        st = strengths(alpha, Q=Q)
        d = deltas(L, Q, mu, 1.0)
        b = betas(d, st, L, Q, mu, alpha, 1.0, Pv)
        ko, _, _ = optimal_kappa(b, d, L, mu, Pv)
        if ko <= 0:
            continue
        params = AlgoParams(variant=L0, mu=mu,
                            kappa=float(rng.uniform(0.1, 2.0)) * ko,
                            alpha=alpha)
        try:
            m = convergence_model((L, Q, st), params,
                                  SignalModel(Px=1.0, Pv=Pv))
        except DegenerateSpectrumError:
            continue
        rate = max(abs(m.lambda1), abs(m.lambda2), abs(m.lambda3))
        margin = min(margin, m.a00 - rate)
        count += 1
    fast_ok = margin > 0

    ok = chain_ok and fast_ok
    assert criterion(
        6, "eigenvalue interlacing and large-step decay bound", ok,
        f"chain holds on {len(GRID)} points; "
        f"worst large-step margin {margin:.2e}"), (chain_ok, margin)


# ---------------------------------------------------------------------------
# 7. monotonicity of the optimum and its simplifications
# ---------------------------------------------------------------------------

def test_criterion_07_monotonicity_suite(criterion):
    p = BENCH
    sig = bench_signal()

    # floor of the minimized MSD rises with the number of non-zeros
    d_mins = []
    for Q in (50, 100, 200, 500, 1000):
        st = strengths(p["alpha"], Q=Q)
        d_mins.append(l0_steady_msd((p["L"], Q, st), bench_params(0.0),
                                    sig).d_min)
    q_ok = all(b >= a * (1 - 1e-12) for a, b in zip(d_mins, d_mins[1:]))

    # very-sparse approximation is non-decreasing in the step size over
    # its validity range ((Q+2)*mu*Px/2 <= 0.1)
    st = bench_strengths()
    mus = np.geomspace(1e-5, 0.2 / (p["Q"] + 2), 20)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = [approx_min_msd(p["L"], p["Q"],
                               AlgoParams(variant=L0, mu=float(m), kappa=0.0,
                                          alpha=p["alpha"]), sig, st)
                for m in mus]
    mu_ok = all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:]))

    # all-zero-system simplification coincides with the full optimum
    st0 = strengths(p["alpha"], Q=0)
    pr = AlgoParams(variant=L0, mu=4e-4, kappa=0.0, alpha=p["alpha"])
    sig0 = SignalModel(Px=1.0, Pv=1e-4)
    full = l0_steady_msd((500, 0, st0), pr, sig0).d_min
    approx = approx_min_msd(500, 0, pr, sig0, st0)
    q0_rel = abs(approx - full) / full
    q0_ok = q0_rel <= 1e-6

    ok = q_ok and mu_ok and q0_ok
    assert criterion(
        7, "optimum monotone in sparsity and step; zero-system match", ok,
        f"d_min over Q: {', '.join(f'{v:.2e}' for v in d_mins)}; "
        f"step-size monotone {mu_ok}; zero-system rel {q0_rel:.1e}"), \
        (d_mins, mu_ok, q0_rel)


# ---------------------------------------------------------------------------
# 8. Monte Carlo vs theory at full and desk scale
# ---------------------------------------------------------------------------

def max_gap_db(sim, theory):
    return float(np.max(np.abs(10.0 * np.log10(sim / theory))))


def _theory_vs_sim(L, Q, trials):
    """dB gaps at the four benchmark attraction weights
    {0, 0.3, 1, 3} * kappa_opt, each run on the same seed, systems and
    noise with delay-line and with i.i.d. regressors.

    ``steady``: delay-line steady MSD against the closed-form steady MSD
    of each drawn system (exact strengths), averaged over the systems;
    ``curve``: i.i.d.-regressor learning curve past 10% of the run against
    :func:`tapwise_recursion` averaged over the same systems, the model
    whose premises (independent white Gaussian regressors) that run meets;
    ``ensemble``: delay-line steady MSD against the ensemble closed form
    (its difference from ``steady`` is sampling of the system draw);
    ``paper_dl``/``paper_iid``: both runs' curves against the paper's
    closed form :func:`convergence_model`.
    """
    mu, alpha, Pv = 8e-4, 10.0, Q * 1e-4     # 40 dB, ensemble convention
    st = strengths(alpha, Q=Q)
    sig = SignalModel(Px=1.0, Pv=Pv)
    d = deltas(L, Q, mu, 1.0)
    b = betas(d, st, L, Q, mu, alpha, 1.0, Pv)
    ko, _, _ = optimal_kappa(b, d, L, mu, Pv)
    n_iter = 30000
    n0 = n_iter // 10
    n = np.arange(n0, n_iter + 1)
    systems = [gen_system(L, Q, 1, t) for t in range(trials)]
    params = [AlgoParams(variant=L0, mu=mu, kappa=mult * ko, alpha=alpha)
              for mult in (0.0, 0.3, 1.0, 3.0)]
    # one row per (weight, system) pair, weight-major
    tapwise = tapwise_recursion(
        np.tile(systems, (4, 1)), [p for p in params for _ in systems], sig,
        n_iter).reshape(4, trials, -1).mean(axis=1)
    gaps = {k: [] for k in ("steady", "curve", "ensemble", "paper_dl",
                            "paper_iid")}
    for p, curve in zip(params, tapwise):
        spec = ExperimentSpec(L=L, Q=Q, mu=mu, alpha=alpha, kappa=p.kappa,
                              snr_db=40.0, trials=trials, iterations=n_iter,
                              seed=1)
        line = monte_carlo(spec, workers=2)
        iid = monte_carlo(replace(spec, input_model="iid"), workers=2)
        assert not (line.diverged or iid.diverged)
        drawn = np.mean([l0_steady_msd((L, Q, strengths(alpha, s=x)), p,
                                       sig).d_inf for x in systems])
        model = convergence_model((L, Q, st), p, sig)
        gaps["steady"].append(gap_db(line.steady_estimate, drawn))
        gaps["curve"].append(max_gap_db(iid.msd[n0:], curve[n0:]))
        gaps["ensemble"].append(gap_db(line.steady_estimate, model.d_inf))
        gaps["paper_dl"].append(max_gap_db(line.msd[n0:], model.msd(n)))
        gaps["paper_iid"].append(max_gap_db(iid.msd[n0:], model.msd(n)))
    return gaps


def _gap_line(name, gaps, elapsed):
    def fmt(key, sign=""):
        return ", ".join(f"{g:{sign}.2f}" for g in gaps[key])
    return (f"{name}: steady {fmt('steady', '+')} dB (ensemble "
            f"{fmt('ensemble', '+')}) / curve tapwise-iid {fmt('curve')}, "
            f"paper-delay-line {fmt('paper_dl')}, paper-iid "
            f"{fmt('paper_iid')} dB ({elapsed:.0f} s)")


def test_criterion_08_monte_carlo_tracks_theory(criterion):
    t0 = time.perf_counter()
    full = _theory_vs_sim(L=1000, Q=100, trials=20)
    t_full = time.perf_counter() - t0

    t0 = time.perf_counter()
    desk = _theory_vs_sim(L=250, Q=25, trials=5)
    t_desk = time.perf_counter() - t0

    clauses = {
        "full steady<=1dB": max(abs(g) for g in full["steady"]) <= 1.0,
        "full curve<=1.5dB": max(full["curve"]) <= 1.5,
        "desk steady<=1dB": max(abs(g) for g in desk["steady"]) <= 1.0,
        "desk curve<=1.5dB": max(desk["curve"]) <= 1.5,
        "full<=600s": t_full <= 600.0,
        "desk<=60s": t_desk <= 60.0,
    }
    detail = (_gap_line("full", full, t_full) + "; "
              + _gap_line("desk", desk, t_desk) + "; failed: "
              + (", ".join(k for k, v in clauses.items() if not v) or "none"))
    ok = all(clauses.values())
    assert criterion(
        8, "simulation within 1 dB steady / 1.5 dB curve of theory", ok,
        detail), detail


# ---------------------------------------------------------------------------
# 9. stability dichotomy around the step-size limit
# ---------------------------------------------------------------------------

def test_criterion_09_stability_dichotomy(criterion):
    L, Q = 64, 8
    lim = mu_max(L, 1.0)

    spec = ExperimentSpec(L=L, Q=Q, mu=0.9 * lim, alpha=10.0, kappa=0.0,
                          snr_db=40.0, trials=10, iterations=60000, seed=1,
                          variants=(Variant.LMS,))
    traj = monte_carlo(spec)
    converge_ok = traj.settled
    note = (f"0.9*limit {'settles' if traj.settled else 'does not settle'} "
            f"at {traj.steady_estimate:.3e} (final-third log10 slope "
            f"{traj.steady_slope!r}/step)")

    spec = ExperimentSpec(L=L, Q=Q, mu=1.1 * lim, alpha=10.0, kappa=0.0,
                          snr_db=40.0, trials=10, iterations=30000, seed=1,
                          variants=(Variant.LMS,))
    traj_bad = monte_carlo(spec)
    diverge_ok = traj_bad.diverged and math.isnan(traj_bad.steady_estimate)

    ok = converge_ok and diverge_ok
    assert criterion(
        9, "0.9x step limit converges, 1.1x raises the divergence flag",
        ok, f"{note}; 1.1*limit diverged at n={traj_bad.diverged_at}"), \
        (converge_ok, diverge_ok)


# ---------------------------------------------------------------------------
# 10. steady-state weight bias on a designed system
# ---------------------------------------------------------------------------

def test_criterion_10_steady_bias_by_tap_class(criterion):
    s = np.zeros(128)
    s[10:20] = [0.03, -0.04, 0.05, -0.06, 0.07,
                0.035, -0.045, 0.055, -0.065, 0.075]   # inside the range
    s[40:44] = [0.9, -1.2, 1.1, -0.95]                 # outside the range
    system = s
    params = AlgoParams(variant=L0, mu=1e-3, kappa=2e-7, alpha=10.0)
    Pv = float(s @ s) * 1e-4                           # 40 dB
    spec = ExperimentSpec(L=128, Q=14, mu=1e-3, alpha=10.0, kappa=2e-7,
                          Pv=Pv, trials=40, iterations=26000, seed=1)

    _, diverged_at, W = run_trials(spec, [system] * spec.trials,
                                   record_weights_from=6000)
    assert not diverged_at.any()
    mis = W.mean(axis=0) - s

    bias = steady_bias(s, params, Px=1.0)
    small = (np.abs(s) > 0) & (np.abs(s) < 1.0 / params.alpha)
    large = np.abs(s) >= 1.0 / params.alpha
    zero = s == 0.0

    worst_rel = float(np.max(np.abs(mis[small] - bias[small])
                             / np.abs(bias[small])))
    small_ok = worst_rel <= 0.20

    def pooled(mask):
        per_trial = (W[:, mask] - s[mask]).mean(axis=1)
        se = float(per_trial.std(ddof=1)) / math.sqrt(len(per_trial))
        return abs(float(per_trial.mean())), 3.0 * se

    large_mean, large_lim = pooled(large)
    zero_mean, zero_lim = pooled(zero)
    unbiased_ok = large_mean < large_lim and zero_mean < zero_lim

    ok = small_ok and unbiased_ok
    assert criterion(
        10, "per-tap bias: predicted on small taps, none elsewhere", ok,
        f"small worst rel {worst_rel:.3f}; large |mean| {large_mean:.1e} "
        f"< {large_lim:.1e}; zero |mean| {zero_mean:.1e} < {zero_lim:.1e}"
    ), (worst_rel, large_mean, large_lim, zero_mean, zero_lim)


# ---------------------------------------------------------------------------
# 11. low-SNR behaviour is reported, loosely bounded
# ---------------------------------------------------------------------------

def test_criterion_11_low_snr_gap_logged(criterion):
    p = BENCH
    Pv = 1.0                                  # 20 dB, ensemble convention
    st = bench_strengths()
    with pytest.warns(RuntimeWarning, match="dB is low"):
        sig = SignalModel(Px=1.0, Pv=Pv, snr_db=20.0, ref_power=100.0)
        rep = l0_steady_msd((p["L"], p["Q"], st),
                            bench_params(0.0), sig)
        params = bench_params(rep.kappa_opt)
        d_inf = l0_steady_msd((p["L"], p["Q"], st), params, sig).d_inf

    spec = ExperimentSpec(L=p["L"], Q=p["Q"], mu=p["mu"], alpha=p["alpha"],
                          kappa=rep.kappa_opt, snr_db=20.0, trials=20,
                          iterations=30000, seed=1)
    traj = monte_carlo(spec)
    assert not traj.diverged
    gap = gap_db(traj.steady_estimate, d_inf)
    ok = abs(gap) < 5.0
    assert criterion(
        11, "20 dB theory-vs-simulation steady gap logged and < 5 dB", ok,
        f"kappa_opt={rep.kappa_opt:.3e}, gap {gap:+.3f} dB"), gap
