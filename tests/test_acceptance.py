"""Acceptance suite: one test per criterion, each printing a PASS line.

The statistical criteria run fixed seed sets, so every number here is
deterministic; tolerances and seed counts are stated inline with each check.
"""

import time
from fractions import Fraction

import numpy as np
from scipy import stats

from oclopt.datapool import DataPool, Minibatch
from oclopt.harness import (apply_overrides, expand_variants, preset,
                            run_experiment, verify_bounds_from_config)
from oclopt.model import ModelSpec, gradient, validation_performance
from oclopt.optim import (ama_step, best_ma, init_averager, init_sgd, ma_update,
                          sgd_step)
from oclopt.rng import ball_uniform, substream
from oclopt.stream import DriftingQuadraticSpec
from tests.oracles import offer_step, run_from_manifest, stored_items, unfolded_ma_coefficients
from tests.test_model import fd_gradient, grad_agreement, random_model_and_batch

SEEDS_20 = list(range(20))


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def variant_configs(preset_name, labels=None):
    cfg = preset(preset_name)
    out = {}
    for label, concrete in expand_variants(cfg):
        if labels is None or label in labels:
            out[label] = concrete
    return out


def final_by_label(preset_name, seeds, labels=None, metric="p_ir"):
    configs = variant_configs(preset_name, labels)
    finals = {label: [] for label in configs}
    results = {label: [] for label in configs}
    for seed in seeds:
        for label, cfg in configs.items():
            res = run_experiment(cfg, seed=seed)
            finals[label].append(res.final_metrics()[metric])
            results[label].append(res)
    return finals, results


def test_criterion_01_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        spec, theta, batch = random_model_and_batch(rng)
        grad = gradient(spec, theta, batch)
        numeric = fd_gradient(spec, theta, batch)
        worst = max(worst, grad_agreement(grad, numeric))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-6 and elapsed < 10.0,
           f"finite-difference agreement {worst:.2e} (<1e-6) over 100 draws "
           f"in {elapsed:.1f}s (<10s)")


def test_criterion_02_ma_algebra():
    rng = np.random.default_rng(7)
    worst_sum = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 120))
        gammas = rng.uniform(0.0, 1.0, n)
        worst_sum = max(worst_sum, abs(unfolded_ma_coefficients(gammas).sum() - 1.0))
    # convex hull over a 100k-step trajectory, checked coordinate-wise
    steps = 100_000
    thetas = rng.standard_normal((steps + 1, 3))
    gammas = rng.uniform(0.0, 1.0, steps)
    ma = thetas[0].copy()
    lo = thetas[0].copy()
    hi = thetas[0].copy()
    violations = 0
    for i in range(steps):
        ma_update(ma, float(gammas[i]), thetas[i + 1])
        np.minimum(lo, thetas[i + 1], out=lo)
        np.maximum(hi, thetas[i + 1], out=hi)
        if np.any(ma < lo - 1e-12) or np.any(ma > hi + 1e-12):
            violations += 1
    report(2, worst_sum < 1e-12 and violations == 0,
           f"coefficient-sum deviation {worst_sum:.2e} (<1e-12) over 1000 "
           f"sequences; hull violations {violations}/100000 steps")


def test_criterion_03_reduction_identities():
    rng = np.random.default_rng(11)
    target = np.array([1.0, -1.0, 0.5])

    def trajectory(make_ma, gamma_steps=400):
        loc = np.random.default_rng(3)
        ma_state = make_ma(loc.standard_normal(3))
        sgd = init_sgd(ma_state.sgd, beta=0.9)
        out = []
        for k in range(1, gamma_steps + 1):
            g = 0.7 * (sgd.theta - target) + 0.2 * loc.standard_normal(3)
            sgd_step(sgd, g, lr=0.05)
            ama_step(ma_state, k, lambda: "b", lambda p, b: [0.0] * len(p))
            out.append(ma_state.ma[0].copy())
        return np.array(out)

    ema_traj = trajectory(lambda th: init_averager(th, 1, 0.97, k_m=5))
    ama_traj = trajectory(lambda th: init_averager(th, 2, gamma0=0.97, delta=1.0, k_m=5,
                                                   k_v=10, k_w=50, adapt=False))
    ama_is_ema = np.array_equal(ema_traj, ama_traj)

    loc = np.random.default_rng(5)
    ema0 = init_averager(loc.standard_normal(3), 1, 0.0, k_m=1)
    sgd = init_sgd(ema0.sgd, beta=0.0)
    tracks = True
    for k in range(1, 300):
        sgd_step(sgd, loc.standard_normal(3), lr=0.03)
        ama_step(ema0, k, lambda: "b", lambda p, b: [0.0] * len(p))
        tracks = tracks and np.array_equal(ema0.ma[0], sgd.theta)
    report(3, ama_is_ema and tracks,
           "delta=1/no-adapt AMA equals EMA bit-for-bit; gamma=0 EMA equals SGD")


def test_criterion_04_theorem_bounds():
    t0 = time.perf_counter()
    cfg = preset("theory-verify")
    reports = verify_bounds_from_config(cfg)
    elapsed = time.perf_counter() - t0
    all_hold = all(rep.all_hold for _, rep in reports)
    stationary = [rep for _, rep in reports if rep.stationary]
    stationary_two_term = all(
        all(c.t3 == 0.0 for c in rep.checkpoints) and rep.all_hold
        for rep in stationary)
    n_cfg = len(reports)
    n_seeds = cfg.theory.n_seeds
    report(4, all_hold and stationary_two_term and n_cfg >= 6 and n_seeds >= 20
           and elapsed < 300.0,
           f"bound holds within 2 se at every checkpoint for {n_cfg} "
           f"(schedule, drift) configs ({n_seeds} seeds); stationary cases "
           f"satisfy the two-term bound; {elapsed:.0f}s (<300s)")


def _tail_step_ahead(res, frac=0.4):
    records = res.ledger.step_ahead
    return float(np.mean(records[int(len(records) * (1 - frac)):]))


def test_criterion_05_p2_mechanism():
    labels = ("ama-malr", "ama-rwp", "sgd-rwp")
    finals, results = final_by_label("main-comparison", SEEDS_20, labels,
                                     metric="p_le")
    alpha_end = {lab: [r.lr_trace[-1] for r in results[lab]] for lab in labels}
    tails = {lab: [_tail_step_ahead(r) for r in results[lab]] for lab in labels}

    rwp_annealed = all(a < 1e-6 for a in alpha_end["ama-rwp"] + alpha_end["sgd-rwp"])
    malr_floored = all(a >= 1e-3 for a in alpha_end["ama-malr"])
    # C3 is the active guard: reductions were vetoed by C3 alone somewhere
    c3_vetoes = all(
        any(row[4] & 0b011 == 0b011 and not row[4] & 0b100
            for row in r.schedule_rows)
        for r in results["ama-malr"])
    p_vs_arwp = stats.ttest_rel(tails["ama-malr"], tails["ama-rwp"],
                                alternative="greater").pvalue
    p_vs_srwp = stats.ttest_rel(tails["ama-malr"], tails["sgd-rwp"],
                                alternative="greater").pvalue
    gap_a = np.mean(tails["ama-malr"]) - np.mean(tails["ama-rwp"])
    gap_s = np.mean(tails["ama-malr"]) - np.mean(tails["sgd-rwp"])
    rwp_close = abs(np.mean(tails["ama-rwp"]) - np.mean(tails["sgd-rwp"])) \
        < 0.5 * min(gap_a, gap_s)
    le_order = (np.mean(finals["ama-malr"]) > np.mean(finals["ama-rwp"])
                and np.mean(finals["ama-malr"]) > np.mean(finals["sgd-rwp"]))
    report(5, rwp_annealed and malr_floored and c3_vetoes
           and p_vs_arwp < 0.05 and p_vs_srwp < 0.05 and rwp_close and le_order,
           f"RWP alpha < 1e-6 on all {len(SEEDS_20)} seeds, MALR floored "
           f">= 1e-3 with C3 vetoes; tail next-step gaps +{gap_a:.3f}/+{gap_s:.3f} "
           f"(p={p_vs_arwp:.1e}, {p_vs_srwp:.1e}); RWP pair within half the gap")


def _quad_sim(seed, n_iters, alpha_fn, k_w=10**9):
    """SGD + AMA on the per-iteration drifting quadratic; returns trace hooks."""
    d = 4
    quad = DriftingQuadraticSpec(dim=d, mu=0.25, l_smooth=1.0,
                                 center0=tuple(2.0 * np.ones(d)),
                                 velocity=tuple(0.02 * np.ones(d) / np.sqrt(d)),
                                 noise_radius=1.0)
    spec = ModelSpec(kind="quadratic-probe", loss="quadratic", dim=d,
                     curvature=tuple(quad.eigenvalues()))
    ama = init_averager(np.zeros(d), 2, k_m=2, k_v=4, k_w=k_w)
    sgd = init_sgd(ama.sgd, beta=0.0)
    g_noise = substream(seed, 7)
    g_val = substream(seed, 5)
    ks, sigmas, d_sgd, d_ma = [], [], [], []
    for k in range(1, n_iters + 1):
        obs = quad.center(k) + ball_uniform(g_noise, 1, d, 1.0)[0]
        mb = Minibatch(obs[None, :], obs[None, :])
        sgd_step(sgd, gradient(spec, sgd.theta, mb), alpha_fn(k))
        val_obs = quad.center(k) + ball_uniform(g_val, 8, d, 1.0)
        vb = Minibatch(val_obs, val_obs)
        ama_step(ama, k, lambda: vb, lambda p, b: validation_performance(spec, p, b))
        if k % 4 == 0:
            ks.append(k)
            sigmas.append(ama.sigma())
        c = quad.center(k)
        d_sgd.append(float(np.linalg.norm(sgd.theta - c)))
        d_ma.append(float(np.linalg.norm(best_ma(ama) - c)))
    return np.array(ks), np.array(sigmas), np.array(d_sgd), np.array(d_ma)


def test_criterion_06_sigma_shape():
    k_cut, n_iters = 2000, 3000
    rise = plateau = decline = 0
    for seed in SEEDS_20:
        ks, s, _, _ = _quad_sim(seed, n_iters,
                                lambda k: 0.4 if k <= k_cut else 0.2)

        def w(lo, hi):
            return float(s[(ks > lo) & (ks <= hi)].mean())

        early, mid = w(50, 400), w(400, 1000)
        late, pre = w(1000, 1600), w(1600, 2000)
        post = w(2400, 3000)
        rise += mid > early
        plateau += abs(pre - late) < 0.5 * abs(mid - early)
        decline += post < pre
    n = len(SEEDS_20)
    p_rise = stats.binomtest(rise, n, 0.5, alternative="greater").pvalue
    p_plat = stats.binomtest(plateau, n, 0.5, alternative="greater").pvalue
    p_decl = stats.binomtest(decline, n, 0.5, alternative="greater").pvalue
    report(6, max(p_rise, p_plat, p_decl) < 0.05,
           f"sigma rises ({rise}/{n}), plateaus ({plateau}/{n}), declines after "
           f"the cut ({decline}/{n}); sign-test p = {p_rise:.1e}/{p_plat:.1e}/"
           f"{p_decl:.1e}")


def test_criterion_07_tracking_property():
    sgd_means, ma_means = [], []
    for seed in SEEDS_20:
        _, _, d_sgd, d_ma = _quad_sim(seed, 2000, lambda k: 0.4)
        burn = len(d_sgd) // 4
        sgd_means.append(d_sgd[burn:].mean())
        ma_means.append(d_ma[burn:].mean())
    p = stats.ttest_rel(sgd_means, ma_means, alternative="greater").pvalue
    wins = sum(a > b for a, b in zip(sgd_means, ma_means))
    report(7, p < 0.05,
           f"time-averaged distance to the moving optimum: MA "
           f"{np.mean(ma_means):.3f} < SGD {np.mean(sgd_means):.3f} on "
           f"{wins}/{len(SEEDS_20)} seeds (paired p={p:.1e})")


def test_criterion_08_malr_ablation_ordering():
    finals, _ = final_by_label("malr-ablation", SEEDS_20)
    m = {lab: float(np.mean(v)) for lab, v in finals.items()}
    ok = (m["malr"] >= m["no-c2"] and m["malr"] >= m["no-c3"]
          and m["no-c2"] >= m["rwp"] and m["no-c3"] >= m["rwp"])
    report(8, ok,
           "horizon-end retention ordering MALR >= {No-C2, No-C3} >= RWP: "
           + " ".join(f"{lab}={m[lab]:.4f}" for lab in ("malr", "no-c2",
                                                        "no-c3", "rwp")))


def test_criterion_09_reservoir_and_buffer_sweep():
    # inclusion-probability goodness of fit at alpha = 0.01
    trials, n_items, cap = 4000, 50, 10
    counts = np.zeros(n_items)
    for s in range(trials):
        pool = DataPool(capacity=cap, seed=50_000 + s)
        offer_step(pool, 1, np.zeros((n_items, 1)), np.arange(n_items, dtype=np.int64))
        _, ys, _ = stored_items(pool)
        counts[ys] += 1
    expected = trials * cap / n_items
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    chi2_ok = chi2 < stats.chi2.ppf(0.99, df=n_items - 1)

    finals, _ = final_by_label("buffer-size", SEEDS_20)
    small = np.array(finals["cap-100"])
    mid = np.array(finals["cap-1000"])
    big = np.array(finals["cap-10000"])
    p_small = stats.ttest_rel(mid, small, alternative="greater").pvalue
    deficit = float(np.mean(mid) - np.mean(small))
    large_gap = abs(float(np.mean(big) - np.mean(mid)))
    within_noise = large_gap < 0.5 * deficit
    report(9, chi2_ok and p_small < 0.05 and within_noise,
           f"reservoir chi2={chi2:.1f} < crit({stats.chi2.ppf(0.99, n_items-1):.1f}); "
           f"cap-100 worse by {deficit:.3f} (p={p_small:.1e}); larger caps differ "
           f"by {large_gap:.3f} (< half the deficit)")


def test_criterion_10_objective_comparison():
    configs = variant_configs("objective-comparison")
    finals = {metric: {lab: [] for lab in configs} for metric in
              ("p_le", "p_ir", "p_ft")}
    for seed in SEEDS_20:
        for lab, cfg in configs.items():
            fm = run_experiment(cfg, seed=seed).final_metrics()
            for metric in finals:
                finals[metric][lab].append(fm[metric])
    m = {(lab, metric): float(np.mean(finals[metric][lab]))
         for metric in finals for lab in finals[metric]}
    pure_wins = all(m[("pure-p1", k)] > m[("mixed-p1", k)]
                    and m[("pure-p5", k)] > m[("mixed-p5", k)]
                    for k in ("p_ir", "p_ft"))
    pure_loses_le = (m[("pure-p1", "p_le")] < m[("mixed-p1", "p_le")]
                     and m[("pure-p5", "p_le")] < m[("mixed-p5", "p_le")])
    p_improves = all(m[("pure-p5", k)] > m[("pure-p1", k)]
                     for k in ("p_le", "p_ir", "p_ft"))
    report(10, pure_wins and pure_loses_le and p_improves,
           f"pure vs mixed: IR {m[('pure-p1','p_ir')]:.3f}>{m[('mixed-p1','p_ir')]:.3f}, "
           f"FT {m[('pure-p1','p_ft')]:.3f}>{m[('mixed-p1','p_ft')]:.3f}, "
           f"LE {m[('pure-p1','p_le')]:.3f}<{m[('mixed-p1','p_le')]:.3f}; "
           f"p=5 improves all three under pure replay")


def test_criterion_11_compute_accounting():
    k_m, k_v, k_w = 10, 20, 1000
    window = int(np.lcm.reduce([k_v, k_m, k_w]))
    base = preset("main-comparison")
    base.variants = None
    over = {
        "stream.horizon": window // 2,       # p=2 makes exactly one window
        "optimizer.k_m": k_m, "optimizer.k_v": k_v, "optimizer.k_w": k_w,
        "schedule.k_r": 100,
        "eval_every": 10 ** 9,
    }
    ama_cfg = apply_overrides(base, over)
    sgd_cfg = apply_overrides(ama_cfg, {"optimizer.averaging": "none",
                                        "schedule.kind": "rwp",
                                        "schedule.metric": "loss"})
    ama_res = run_experiment(ama_cfg, seed=1)
    sgd_res = run_experiment(sgd_cfg, seed=1)
    assert ama_res.ama.skipped_validations == 0
    c = ama_res.costs
    ama_ok = (Fraction(c.forward, window) == Fraction(k_v + 3, k_v)
              and c.grad == window
              and Fraction(c.update, window) == Fraction(k_m + 2, k_m))
    s = sgd_res.costs
    sgd_ok = (Fraction(s.forward, window) == Fraction(k_v + 1, k_v)
              and s.grad == window and s.update == window)
    report(11, ama_ok and sgd_ok,
           f"over lcm window {window}: AMA+MALR (F,G,U)=({c.forward},{c.grad},"
           f"{c.update}) = ((K_V+3)/K_V, 1, (K_M+2)/K_M)*{window}; SGD+RWP "
           f"({s.forward},{s.grad},{s.update}) = ((K_V+1)/K_V, 1, 1)*{window}")


def test_criterion_12_manifest_determinism(tmp_path):
    cfg = preset("objective-comparison")
    cfg.variants = None
    cfg.stream.horizon = 120
    run_experiment(cfg, seed=13, out_dir=tmp_path / "orig")
    run_from_manifest(tmp_path / "orig" / "manifest.json",
                      out_dir=tmp_path / "replay")
    identical = all(
        (tmp_path / "orig" / name).read_bytes()
        == (tmp_path / "replay" / name).read_bytes()
        for name in ("metrics.csv", "schedule.csv", "config.yaml"))
    report(12, identical, "manifest replay reproduces metrics and schedule "
                          "CSVs byte-for-byte")
