from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rows import bar_arrays
from falsify.bars import Bar, RTH
from falsify.features import (FeatureError, GmmDegenerateError, OuFit, RegimeGMM,
                              _logsumexp, gmm_fit, hurst_exponent, kalman_velocity,
                              markov_transition_prob, ou_fit, ou_zscore, regime_features,
                              rolling_stat, true_ranges, volume_zscore)
from falsify.synth import RegimeSpec, SynthSpec, gen_regime_days


def bars_from_arrays(opens, highs, lows, closes, volumes):
    t0 = datetime(2022, 1, 3, 9, 30)
    return [Bar(t0 + timedelta(minutes=5 * i), float(o), float(h), float(lo),
                float(c), int(v))
            for i, (o, h, lo, c, v) in enumerate(zip(opens, highs, lows, closes, volumes))]


def flat_bars(n, rng=2.0, volume=1000):
    o = [100.0] * n
    return bars_from_arrays(o, [100.0 + rng / 2] * n, [100.0 - rng / 2] * n,
                            o, [volume] * n)


# -- rolling statistics -------------------------------------------------------

def test_mean_range_constant_bars():
    ohlc, _ = bar_arrays(flat_bars(30))
    out = rolling_stat(ohlc[1] - ohlc[2], 20)
    assert np.all(np.isnan(out[:20]))  # strictly-prior window needs 20 bars
    assert np.allclose(out[20:], 2.0)


def test_mean_range_spreadsheet_window():
    rng = np.random.default_rng(11)
    ranges = rng.uniform(1.0, 6.0, size=25)
    bars = bars_from_arrays([100] * 25, 100 + ranges, [100.0] * 25,
                            [100] * 25, [1] * 25)
    ohlc, _ = bar_arrays(bars)
    out = rolling_stat(ohlc[1] - ohlc[2], 20)
    # index 24 must average ranges of bars 4..23 only
    assert out[24] == pytest.approx(np.mean(ranges[4:24]), abs=1e-12)


def test_rolling_window_validation():
    with pytest.raises(FeatureError):
        rolling_stat(np.ones(30), 1)


def test_atr_uses_prior_close_gap():
    # second bar gaps far above its own high-low span
    bars = bars_from_arrays([100, 110], [101, 111], [99, 109], [100, 110], [1, 1])
    bars += flat_bars(25)[2:]
    out = rolling_stat(true_ranges(bar_arrays(bars[:25])[0]), 2)
    # true range of bar 1 = max(2, |111-100|, |109-100|) = 11
    assert out[2] == pytest.approx((2.0 + 11.0) / 2)


def test_volume_zscore_arithmetic():
    vols = [900] * 25 + [1100] * 25 + [1050]  # prior mean 1000, pop std 100
    bars = flat_bars(51)
    bars = [Bar(b.ts, b.open, b.high, b.low, b.close, v) for b, v in zip(bars, vols)]
    z = volume_zscore(bar_arrays(bars)[1], 50)
    assert z[50] == pytest.approx(0.5, abs=1e-12)


def test_volume_zscore_degenerate_std_absent():
    bars = flat_bars(60)
    z = volume_zscore(bar_arrays(bars)[1], 50)
    assert np.all(np.isnan(z))


def test_volume_zscore_brute_force():
    rng = np.random.default_rng(3)
    vols = rng.integers(500, 2000, size=60)
    bars = flat_bars(60)
    bars = [Bar(b.ts, b.open, b.high, b.low, b.close, int(v))
            for b, v in zip(bars, vols)]
    z = volume_zscore(bar_arrays(bars)[1], 20)
    for i in range(60):
        win = vols[i - 20:i].astype(float) if i >= 20 else None
        if win is None:
            assert np.isnan(z[i])
        else:
            expect = (vols[i] - win.mean()) / win.std()
            assert z[i] == pytest.approx(expect, abs=1e-10)


# -- Kalman velocity ----------------------------------------------------------

def test_kalman_constant_series_velocity_zero():
    v = kalman_velocity([100.0] * 80, q=1e-3, r=1.0)
    assert abs(v[-1]) < 1e-6
    assert np.all(np.abs(v[50:]) < 1e-6)


def test_kalman_ramp_converges_to_slope():
    closes = [100.0 + 2.0 * i for i in range(300)]
    v = kalman_velocity(closes, q=1e-3, r=1.0)
    assert v[-1] == pytest.approx(2.0, abs=1e-3)


def test_kalman_noisy_ramp_monte_carlo():
    errs = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        closes = 100.0 + 2.0 * np.arange(500) + rng.normal(0, 0.5, 500)
        v = kalman_velocity(closes, q=1e-3, r=1.0)
        errs.append(abs(v[-1] - 2.0))
    assert max(errs) < 0.2


def scalar_kalman(closes, q, r):
    """The filter one series at a time, on Python floats."""
    level, vel = float(closes[0]), 0.0
    p00, p01, p11 = 1e6, 0.0, 1e6
    out = []
    for i, x in enumerate(closes):
        if i > 0:
            level += vel
            p00 = p00 + 2.0 * p01 + p11 + 0.25 * q
            p01 = p01 + p11 + 0.5 * q
            p11 = p11 + 1.0 * q
        s = p00 + r
        k0, k1 = p00 / s, p01 / s
        resid = float(x) - level
        level += k0 * resid
        vel += k1 * resid
        p11 -= k1 * p01
        p01 *= 1.0 - k0
        p00 *= 1.0 - k0
        out.append(vel)
    return out


def test_kalman_filters_each_row_of_a_2d_input_as_its_own_series():
    rng = np.random.default_rng(0)
    rows = np.cumsum(rng.normal(0, 5, (6, 300)), axis=1) + 15000
    got = kalman_velocity(rows, q=2e-3, r=0.5)
    assert got.shape == rows.shape
    for row, v in zip(rows, got):
        assert v.tolist() == scalar_kalman(row, q=2e-3, r=0.5)
        assert np.array_equal(v, kalman_velocity(row, q=2e-3, r=0.5))


def test_kalman_rejects_bad_input():
    with pytest.raises(FeatureError):
        kalman_velocity([])
    with pytest.raises(FeatureError):
        kalman_velocity([1.0, float("nan")])
    with pytest.raises(FeatureError):
        kalman_velocity([1.0, 2.0], q=0.0)


def test_kalman_velocity_is_causal():
    rng = np.random.default_rng(5)
    closes = list(np.cumsum(rng.normal(0, 1, 200)) + 100)
    v1 = kalman_velocity(closes)
    mutated = closes[:150] + [c + 500.0 for c in closes[150:]]
    v2 = kalman_velocity(mutated)
    assert np.array_equal(v1[:150], v2[:150])


# -- Hurst exponent -----------------------------------------------------------

def test_hurst_iid_near_half():
    estimates = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        estimates.append(hurst_exponent(rng.normal(0, 1, 10_000)))
    estimates = np.array(estimates)
    assert np.all(np.abs(estimates - 0.5) < 0.07)


def test_hurst_persistent_series_above_06():
    rng = np.random.default_rng(1)
    noise = rng.normal(0, 1, 10_000)
    smoothed = np.convolve(noise, np.ones(30) / 30, mode="valid")
    assert hurst_exponent(smoothed) > 0.6


def test_hurst_antipersistent_below_half():
    alt = np.tile([1.0, -1.0], 2000)
    assert hurst_exponent(alt) < 0.3


def test_hurst_rejects_constant_or_short():
    with pytest.raises(FeatureError):
        hurst_exponent(np.zeros(5000))
    with pytest.raises(FeatureError):
        hurst_exponent(np.random.default_rng(0).normal(size=50))


# -- OU fit and z-score -------------------------------------------------------

def simulate_ou(phi, mu, sigma, n, seed):
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = mu
    for t in range(1, n):
        x[t] = mu + phi * (x[t - 1] - mu) + rng.normal(0, sigma)
    return x


def test_ou_half_life_recovery_is_close_on_fixed_seed():
    phi = math.exp(-math.log(2) / 7.85)
    x = simulate_ou(phi, 15000.0, 5.0, 5000, seed=42)
    fit = ou_fit(x)
    assert fit.half_life is not None
    assert fit.half_life == pytest.approx(7.85, rel=0.10)


def test_ou_phi_half_gives_unit_half_life():
    x = simulate_ou(0.5, 100.0, 1.0, 20_000, seed=7)
    fit = ou_fit(x)
    assert fit.half_life == pytest.approx(1.0, rel=0.05)


def test_ou_random_walk_disables_half_life():
    undefined = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.normal(0, 1, 2000)) + 1000
        if ou_fit(x).half_life is None:
            undefined += 1
    assert undefined >= 95


def test_ou_fit_consistency_with_sample_size():
    phi = math.exp(-math.log(2) / 7.85)
    small = [ou_fit(simulate_ou(phi, 0, 1, 500, seed=s)).phi for s in range(30)]
    large = [ou_fit(simulate_ou(phi, 0, 1, 5000, seed=s)).phi for s in range(30)]
    assert np.std(large) < np.std(small)
    assert abs(np.mean(large) - phi) < abs(np.mean(small) - phi) + 0.01


def test_ou_zscore_values():
    fit = OuFit(phi=0.9, mu=100.0, sigma_eps=1.0,
                half_life=math.log(2) / -math.log(0.9))
    sd = fit.stationary_std
    z = ou_zscore([100.0, 100.0 + sd, 100.0 - 2 * sd], fit)
    assert z[0] == pytest.approx(0.0)
    assert z[1] == pytest.approx(1.0)
    assert z[2] == pytest.approx(-2.0)


def test_ou_zscore_brute_force():
    phi = 0.8
    x = simulate_ou(phi, 50.0, 2.0, 200, seed=3)
    fit = ou_fit(x)
    z = ou_zscore(x, fit)
    sd = fit.sigma_eps / math.sqrt(1 - fit.phi ** 2)
    for i in range(200):
        assert z[i] == pytest.approx((x[i] - fit.mu) / sd, abs=1e-12)


def test_ou_zscore_requires_defined_half_life():
    fit = OuFit(phi=1.01, mu=0.0, sigma_eps=1.0, half_life=None)
    with pytest.raises(FeatureError):
        ou_zscore([1.0, 2.0], fit)


# -- GMM regimes --------------------------------------------------------------

def planted_clusters(seed=0, n_per=400):
    rng = np.random.default_rng(seed)
    means = np.array([[-5.0, 1.0, -1.0], [0.0, 4.0, 2.0], [5.0, 1.0, -1.0]])
    X = np.vstack([rng.normal(m, 0.4, size=(n_per, 3)) for m in means])
    y = np.repeat([0, 1, 2], n_per)
    perm = rng.permutation(len(X))
    return X[perm], y[perm]


def test_gmm_planted_cluster_accuracy():
    X, y = planted_clusters()
    model = gmm_fit(X, seed=0)
    acc = float(np.mean(model.predict(X) == y))
    assert acc >= 0.95


def test_gmm_label_order_by_mean_return():
    X, _ = planted_clusters(seed=2)
    model = gmm_fit(X, seed=2)
    assert model.means_[0, 0] < model.means_[1, 0] < model.means_[2, 0]


def test_gmm_same_seed_bit_identical():
    X, _ = planted_clusters(seed=4)
    m1 = gmm_fit(X, seed=9)
    m2 = gmm_fit(X, seed=9)
    assert np.array_equal(m1.means_, m2.means_)
    assert np.array_equal(m1.variances_, m2.variances_)
    assert np.array_equal(m1.weights_, m2.weights_)


def test_gmm_identical_points_degenerate():
    X = np.ones((200, 3))
    with pytest.raises((GmmDegenerateError, FeatureError)):
        gmm_fit(X, seed=0)


def test_gmm_loglik_nondecreasing():
    X, _ = planted_clusters(seed=6)
    model = gmm_fit(X, seed=6)
    hist = np.array(model.loglik_history_)
    assert np.all(np.diff(hist) >= -1e-7)


def test_gmm_predict_at_component_mean():
    X, _ = planted_clusters(seed=1)
    model = gmm_fit(X, seed=1)
    raw_means = model.means_ * model.scale_std_ + model.scale_mean_
    labels = model.predict(raw_means)
    assert list(labels) == [0, 1, 2]


def test_gmm_posterior_brute_force():
    X, _ = planted_clusters(seed=8, n_per=334)
    model = gmm_fit(X, seed=8)
    Z = (X[:1000] - model.scale_mean_) / model.scale_std_
    probs = model.predict_proba(X[:1000])
    for i in range(0, 1000, 97):
        dens = []
        for j in range(3):
            d = Z[i] - model.means_[j]
            var = model.variances_[j]
            logp = (math.log(model.weights_[j])
                    - 0.5 * np.sum(np.log(2 * np.pi * var))
                    - 0.5 * np.sum(d * d / var))
            dens.append(math.exp(logp))
        dens = np.array(dens)
        assert np.allclose(probs[i], dens / dens.sum(), atol=1e-10)


def test_gmm_tie_breaks_to_lower_index():
    lab = np.argmax(np.array([[0.4, 0.4, 0.2]]), axis=1)
    assert lab[0] == 0  # argmax convention the predictor relies on


def test_gmm_needs_enough_observations():
    with pytest.raises(FeatureError):
        gmm_fit(np.zeros((100, 3)), seed=0)


def reference_logsumexp(a):
    """The axis-1 form ``_logsumexp`` replaced."""
    m = a.max(axis=1)
    return m + np.log(np.sum(np.exp(a - m[:, None]), axis=1))


@st.composite
def log_prob_arrays(draw):
    n, k = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    magnitude = draw(st.sampled_from([1e-3, 1e-1, 1.0, 1e1, 1e3]))
    a = draw(hnp.arrays(np.float64, (n, k), elements=st.floats(-1.0, 1.0))) * magnitude
    # rows whose maximum is shared by a second column
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        a[i, draw(st.integers(0, k - 1))] = a[i].max()
    return a


@settings(max_examples=300, deadline=None)
@given(a=log_prob_arrays())
def test_logsumexp_matches_axis1_reductions(a):
    assert np.array_equal(_logsumexp(a), reference_logsumexp(a))


def golden_window():
    reg = RegimeSpec(transition=((0.94, 0.01, 0.05), (0.25, 0.50, 0.25), (0.05, 0.01, 0.94)),
                     means=(-8.0, 0.0, 8.0), vols=(1.5, 4.0, 1.5), volume_mults=(1.0, 3.5, 1.0))
    days, _ = gen_regime_days(SynthSpec(40, seed=3, regimes=reg))
    return regime_features(*bar_arrays(b for d in days for b in d.bars), vol_window=50)


def golden_fit(**kwargs):
    """The golden window's fit and a sha256 over its fitted state and labels."""
    X = golden_window()
    model = RegimeGMM(seed=7, **kwargs).fit(X[50:])
    h = hashlib.sha256()
    for a in (model.means_, model.variances_, model.weights_,
              np.array(model.loglik_history_), model.predict(X)):
        h.update(np.ascontiguousarray(a).tobytes())
    return model, h.hexdigest()


def simd_target() -> str:
    """The SIMD target numpy runs float64 ``exp`` and ``log`` on: their bits, and
    so the fitted bits, differ between targets (X86_V4 is AVX-512, X86_V3 AVX2)."""
    from numpy.lib.introspect import opt_func_info
    info = opt_func_info(func_name="^(exp|log)$", signature="float64")
    targets = {sig["current"] for sigs in info.values() for sig in sigs.values()}
    assert len(targets) == 1, info
    return targets.pop()


# one digest per target, recorded with NPY_DISABLE_CPU_FEATURES selecting each
# target of numpy 2.4 on an AVX-512 CPU
GOLDEN_OLD_RULE = {
    "X86_V4": "6df5e993b3c833a0a014325c136ac8cbdbf9d5b6a79bd05c1c80f99d12e575d0",
    "X86_V3": "192a9b339da714be0ce2fec228a07d96af51d90bfb5384cebac3fa7f6942d0b5",
    "baseline(X86_V2)": "192a9b339da714be0ce2fec228a07d96af51d90bfb5384cebac3fa7f6942d0b5",
}
GOLDEN_DEFAULT = {
    "X86_V4": "b9d663c01a388bbb0af55f558afe795b5fb0f10c96c070c4241ff09eeab50a4d",
    "X86_V3": "97dc9a016a7cd2018599736eefc801e81ae53d9edeec2a9acdf2eef5e31ccb8d",
    "baseline(X86_V2)": "97dc9a016a7cd2018599736eefc801e81ae53d9edeec2a9acdf2eef5e31ccb8d",
}


def test_gmm_fit_matches_golden_digest():
    # the old stopping rule, a total gain below 1e-8; any change to the EM
    # arithmetic changes this digest
    model, digest = golden_fit(tol=1e-8 / (len(golden_window()) - 50))
    assert model.n_iter_ == len(model.loglik_history_) == 34 and model.converged_
    assert digest == GOLDEN_OLD_RULE.get(simd_target()), simd_target()


def test_gmm_default_fit_matches_golden_digest():
    # the default rule: the mean log-likelihood gains less than 1e-6
    model, digest = golden_fit()
    assert model.n_iter_ == len(model.loglik_history_) == 18 and model.converged_
    assert digest == GOLDEN_DEFAULT.get(simd_target()), simd_target()


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_gmm_fit_bits_do_not_depend_on_the_blas_kernel(coretype):
    # OpenBLAS picks its kernel when it loads, so the fit runs in a child
    # interpreter whose environment alone names the kernel
    import falsify
    here = Path(__file__).resolve().parent
    path = [str(here), str(Path(falsify.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "PYTHONPATH": os.pathsep.join(path)}
    child = subprocess.run(
        [sys.executable, "-c", "import test_features as t; print(t.golden_fit()[1])"],
        cwd=here, env=env, capture_output=True, text=True, check=True)
    assert child.stdout.strip() == golden_fit()[1]


def reference_log_prob(Z, means, variances, weights):
    """Row-major n x k log(weight_j * N(z_i | j)), column by column in
    ``RegimeGMM._log_prob``'s order, and with no BLAS call."""
    inv = 1.0 / variances
    const = (np.log(weights)
             - 0.5 * np.sum(np.log(2 * np.pi * variances), axis=1)
             - 0.5 * np.sum(means * means * inv, axis=1))
    out = np.empty((len(Z), len(means)))
    for j in range(len(means)):
        col = np.full(len(Z), const[j])
        for c in range(Z.shape[1]):
            col = col + (means[j, c] * inv[j, c]) * Z[:, c]
            col = col - (0.5 * inv[j, c]) * (Z[:, c] * Z[:, c])
        out[:, j] = col
    return out


def reference_em(Z, seed, k=3, quantile_init=True, max_iter=500, tol=1e-6):
    """A row-major EM loop whose sums are n-long columns; returns the
    relabelled (means, variances, weights, loglik history)."""
    n, d = Z.shape
    rng = np.random.default_rng(seed)
    if quantile_init:
        parts = np.array_split(np.argsort(Z[:, 0], kind="stable"), k)
        means = np.array([Z[p].mean(axis=0) for p in parts])
        variances = np.array([np.maximum(Z[p].var(axis=0), 1e-6) for p in parts])
    else:
        means = Z[rng.choice(n, size=k, replace=False)].copy()
        variances = np.tile(np.maximum(Z.var(axis=0), 1e-6), (k, 1))
    weights = np.full(k, 1.0 / k)
    Z2 = Z * Z
    history, prev_ll = [], -np.inf
    for _ in range(max_iter):
        log_resp = reference_log_prob(Z, means, variances, weights)
        ll_per = reference_logsumexp(log_resp)
        ll = float(np.sum(ll_per))
        resp = np.exp(log_resp - ll_per[:, None])
        nk = np.array([np.sum(resp[:, j]) for j in range(k)])
        if np.any(nk < 1e-10):
            raise GmmDegenerateError("empty component")
        means = np.array([[np.sum(resp[:, j] * Z[:, c]) for c in range(d)]
                          for j in range(k)]) / nk[:, None]
        variances = np.array([[np.sum(resp[:, j] * Z2[:, c]) for c in range(d)]
                              for j in range(k)]) / nk[:, None] - means**2
        if np.any(variances < 1e-10):
            raise GmmDegenerateError("variance collapse")
        weights = nk / n
        history.append(ll)
        if (ll - prev_ll) / n < tol:
            break
        prev_ll = ll
    order = np.argsort(means[:, 0], kind="stable")
    return means[order], variances[order], weights[order], history


def assert_em_matches_reference(X, seed, quantile_init=True):
    """``RegimeGMM._em`` and ``reference_em`` agree bit for bit on the fitted
    state and the posteriors, or raise the same error."""
    model = RegimeGMM(seed=seed)
    model.scale_mean_, model.scale_std_ = X.mean(axis=0), X.std(axis=0)
    Z = (X - model.scale_mean_) / model.scale_std_
    try:
        want = reference_em(Z, seed, quantile_init=quantile_init)
    except GmmDegenerateError as exc:
        with pytest.raises(GmmDegenerateError, match=str(exc)):
            model._em(Z, seed, quantile_init=quantile_init)
        return None
    model._em(Z, seed, quantile_init=quantile_init)
    got = (model.means_, model.variances_, model.weights_, model.loglik_history_)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    for rows in (X, X[:1], X[:7]):
        log_p = reference_log_prob((rows - model.scale_mean_) / model.scale_std_, *want[:3])
        proba = np.exp(log_p - reference_logsumexp(log_p)[:, None])
        assert np.array_equal(model.predict_proba(rows), proba)
        assert np.array_equal(model.predict(rows), np.argmax(proba, axis=1))
    return model


@st.composite
def regime_windows(draw):
    """Heavy-tailed three-cluster feature windows, sometimes on a tick grid."""
    n = draw(st.integers(150, 5_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.normal(0.0, draw(st.sampled_from([0.0, 0.5, 3.0])), size=(3, 3))
    scales = rng.uniform(0.2, 2.0, size=(3, 3))
    labels = rng.integers(0, 3, size=n)
    X = centers[labels] + scales[labels] * rng.standard_t(draw(st.sampled_from([3, 30])),
                                                          size=(n, 3))
    if draw(st.booleans()):
        X = np.round(X * 4) / 4
    return X


@settings(max_examples=40, deadline=None)
@given(X=regime_windows(), seed=st.integers(0, 1_000), quantile_init=st.booleans())
def test_component_major_em_matches_row_major_reference(X, seed, quantile_init):
    assert_em_matches_reference(X, seed, quantile_init)


def regime_window(n_days, seed):
    """Regime features of a synthetic RTH corpus, past the volume warm-up."""
    reg = RegimeSpec(transition=((0.94, 0.01, 0.05), (0.25, 0.50, 0.25), (0.05, 0.01, 0.94)),
                     means=(-8.0, 0.0, 8.0), vols=(1.5, 4.0, 1.5), volume_mults=(1.0, 3.5, 1.0))
    days, _ = gen_regime_days(SynthSpec(n_days, seed=seed, regimes=reg))
    ohlc = np.concatenate([d.ohlc for d in days], axis=1)
    return regime_features(ohlc, np.concatenate([d.volume for d in days]), vol_window=50)[50:]


def test_component_major_em_matches_reference_on_a_large_window():
    # a long row's pairwise sum recurses deeper than a short one's
    X = regime_window(280, seed=5)
    assert len(X) >= 20_000
    model = assert_em_matches_reference(X, seed=1)
    assert model is not None and len(model.loglik_history_) > 10


def test_random_init_restart_path_matches_reference():
    X, _ = planted_clusters(seed=3, n_per=2_000)
    for seed in range(4):
        assert assert_em_matches_reference(X, seed, quantile_init=False) is not None


def test_gmm_reports_whether_em_converged():
    X, _ = planted_clusters(seed=5)
    assert gmm_fit(X, seed=5).converged_
    X = regime_window(40, seed=3)  # overlapping regimes take more than 3 iterations
    capped = RegimeGMM(seed=5, max_iter=3).fit(X)
    assert not capped.converged_ and capped.n_iter_ == len(capped.loglik_history_) == 3
    assert RegimeGMM(seed=5).fit(X).converged_


def test_a_warm_start_is_the_start_model_in_the_new_window_units():
    # with no EM step the fit is its start: the previous window's components,
    # mapped into the new window's standardized units, are the same in raw units
    X = regime_window(40, seed=3)
    old = RegimeGMM(seed=5).fit(X[:1_500])
    new = RegimeGMM(seed=5, max_iter=0).fit(X, start=old)
    assert new.warm_start_ and new.n_iter_ == 0
    assert not np.allclose(new.scale_std_, old.scale_std_)
    raw = lambda m: (m.means_ * m.scale_std_ + m.scale_mean_, m.variances_ * m.scale_std_**2)
    for got, want in zip(raw(new), raw(old)):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    assert np.array_equal(new.weights_, old.weights_)


def test_a_degenerate_warm_start_falls_back_to_the_cold_restarts():
    X, _ = planted_clusters(seed=4)
    cold = RegimeGMM(seed=9).fit(X)
    start = RegimeGMM(seed=9).fit(X)
    start.means_ = start.means_ + np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1e3, 0.0, 0.0]])
    # the start alone degenerates: with no cold restart to fall back on, the fit fails
    with pytest.raises(GmmDegenerateError, match="after 0 restarts"):
        RegimeGMM(seed=9, restarts=0).fit(X, start=start)
    warm = RegimeGMM(seed=9).fit(X, start=start)
    assert not warm.warm_start_
    for attr in ("means_", "variances_", "weights_", "loglik_history_"):
        assert np.array_equal(getattr(warm, attr), getattr(cold, attr)), attr


# -- Markov transition probabilities -------------------------------------------

def test_markov_constant_labels():
    lab = [1] * 60
    p_same = markov_transition_prob(lab, window=20, frm=1, to=1)
    p_move = markov_transition_prob(lab, window=20, frm=1, to=2)
    assert np.allclose(p_same[20:], 1.0)
    assert np.allclose(p_move[20:], 0.0)


def test_markov_alternating_labels():
    lab = [0, 1] * 30
    p = markov_transition_prob(lab, window=20, frm=0, to=1)
    assert np.allclose(p[20:], 1.0)


def test_markov_absent_without_from_occurrences():
    lab = [2] * 40
    p = markov_transition_prob(lab, window=20, frm=1, to=2)
    assert np.all(np.isnan(p))


def test_markov_brute_force():
    rng = np.random.default_rng(17)
    lab = rng.integers(0, 3, size=300)
    window = 50
    p = markov_transition_prob(lab, window=window, frm=1, to=2)
    for i in range(300):
        if i < window:
            assert np.isnan(p[i])
            continue
        lo, hi = i - window, i - 1
        starts = hits = 0
        for j in range(lo, hi):
            if lab[j] == 1:
                starts += 1
                if lab[j + 1] == 2:
                    hits += 1
        if starts == 0:
            assert np.isnan(p[i])
        else:
            assert p[i] == pytest.approx(hits / starts, abs=1e-12)


def reference_markov(labels, window, frm, to):
    """The per-bar loop ``markov_transition_prob`` replaced."""
    lab = np.asarray(labels, dtype=int)
    n = len(lab)
    out = np.full(n, np.nan)
    if n < 2:
        return out
    starts = (lab[:-1] == frm).astype(float)
    hits = ((lab[:-1] == frm) & (lab[1:] == to)).astype(float)
    cs = np.concatenate(([0.0], np.cumsum(starts)))
    ch = np.concatenate(([0.0], np.cumsum(hits)))
    for i in range(window, n):
        lo, hi = i - window, i - 1
        denom = cs[hi] - cs[lo]
        if denom > 0:
            out[i] = (ch[hi] - ch[lo]) / denom
    return out


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(st.integers(0, 2), max_size=150), window=st.integers(10, 60),
       frm=st.integers(0, 2), to=st.integers(0, 2))
@example(labels=[], window=10, frm=1, to=2)
@example(labels=[1], window=10, frm=1, to=2)
@example(labels=[1, 2] * 5, window=10, frm=1, to=2)
@example(labels=[0] * 30 + [1, 1, 2] * 10, window=12, frm=1, to=1)
def test_markov_matches_per_bar_loop(labels, window, frm, to):
    got = markov_transition_prob(labels, window=window, frm=frm, to=to)
    want = reference_markov(labels, window, frm, to)
    assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)


def test_markov_window_validation():
    with pytest.raises(FeatureError):
        markov_transition_prob([0, 1, 2], window=5, frm=0, to=1)
