"""Stateless per-bar estimators consumed by the signal families.

Every rolling estimator here uses strictly prior bars (the window ends
at index i-1), so a value at index i can be acted on at the open of bar
i+1 with no same-bar leakage. ``ou_zscore`` and regime labels describe
the just-closed bar; the execution layer guarantees next-bar-open entry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


class FeatureError(ValueError):
    pass


def _prior_mean(x: np.ndarray, window: int) -> np.ndarray:
    """out[..., i] = mean(x[..., i-window:i]) along the last axis; NaN during warm-up."""
    out = np.full(x.shape, np.nan)
    if x.shape[-1] < window + 1:
        return out
    csum = np.concatenate((np.zeros((*x.shape[:-1], 1)), np.cumsum(x, axis=-1)), axis=-1)
    out[..., window:] = (csum[..., window:-1] - csum[..., :-window - 1]) / window
    return out


def true_ranges(ohlc: np.ndarray) -> np.ndarray:
    """True range per bar of a 4 x n price array; first bar falls back to high-low."""
    _, h, lo, c = ohlc
    tr = h - lo
    if len(tr) > 1:
        pc = c[:-1]
        tr[1:] = np.maximum(tr[1:], np.maximum(np.abs(h[1:] - pc), np.abs(lo[1:] - pc)))
    return tr


def rolling_stat(x: np.ndarray, window: int) -> np.ndarray:
    """Mean of ``x`` over the strictly prior ``window`` values along its last axis, each
    row on its own; NaN marks warm-up."""
    if window < 2:
        raise FeatureError("rolling window must be >= 2")
    return _prior_mean(np.asarray(x, dtype=float), window)


def volume_zscore(volume: np.ndarray, window: int) -> np.ndarray:
    """z_i = (v_i - mean(prior window)) / std(prior window); NaN if std == 0."""
    if window < 2:
        raise FeatureError("window must be >= 2")
    v = np.asarray(volume, dtype=float)
    m = _prior_mean(v, window)
    s = np.sqrt(np.maximum(_prior_mean(v * v, window) - m * m, 0.0))  # population std
    with np.errstate(invalid="ignore", divide="ignore"):
        z = (v - m) / s
    z[~np.isfinite(z)] = np.nan
    return z


def kalman_velocity(closes, q: float = 1e-3, r: float = 1.0) -> np.ndarray:
    """Constant-velocity (level + slope) Kalman filter; returns per-bar velocity.

    The estimate at index i uses closes 0..i only. Initial state is
    (first close, 0) with a large prior covariance. A 2-d input is one
    series per row, filtered in one pass: the covariance recursion, and so
    every gain, does not depend on the data.
    """
    x = np.asarray(closes, dtype=float)
    if x.size == 0:
        raise FeatureError("empty series")
    if not np.all(np.isfinite(x)):
        raise FeatureError("non-finite value in input series")
    if q <= 0 or r <= 0:
        raise FeatureError("q and r must be positive")

    # scalar form of the 2-state filter; the 2x2 covariance is unrolled
    # (p00, p01, p11) and kept symmetric by construction
    q00, q01, q11 = 0.25 * q, 0.5 * q, 1.0 * q  # dt = 1 bar
    rows = np.atleast_2d(x)
    level, vel = rows[:, 0].copy(), np.zeros(len(rows))
    p00, p01, p11 = 1e6, 0.0, 1e6
    out = np.empty(rows.shape)
    for i in range(rows.shape[1]):
        if i > 0:
            level += vel
            p00 = p00 + 2.0 * p01 + p11 + q00
            p01 = p01 + p11 + q01
            p11 = p11 + q11
        s = p00 + r
        k0, k1 = p00 / s, p01 / s
        resid = rows[:, i] - level
        level += k0 * resid
        vel += k1 * resid
        p11 -= k1 * p01
        p01 *= 1.0 - k0
        p00 *= 1.0 - k0
        out[:, i] = vel
    return out if x.ndim > 1 else out[0]


def hurst_exponent(returns: Sequence[float], min_chunk: int = 16) -> float:
    """Rescaled-range Hurst estimate with the Anis-Lloyd small-sample correction.

    Log-log regression of mean R/S against dyadic chunk sizes from
    ``min_chunk`` up to half the series length; the expected iid R/S is
    subtracted per chunk size so an iid series regresses to ~0.5.
    """
    x = np.asarray(returns, dtype=float)
    if len(x) < 100:
        raise FeatureError("need at least 100 observations")
    if np.std(x) == 0:
        raise FeatureError("constant series has no dispersion")

    sizes = []
    s = min_chunk
    while s <= len(x) // 2:
        sizes.append(s)
        s *= 2
    if len(sizes) < 2:
        raise FeatureError("series too short for chosen min_chunk")

    log_rs = []
    for size in sizes:
        k = len(x) // size
        chunks = x[: k * size].reshape(k, size)
        dev = chunks - chunks.mean(axis=1, keepdims=True)
        cum = np.cumsum(dev, axis=1)
        rng = cum.max(axis=1) - cum.min(axis=1)
        std = chunks.std(axis=1)
        ok = std > 0
        if not np.any(ok):
            raise FeatureError("degenerate chunk dispersion")
        log_rs.append(math.log(np.mean(rng[ok] / std[ok])))

    log_n = np.log(sizes)
    slope = np.polyfit(log_n, log_rs, 1)[0]
    expected = np.log([_expected_rs(s) for s in sizes])
    null_slope = np.polyfit(log_n, expected, 1)[0]
    return 0.5 + slope - null_slope


def _expected_rs(n: int) -> float:
    """Anis-Lloyd expected R/S of an iid series of length n."""
    i = np.arange(1, n)
    s = float(np.sum(np.sqrt((n - i) / i)))
    if n <= 340:
        return (math.gamma((n - 1) / 2) / (math.sqrt(math.pi) * math.gamma(n / 2))) * s
    return s / math.sqrt(n * math.pi / 2)


@dataclass(frozen=True)
class OuFit:
    """AR(1)-on-levels fit; half_life is None when phi is outside (0, 1)."""

    phi: float
    mu: float
    sigma_eps: float
    half_life: Optional[float]

    @property
    def stationary_std(self) -> Optional[float]:
        if self.half_life is None:
            return None
        return self.sigma_eps / math.sqrt(1.0 - self.phi**2)


# One-sided Dickey-Fuller 1% critical value (intercept, large n). Plain
# OLS gives phi-hat < 1 on most random walks, so a significance check is
# needed before trusting a finite half-life.
_UNIT_ROOT_CRIT = -3.43


def ou_fit(prices: Sequence[float]) -> OuFit:
    """Least-squares AR(1) on levels: x[t+1] = c + phi * x[t] + eps.

    half_life is None (signals disabled) unless phi is in (0, 1) and
    significantly below 1 at the 1% unit-root level; a random walk or
    explosive series never raises.
    """
    x = np.asarray(prices, dtype=float)
    if len(x) < 30:
        raise FeatureError("need at least 30 observations")
    lag, cur = x[:-1], x[1:]
    var = np.var(lag)
    if var == 0:
        raise FeatureError("constant series")
    phi = float(np.cov(lag, cur, ddof=0)[0, 1] / var)
    c = float(np.mean(cur) - phi * np.mean(lag))
    resid = cur - (c + phi * lag)
    sigma_eps = float(np.std(resid, ddof=2)) if len(resid) > 2 else float(np.std(resid))
    ss_lag = float(np.sum((lag - np.mean(lag)) ** 2))
    se_phi = sigma_eps / math.sqrt(ss_lag) if ss_lag > 0 else float("inf")
    t_unit = (phi - 1.0) / se_phi if se_phi > 0 else 0.0
    if 0.0 < phi < 1.0 and t_unit < _UNIT_ROOT_CRIT:
        half_life = math.log(2) / (-math.log(phi))
        mu = c / (1.0 - phi)
    else:
        half_life = None
        mu = float(np.mean(x))
    return OuFit(phi=phi, mu=mu, sigma_eps=sigma_eps, half_life=half_life)


def ou_zscore(prices: Sequence[float], fit: OuFit) -> np.ndarray:
    """Deviation from the OU long-run mean in stationary-std units."""
    if fit.half_life is None:
        raise FeatureError("OU fit has undefined half-life")
    sd = fit.stationary_std
    if sd is None or sd == 0:
        raise FeatureError("degenerate stationary std")
    return (np.asarray(prices, dtype=float) - fit.mu) / sd


class GmmDegenerateError(RuntimeError):
    """EM collapsed a component's variance even after restarts."""


class RegimeGMM:
    """Diagonal-covariance 3-regime Gaussian mixture, sklearn-style.

    Inputs are standardized on the fit window. After fitting, components
    are relabeled so Regime 0 has the lowest mean of feature 0 (bar
    return) and Regime 2 the highest; Regime 1 is the remainder.
    ``warm_start_`` says whether EM started from a given model rather than
    from the quantile partition.
    """

    def __init__(self, k: int = 3, seed: int = 0, max_iter: int = 500,
                 tol: float = 1e-6, restarts: int = 5):
        self.k = k
        self.seed = seed
        self.max_iter = max_iter
        self.tol = tol
        self.restarts = restarts

    def fit(self, X: np.ndarray, start: Optional["RegimeGMM"] = None) -> "RegimeGMM":
        """Fit on ``X``. EM starts from the fitted ``start`` model when one is
        given, mapped into this window's standardized units, and falls back
        to the cold restarts if that start degenerates."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise FeatureError("X must be 2-d")
        if len(X) < 50 * self.k:
            raise FeatureError(f"need >= {50 * self.k} observations, got {len(X)}")
        if not np.all(np.isfinite(X)):
            raise FeatureError("non-finite feature value")

        self.scale_mean_ = X.mean(axis=0)
        sd = X.std(axis=0)
        self.scale_std_ = np.where(sd > 0, sd, 1.0)
        Z = (X - self.scale_mean_) / self.scale_std_

        if start is not None:
            # the start's components in raw units, re-standardized on this window
            r = start.scale_std_ / self.scale_std_
            means = (start.scale_mean_ - self.scale_mean_) / self.scale_std_ + start.means_ * r
            try:
                self._em(Z, self.seed, start=(means, start.variances_ * r * r, start.weights_))
                self.warm_start_ = True
                return self
            except GmmDegenerateError:
                pass
        self.warm_start_ = False
        last_err: Exception | None = None
        for attempt in range(self.restarts):
            try:
                self._em(Z, self.seed + attempt, quantile_init=(attempt == 0))
                return self
            except GmmDegenerateError as exc:
                last_err = exc
        raise GmmDegenerateError(f"EM degenerate after {self.restarts} restarts") from last_err

    def _em(self, Z: np.ndarray, seed: int, quantile_init: bool = True,
            start: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None) -> None:
        """EM from ``start`` (means, variances, weights) when given, else from
        the quantile partition or ``seed``'s random rows."""
        n, d = Z.shape
        rng = np.random.default_rng(seed)
        weights = np.full(self.k, 1.0 / self.k)
        if start is not None:
            means, variances, weights = start
        elif quantile_init:
            # deterministic: hard-partition rows into feature-0 quantile
            # bands and start from their moments, so EM begins inside the
            # basin whose components are ordered by bar return (the
            # all-means-zero volume split is a worse local optimum that
            # broad shared-variance inits sometimes slide into)
            order_0 = np.argsort(Z[:, 0], kind="stable")
            parts = np.array_split(order_0, self.k)
            means = np.array([Z[p].mean(axis=0) for p in parts])
            variances = np.array([np.maximum(Z[p].var(axis=0), 1e-6)
                                  for p in parts])
        else:
            idx = rng.choice(n, size=self.k, replace=False)
            means = Z[idx].copy()
            variances = np.tile(np.maximum(Z.var(axis=0), 1e-6), (self.k, 1))

        # component-major: every pass runs on a k x n array or an n-long row.
        # No step goes through BLAS, so the bits do not depend on its kernel
        ZT = np.ascontiguousarray(Z.T)
        Z2T = ZT * ZT
        log_resp, resp = np.empty((self.k, n)), np.empty((self.k, n))
        s1, s2 = np.empty((self.k, d)), np.empty((self.k, d))
        history: list[float] = []
        converged = False
        prev_ll = -np.inf
        for _ in range(self.max_iter):
            self._log_prob(ZT, Z2T, means, variances, weights, log_resp, resp)
            ll_per = _logsumexp(log_resp.T)
            ll = float(np.sum(ll_per))
            np.exp(np.subtract(log_resp, ll_per, out=resp), out=resp)

            # pairwise sums along each n-long row; log_resp is the scratch
            nk = resp.sum(axis=1)
            if np.any(nk < 1e-10):
                raise GmmDegenerateError("empty component")
            for c in range(d):
                s1[:, c] = np.multiply(resp, ZT[c], out=log_resp).sum(axis=1)
                s2[:, c] = np.multiply(resp, Z2T[c], out=log_resp).sum(axis=1)
            means = s1 / nk[:, None]
            variances = s2 / nk[:, None] - means**2
            if np.any(variances < 1e-10):
                raise GmmDegenerateError("variance collapse")
            weights = nk / n

            history.append(ll)
            # scikit-learn's rule: the mean log-likelihood gains less than tol
            if (ll - prev_ll) / n < self.tol:
                converged = True
                break
            prev_ll = ll

        # fix regime semantics by mean of feature 0
        order = np.argsort(means[:, 0], kind="stable")
        self.means_ = means[order]
        self.variances_ = variances[order]
        self.weights_ = weights[order]
        self.label_order_ = order
        self.loglik_history_ = history
        self.n_iter_ = len(history)
        self.converged_ = converged

    @staticmethod
    def _log_prob(ZT: np.ndarray, Z2T: np.ndarray, means: np.ndarray, variances: np.ndarray,
                  weights: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """log(weight_j * N(z_i | j)) into the k x n ``out``, from the d x n
        ``ZT`` and its squares; ``scratch`` is a second k x n buffer."""
        # the quadratic form expanded, one feature at a time: const, then
        # + lin * z - half_inv * z^2 for each feature in order
        inv = 1.0 / variances
        const = (np.log(weights)
                 - 0.5 * np.sum(np.log(2 * np.pi * variances), axis=1)
                 - 0.5 * np.sum(means * means * inv, axis=1))
        lin, half_inv = means * inv, 0.5 * inv
        out[:] = const[:, None]
        for c in range(len(ZT)):
            out += np.multiply(lin[:, c, None], ZT[c], out=scratch)
            out -= np.multiply(half_inv[:, c, None], Z2T[c], out=scratch)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        Z = (np.asarray(X, dtype=float) - self.scale_mean_) / self.scale_std_
        ZT = np.ascontiguousarray(Z.T)
        log_p = np.empty((len(self.means_), len(Z)))
        self._log_prob(ZT, ZT * ZT, self.means_, self.variances_, self.weights_,
                       log_p, np.empty_like(log_p))
        log_p -= _logsumexp(log_p.T)
        return np.exp(log_p, out=log_p).T

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Posterior argmax regime labels; ties break toward the lower index."""
        return np.argmax(self.predict_proba(X), axis=1)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of an n x k array, one column at a time.

    numpy's axis-1 reductions over a few columns are slow; the column-wise
    maximum and the left-to-right ``+=`` give the same bits. The columns of
    the transpose of a k x n array are contiguous.
    """
    m = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(m, a[:, j], out=m)
    t = np.empty_like(m)
    s = np.exp(np.subtract(a[:, 0], m, out=t))
    for j in range(1, a.shape[1]):
        s += np.exp(np.subtract(a[:, j], m, out=t), out=t)
    return np.add(m, np.log(s, out=s), out=s)


def gmm_fit(features: np.ndarray, k: int = 3, seed: int = 0,
            start: Optional[RegimeGMM] = None) -> RegimeGMM:
    return RegimeGMM(k=k, seed=seed).fit(features, start=start)


def regime_features(ohlc: np.ndarray, volume: np.ndarray, vol_window: int = 50,
                    vz: Optional[np.ndarray] = None) -> np.ndarray:
    """Feature vector per bar: (bar return, bar range, volume z-score).

    Warm-up volume z-scores are filled with 0 so every bar gets a label;
    callers fitting a model should drop the first ``vol_window`` rows.
    ``vz`` defaults to ``volume_zscore(volume, vol_window)``.
    """
    o, h, lo, c = ohlc
    vz = volume_zscore(volume, vol_window) if vz is None else vz
    vz = np.where(np.isfinite(vz), vz, 0.0)
    return np.column_stack([c - o, h - lo, vz])


def markov_transition_prob(labels: Sequence[int], window: int, frm: int, to: int) -> np.ndarray:
    """Rolling empirical P(to | frm) from label pairs in bars i-window..i-1.

    NaN when warm-up or when no ``frm`` occurrence starts a pair inside
    the window.
    """
    if window < 10:
        raise FeatureError("window must be >= 10")
    lab = np.asarray(labels, dtype=int)
    n = len(lab)
    out = np.full(n, np.nan)
    if n < 2:
        return out
    starts = (lab[:-1] == frm).astype(float)
    hits = ((lab[:-1] == frm) & (lab[1:] == to)).astype(float)
    cs = np.concatenate(([0.0], np.cumsum(starts)))
    ch = np.concatenate(([0.0], np.cumsum(hits)))
    # for bar i >= window: pairs (j, j+1) fully inside [i-window, i-1]
    lo = np.arange(max(n - window, 0))
    hi = lo + window - 1
    denom = cs[hi] - cs[lo]
    np.divide(ch[hi] - ch[lo], denom, out=out[window:], where=denom > 0)
    return out
