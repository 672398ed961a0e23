"""X11-style seasonal adjustment (additive + multiplicative), no
external binary.

The reference shells out to the Census x13as Fortran binary for
X-11/SEATS (/root/reference/R/x11.R:19-84, R/x13arimaseats.R:33-74); a
Ray-native engine cannot, so this implements the published X-11 core
iteration (Shiskin, Young & Musgrave 1967; Ladiray & Quenneville 2001):

  1. initial trend: centered MA(period) (half-weight ends, even period)
  2. S1: 3x3 moving average over each phase's subseries, recentred
  3. improved trend: Henderson-13 filter of the deseasonalized series
  4. S2: 3x5 moving average over phase subseries, recentred
  5. remainder = y - trend - seasonal  (multiplicative: y / (T*S))

End handling follows the published method:
- Henderson trend ends use MUSGRAVE asymmetric filters (Musgrave 1964;
  Ladiray & Quenneville 2001 §3.3) derived from the minimum-revision
  criterion with the standard I/C ratio R=3.5 for the 13-term filter:
    u_i = w_i + A/m + c1*(i - i_bar),
    c1  = b2*(B - A*i_bar) / (1 + b2*V),  b2 = 4/(pi*R^2)
  with A/B the lost weight/moment, i_bar/V the mean/variance of the
  kept support. The symmetric case (q = h) reproduces w exactly.
- 3x3 / 3x5 seasonal MA ends use the published X-11 asymmetric weight
  tables (Ladiray & Quenneville 2001, §3.2).
- The initial centered-MA ends stay truncated/re-normalized (X-11's B1
  step leaves them undefined; later iterations refine them).

Exposed through stages.decompose.x11_decomposition.
"""

from __future__ import annotations

import math

import numpy as np

# Henderson 13-term symmetric weights (standard published values)
_H13 = np.array([
    -0.01935, -0.02786, 0.0, 0.06549, 0.14736, 0.21434, 0.24006,
    0.21434, 0.14736, 0.06549, 0.0, -0.02786, -0.01935,
])
_H13 = _H13 / _H13.sum()


def musgrave_weights(w: np.ndarray, q: int, r: float) -> np.ndarray:
    """Asymmetric Musgrave end weights for a symmetric filter ``w``
    (length 2h+1) when only ``q`` future points are available: support
    i = -h..q. Minimum-revision solution for a linear trend + noise with
    slope/noise ratio R (Musgrave 1964; Ladiray-Quenneville 2001 §3.3):

      d_i = u_i - w_i is linear in i:  u_i = w_i + A/m + c1*(i - i_bar)
      A = sum of lost weights, B = sum of lost i*w_i,
      c1 = b2*(B - A*i_bar)/(1 + b2*V), b2 = 4/(pi*R^2),
      i_bar/V = mean / centered-square-sum of the kept support.
    """
    h = len(w) // 2
    if q >= h:
        return w.copy()
    kept = np.arange(-h, q + 1, dtype=np.float64)
    m = len(kept)
    A = float(w[h + q + 1:].sum())
    B = float(np.dot(np.arange(q + 1, h + 1, dtype=np.float64), w[h + q + 1:]))
    i_bar = kept.mean()
    V = float(((kept - i_bar) ** 2).sum())
    b2 = 4.0 / (math.pi * r * r)
    c1 = b2 * (B - A * i_bar) / (1.0 + b2 * V)
    return w[: h + q + 1] + A / m + c1 * (kept - i_bar)


def _seq_dot(xs: np.ndarray, ws: np.ndarray) -> float:
    """Strictly left-to-right weighted sum: ((w0*x0 + w1*x1) + w2*x2)...
    — the deterministic evaluation tree mirrored term-for-term by the
    DuckDB x11 oracle's literal-coefficient chains (BLAS np.dot has an
    unspecified summation order and is NOT SQL-reproducible)."""
    s = float(ws[0]) * float(xs[0])
    for i in range(1, len(ws)):
        s = s + float(ws[i]) * float(xs[i])
    return s


def _interior_taps(x: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """Fill out[h:n-h] with the symmetric MA via ascending-tap
    accumulation (acc = w0*x[..]; acc += wk*x[..]), vectorized over t —
    per-element order identical to _seq_dot / the SQL chain."""
    n = len(x)
    h = len(w) // 2
    m = n - 2 * h
    acc = w[0] * x[0:m]
    for k in range(1, 2 * h + 1):
        acc = acc + w[k] * x[k:k + m]
    out[h:n - h] = acc


def _musgrave_filter(x: np.ndarray, w: np.ndarray, r: float) -> np.ndarray:
    """Symmetric weighted MA with Musgrave asymmetric end filters
    (ascending-tap interior; the 2h edge points use the minimum-revision
    weights; series shorter than the filter fall back to truncated
    re-normalized weights)."""
    n = len(x)
    h = len(w) // 2
    if n < len(w):
        return _sym_filter(x, w)  # every point is a double-sided edge
    out = np.empty(n)
    _interior_taps(x, w, out)
    for t in range(h):
        # end edge at n-1-t: q = t future points -> support i = -h..q
        u = musgrave_weights(w, t, r)
        out[n - 1 - t] = _seq_dot(x[n - 1 - t - h:], u)
        # start edge at t: mirrored support i = -q..h
        out[t] = _seq_dot(x[: t + h + 1], u[::-1])
    return out


def _sym_filter(x: np.ndarray, w: np.ndarray,
                end_weights: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """Symmetric weighted MA. Edges use ``end_weights[q]`` (published
    asymmetric weights over the last h+q+1 points, ordered outward-last)
    when provided, else truncated re-normalized symmetric weights."""
    n = len(x)
    h = len(w) // 2
    out = np.empty(n)
    if n >= len(w):
        _interior_taps(x, w, out)
    for t in range(n):
        if h <= t < n - h and n >= len(w):
            continue  # interior handled by the tap accumulation
        q_start = t           # points available before t
        q_end = n - 1 - t     # points available after t
        if end_weights is not None and min(q_start, q_end) in end_weights \
                and max(q_start, q_end) >= h:
            if q_end < h:   # end edge: weights run ...interior, outward
                ww = end_weights[q_end]
                out[t] = _seq_dot(x[t - h: t + q_end + 1], ww)
            else:           # start edge: mirrored
                ww = end_weights[q_start][::-1]
                out[t] = _seq_dot(x[t - q_start: t + h + 1], ww)
            continue
        lo, hi = max(0, t - h), min(n, t + h + 1)
        ww = w[h - (t - lo): h + (hi - t)]
        out[t] = _seq_dot(x[lo:hi], ww) / ww.sum()
    return out


def _centered_ma(x: np.ndarray, period: int) -> np.ndarray:
    if period % 2 == 0:
        w = np.concatenate([[0.5], np.ones(period - 1), [0.5]]) / period
    else:
        w = np.ones(period) / period
    return _sym_filter(x, w)


def _phase_ma(detr: np.ndarray, period: int, weights: np.ndarray,
              end_weights: dict[int, np.ndarray],
              multiplicative: bool = False) -> np.ndarray:
    """Apply a weighted MA along each phase subseries (published X-11
    asymmetric end weights), recentre per cycle (divide for the
    multiplicative mode so the seasonal averages to ~1)."""
    n = len(detr)
    seas = np.empty(n)
    for p in range(period):
        idx = np.arange(p, n, period)
        seas[idx] = _sym_filter(detr[idx], weights, end_weights)
    centre = _centered_ma(seas, period)
    return seas / centre if multiplicative else seas - centre


_W33 = np.array([1.0, 2.0, 3.0, 2.0, 1.0]) / 9.0
_W35 = np.array([1.0, 2.0, 3.0, 3.0, 3.0, 2.0, 1.0]) / 15.0

# Published X-11 asymmetric end weights for the seasonal moving averages
# (Ladiray & Quenneville 2001, §3.2), keyed by q = available future
# points, ordered oldest-point-first.
_END33 = {
    0: np.array([5.0, 11.0, 11.0]) / 27.0,
    1: np.array([3.0, 7.0, 10.0, 7.0]) / 27.0,
}
_END35 = {
    0: np.array([9.0, 17.0, 17.0, 17.0]) / 60.0,
    1: np.array([4.0, 11.0, 15.0, 15.0, 15.0]) / 60.0,
    2: np.array([4.0, 8.0, 13.0, 13.0, 13.0, 9.0]) / 60.0,
}

_H13_R = 3.5  # standard I/C ratio for the Musgrave ends of Henderson-13


def x11_decompose(y: np.ndarray, period: int,
                  type_: str = "additive") -> dict[str, np.ndarray]:
    """X11-style decomposition -> trend/seasonal/remainder/season_adjust.

    additive:        y = T + S + R
    multiplicative:  y = T * S * R  (requires strictly positive y)
    """
    y = np.asarray(y, dtype=np.float64)
    if np.isnan(y).any():
        raise ValueError("x11 requires a complete (gap-filled) series")
    if len(y) < 2 * period:
        raise ValueError("series shorter than two periods")
    if type_ == "multiplicative":
        if (y <= 0).any():
            raise ValueError("multiplicative X11 requires positive values")
        t1 = _centered_ma(y, period)
        s1 = _phase_ma(y / t1, period, _W33, _END33, multiplicative=True)
        t2 = _musgrave_filter(y / s1, _H13, _H13_R)
        s2 = _phase_ma(y / t2, period, _W35, _END35, multiplicative=True)
        return {
            "trend": t2,
            "seasonal": s2,
            "remainder": y / (t2 * s2),
            "season_adjust": y / s2,
        }
    t1 = _centered_ma(y, period)
    s1 = _phase_ma(y - t1, period, _W33, _END33)
    t2 = _musgrave_filter(y - s1, _H13, _H13_R)
    s2 = _phase_ma(y - t2, period, _W35, _END35)
    return {
        "trend": t2,
        "seasonal": s2,
        "remainder": y - t2 - s2,
        "season_adjust": y - s2,
    }
