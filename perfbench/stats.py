"""The benchmark's arithmetic: percentiles, probe scaling, slo_rps.

Pure functions over plain numbers, tested in ``tests/``.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

#: The latency limit that defines ``slo_rps``: p90 at most this.
SLO_P90_MS = 50.0


def pct(values, q: float) -> float:
    """The q-th percentile (0..100), linear interpolation."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


# ---------------------------------------------------------------------------
# host-speed probe scaling
# ---------------------------------------------------------------------------


#: Probes on each side of a window whose median sets its factor. One
#: probe is noisy (the host's speed swings within tens of ms); the
#: median of a few dozen tracks the drift over seconds that moves a
#: whole run.
PROBE_REACH = 24


def window_factors(probes_ms, nominal_ms: float,
                   reach: int = PROBE_REACH) -> list[float]:
    """One scale factor per window between consecutive probes.

    Window ``w`` runs from probe ``w`` to probe ``w + 1``; its factor
    is ``nominal_ms`` over the median of the ``2 * reach`` probes
    around it (``w - reach + 1`` to ``w + reach``, clipped at the
    ends). A slow host makes probes slow, so its factor is below 1 and
    shrinks the host times measured in that window back to
    reference-host units."""
    probes = list(probes_ms)
    if len(probes) < 2:
        raise ValueError("need a probe before and after the measured work")
    return [nominal_ms / statistics.median(
                probes[max(0, w - reach + 1):w + reach + 1])
            for w in range(len(probes) - 1)]


def median_setup_s(samples, nominal_ms: float) -> tuple[float, float]:
    """The median of set-up samples ``(seconds, probes_ms)``, each
    scaled by ``nominal_ms`` over the median of its own probes, and the
    median of the raw seconds."""
    return (statistics.median(t * nominal_ms / statistics.median(p)
                              for t, p in samples),
            statistics.median(t for t, _p in samples))


def scale_by_window(values, windows, factors) -> np.ndarray:
    """``values[i] * factors[windows[i]]`` as floats."""
    return (np.asarray(values, dtype=float)
            * np.asarray(factors, dtype=float)[np.asarray(windows)])


def spread(values) -> float:
    """Inter-quartile range over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


# ---------------------------------------------------------------------------
# slo_rps
# ---------------------------------------------------------------------------


def slo_rps(rates, p90s_ms, backlog, limit_ms: float = SLO_P90_MS
            ) -> tuple[float, bool]:
    """The highest offered rate meeting the limit, and whether it is
    capped at the top measured rate.

    ``rates`` ascend; a rate passes when its p90 is at most
    ``limit_ms`` and its backlog did not grow. Between the last passing
    rate and the first failing one, the limit is found by linear
    interpolation of log(p90) over the rate. When every rate passes the
    result is the top rate, capped. When the lowest rate already fails
    the result is that rate scaled down by how far it overshoots."""
    rates = [float(r) for r in rates]
    if not rates or len(rates) != len(p90s_ms) or len(rates) != len(backlog):
        raise ValueError("rates, p90s and backlog flags must align")
    if any(b <= a for a, b in zip(rates, rates[1:])):
        raise ValueError("rates must ascend")
    for i, (r, p, grew) in enumerate(zip(rates, p90s_ms, backlog)):
        if p <= limit_ms and not grew:
            continue
        if i == 0:
            return r * min(1.0, limit_ms / p), False
        r0, p0 = rates[i - 1], p90s_ms[i - 1]
        if p <= p0 or p <= limit_ms:
            # failed on backlog alone: the limit lies at the last pass
            return r0, False
        frac = (math.log(limit_ms) - math.log(p0)) / (math.log(p) - math.log(p0))
        return r0 + frac * (r - r0), False
    return rates[-1], True


def scaled_slo_rps(rates, p90s_ms, backlog, lat_factors,
                   rate_factor: float) -> tuple[float, bool]:
    """:func:`slo_rps` in reference-host units. Each phase's p90 is
    scaled by that phase's own factor. The rate axis is scaled by one
    factor for the whole sweep: on a host ``1 / f`` times slower every
    service time stretches by that much, so rate ``r`` there is rate
    ``r / f`` on the reference host. One factor keeps the rates in the
    order they were offered, however much the phases' factors differ."""
    return slo_rps([r / rate_factor for r in rates],
                   [p * f for p, f in zip(p90s_ms, lat_factors)], backlog)


def backlog_grew(sched_s, latency_ms) -> bool:
    """True when latency trends up through the phase: the median of
    its last third exceeds twice that of its first third plus 10 ms
    (a stable queue keeps the two alike)."""
    order = np.argsort(np.asarray(sched_s))
    lat = np.asarray(latency_ms, dtype=float)[order]
    k = len(lat) // 3
    if k == 0:
        return False
    return float(np.median(lat[-k:])) > 2 * float(np.median(lat[:k])) + 10


def fifo_sojourn_ms(arrivals_s, service_ms) -> np.ndarray:
    """Per-request time in a single-server FIFO queue: Lindley's
    recursion ``wait[i] = max(0, wait[i-1] + service[i-1] - gap[i])``,
    solved as a running minimum of its partial sums."""
    a = np.asarray(arrivals_s, dtype=float) * 1e3
    s = np.asarray(service_ms, dtype=float)
    u = np.zeros_like(s)
    u[1:] = s[:-1] - np.diff(a)
    c = np.cumsum(u)
    return c - np.minimum.accumulate(c) + s


#: Requests in the replayed schedule (the measured op times repeat to
#: fill it), and the fixed seed of its order and arrival gaps: only the
#: measured op times differ from run to run.
REPLAY_REQUESTS = 50_000
REPLAY_SEED = 0


def replay_slo_rps(service_ms, limit_ms: float = SLO_P90_MS
                   ) -> tuple[float, bool]:
    """``slo_rps`` of one in-process caller thread, from its measured
    op times: Poisson arrivals at a geometric ladder of rates are
    replayed through the ops in a fixed shuffled order. One thread
    serves calls one at a time and an op's time does not depend on the
    queue, so this FIFO replay is the open loop such a caller would
    see. The shuffle keeps the host's slow spells, which cluster slow
    ops in measured order, out of the result."""
    measured = np.asarray(service_ms, dtype=float)
    rng = np.random.default_rng(REPLAY_SEED)
    service = rng.permutation(
        np.resize(measured, max(REPLAY_REQUESTS, measured.size)))
    capacity = 1e3 / float(measured.mean())
    gaps = rng.exponential(1.0, service.size)
    rates = capacity * np.geomspace(0.05, 0.98, 40)
    p90s, grew = [], []
    for r in rates:
        arrivals = np.cumsum(gaps) / r
        soj = fifo_sojourn_ms(arrivals, service)
        p90s.append(pct(soj, 90))
        grew.append(backlog_grew(arrivals, soj))
    return slo_rps(rates, p90s, grew, limit_ms)
