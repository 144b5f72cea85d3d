"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload direct_small --seed 1 \\
        --seconds 20 --trace 0

Run it from the root of a checkout: it builds nothing, and runs the
program from ``src/``. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is the separate traced run that prints the per-layer
metrics. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import direct
import openloop
import stats as S
from probe import NOMINAL_PROBE_MS, ProbeHelper, cpu_ticks, steal_frac
from spec import (END_TO_END, HERE, PAPER_KERNELS, PER_LAYER, PROBE_SCALED,
                  SETUP_PROBES, SETUP_SAMPLES, SRC, WORKLOADS, child_env,
                  instr_metrics, peak_rss_mb)


def direct_setup_sample(workload: str, seed: int,
                        probe) -> tuple[float, list[float]]:
    """Seconds from spawning a fresh set-up child to its ready line,
    minus the time it spent building the benchmark's own catalogue;
    with the SETUP_PROBES probes taken on each side of it."""
    probes = [probe.measure() for _ in range(SETUP_PROBES)]
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "direct.py"), "--setup", workload,
         str(seed)], env=child_env(), capture_output=True, text=True,
        timeout=120, check=True).stdout
    probes += [probe.measure() for _ in range(SETUP_PROBES)]
    line = [ln for ln in out.splitlines() if ln.startswith("READY ")][-1]
    t_a, t_b, t_c = (float(x) for x in line.split()[1:])
    return (t_a - t0) + (t_c - t_b), probes


def ms(values_ns) -> np.ndarray:
    return np.asarray(values_ns, dtype=float) / 1e6


def loop_timing(res, scaled: bool) -> tuple[dict, np.ndarray, np.ndarray]:
    """The host-time metrics of one timed loop, scaled by the probe or
    not as the workload's PROBE_SCALED says, with the raw copies; also
    returns the per-window factors and the per-op latencies used."""
    f = np.asarray(S.window_factors(res.probes, NOMINAL_PROBE_MS))
    if not scaled:
        f = np.ones_like(f)
    raw = ms(res.lat_ns)
    lat = S.scale_by_window(raw, res.window, f)
    busy_raw = float(np.sum(res.window_ns)) / 1e9
    busy = float(np.dot(res.window_ns, f)) / 1e9
    instr = float(np.sum(res.window_instr))
    m = {
        "latency_p50_ms": S.pct(lat, 50),
        "latency_p90_ms": S.pct(lat, 90),
        "ops_per_s": raw.size / busy,
        "slo_rps": S.replay_slo_rps(lat)[0],
        "sim_minstr_per_s": instr / busy / 1e6,
        "raw.latency_p50_ms": S.pct(raw, 50),
        "raw.latency_p90_ms": S.pct(raw, 90),
        "raw.ops_per_s": raw.size / busy_raw,
        "raw.slo_rps": S.replay_slo_rps(raw)[0],
        "raw.sim_minstr_per_s": instr / busy_raw / 1e6,
        "host.probe_ms": statistics.median(res.probes),
        "host.probe_spread": S.spread(res.probes),
    }
    return m, f, lat


def closed_loop(args, probe) -> tuple[dict, int, int]:
    """direct_small, direct_large or strict_paper; returns (metrics,
    attempted, failed). With --trace 1 the first half of the time is an
    untraced loop (the raw copies and the overhead baseline come from
    it) and the second half the traced loop."""
    setups = [direct_setup_sample(args.workload, args.seed, probe)
              for _ in range(SETUP_SAMPLES)]
    w = direct.make(args.workload, args.seed)
    w.construct()
    w.warm_up()
    cache0 = _cache_counts(w)
    rng = np.random.default_rng(args.seed)
    seconds = args.seconds / 2 if args.trace else args.seconds
    ticks0 = cpu_ticks()
    base = direct.timed_loop(w, probe, seconds, rng)
    steal = steal_frac(ticks0, cpu_ticks())
    if args.trace:
        res = direct.timed_loop(w, probe, seconds, rng, traced=True)
    cache1 = _cache_counts(w)
    # before the count and paper passes, less the benchmark's own inputs
    rss_mb = peak_rss_mb() - w.catalogue_bytes() / 2**20

    count_entries = w.count_entries()
    first = w.count_pass(count_entries)
    if w.count_pass(count_entries) != first:
        raise AssertionError("two count passes differ")
    if args.trace and w.count_pass(count_entries, traced=True) != first:
        raise AssertionError("the traced pass differs from the untraced "
                             "one in results or counters")
    counts = _sum_counts(first)
    if args.workload == "strict_paper":
        paper_err = direct.paper_err_max(count_entries, first)
    else:
        pw = direct.make("strict_paper", direct.C.COUNT_SEED)
        pw.construct()
        paper_err = direct.paper_err_max(pw.entries, pw.count_pass(pw.entries))

    scaled = PROBE_SCALED[args.workload]
    m, _f, base_lat = loop_timing(base, scaled)
    attempted, failed = base.attempted, base.failed
    m.update({
        "success_frac": (attempted - failed) / attempted,
        "sim_instructions": sum(counts.values()),
        "paper_err_max": paper_err,
        "peak_rss_mb": rss_mb,
        "host.steal_frac": steal,
    })
    m["setup_s"], m["raw.setup_s"] = S.median_setup_s(setups,
                                                       NOMINAL_PROBE_MS)
    m.update(instr_metrics(counts))
    if cache0 is not None:
        hits, lookups = (b - a for a, b in zip(cache0[:2], cache1[:2]))
        m["engine.plan_cache.hit_rate"] = hits / lookups
        m["engine.plan_cache.compiles"] = cache1[2]
    if not args.trace:
        return m, attempted, failed

    attempted += res.attempted
    failed += res.failed
    traced, f, lat = loop_timing(res, scaled)
    m["trace.latency_ratio"] = traced["latency_p50_ms"] / m["latency_p50_ms"]
    per_op = {k: S.scale_by_window(ms(v), res.window, f)
              for k, v in res.layers.items()}
    total = float(lat.sum())
    for layer, key in (("svm.io", "io"), ("engine.capture", "capture"),
                       ("engine.lookup", "lookup"),
                       ("engine.execute", "execute")):
        if key in per_op:
            m[f"{layer}.p50_ms"] = S.pct(per_op[key], 50)
            m[f"{layer}.share"] = float(per_op[key].sum()) / total
    instr_ops = np.asarray(res.instr, dtype=float)
    m["rvv.host_ns_per_instr"] = (float(per_op["execute"].sum()) * 1e6
                                  / instr_ops.sum())
    kernels = np.asarray(res.kernel)
    for k in (*PAPER_KERNELS, "split_radix_sort"):
        sel = kernels == k
        if not sel.any():
            continue
        name = ("algorithms.split_radix_sort.p50_ms"
                if k == "split_radix_sort" else f"svm.{k}.p50_ms")
        m[name] = S.pct(per_op["execute"][sel], 50)
        m[f"rvv.host_ns_per_instr.{k}"] = (
            float(per_op["execute"][sel].sum()) * 1e6 / instr_ops[sel].sum())
    return m, attempted, failed


def _cache_counts(w):
    st = w.cache_stats()
    return None if st is None else (st.hits, st.lookups, st.compiles)


def _sum_counts(records) -> dict:
    total: dict[str, int] = {}
    for _got, _valid, delta in records:
        for k, v in delta.items():
            total[k] = total.get(k, 0) + v
    return total


def emit(metrics: dict, trace: int, attempted: int, failed: int) -> None:
    """Print the result line. Per-layer metrics a workload does not
    measure read 0: it spends no time and does no work in that layer.
    Every measured value not in the selected set goes to stderr."""
    units = PER_LAYER if trace else END_TO_END
    if not trace:
        missing = set(END_TO_END) - set(metrics)
        if missing:
            raise AssertionError(f"metrics not measured: {sorted(missing)}")
    doc = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics.get(k, 0.0)), "unit": units[k]}
                    for k in units},
    }
    rest = {k: round(float(v), 6) for k, v in metrics.items()
            if k not in units}
    print(json.dumps(rest), file=sys.stderr)
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program sources at {SRC / 'repro'}; run from "
              "the root of a repro checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    with ProbeHelper() as probe:
        if args.workload == "serve_open":
            metrics, attempted, failed = openloop.run(args, probe)
        else:
            metrics, attempted, failed = closed_loop(args, probe)
    emit(metrics, args.trace, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
