"""What the benchmark reports, and the program processes' environment.

The metric tables here are the ones ``BENCHMARK.json`` lists; the
tests check that the two agree.
"""

from __future__ import annotations

import os
from pathlib import Path

from catalogue import PAPER_KERNELS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("direct_small", "direct_large", "serve_open", "strict_paper")
SETUP_SAMPLES = 5
#: Probes taken on each side of every set-up sample (serve takes them
#: all before the daemon's spawn); each sample is scaled by their median.
SETUP_PROBES = 3

#: Whether host times are scaled by the probe, per workload. Kept only
#: where it narrowed the ten-run spread on the reference host (see
#: README.md, "Raw and probe-scaled numbers").
PROBE_SCALED = {"direct_small": True, "direct_large": True,
                "strict_paper": True, "serve_open": False}

END_TO_END = {
    "latency_p50_ms": "ms", "latency_p90_ms": "ms", "ops_per_s": "1/s",
    "slo_rps": "req/s", "success_frac": "ratio", "sim_instructions": "count",
    "sim_minstr_per_s": "Minstr/s", "paper_err_max": "ratio",
    "peak_rss_mb": "MB", "setup_s": "s",
}

#: The simulator's counter categories (``repro.rvv.counters.Cat``); a
#: run fails if the program reports one not listed here.
INSTR_CATS = ("vconfig", "vmem", "vmem_indexed", "varith", "vmask", "vperm",
              "vreduce", "scalar", "spill", "alloc")

PER_LAYER = {
    **{f"{layer}.p50_ms": "ms" for layer in
       ("svm.io", "engine.capture", "engine.lookup", "engine.execute")},
    **{f"{layer}.share": "ratio" for layer in
       ("svm.io", "engine.capture", "engine.lookup", "engine.execute")},
    "rvv.host_ns_per_instr": "ns",
    "engine.plan_cache.hit_rate": "ratio",
    "engine.plan_cache.compiles": "count",
    **{f"svm.{k}.p50_ms": "ms" for k in PAPER_KERNELS},
    "algorithms.split_radix_sort.p50_ms": "ms",
    **{f"rvv.host_ns_per_instr.{k}": "ns"
       for k in (*PAPER_KERNELS, "split_radix_sort")},
    **{f"rvv.instr.{c}": "count" for c in INSTR_CATS},
    **{f"serve.{s}.p50_ms": "ms"
       for s in ("coalesce", "queue", "execute", "wire")},
    **{f"serve.{kind}.p90_ms": "ms" for kind in ("single", "burst")},
    "serve.rows_per_flush": "rows",
    **{f"serve.path.{p}_frac": "ratio" for p in ("2d", "ragged", "loop")},
    "serve.plan_cache.hit_frac": "ratio",
    "serve.protocol.decode_us": "us",
    "serve.protocol.encode_us": "us",
    "serve.rejected": "count",
    "serve.slo_capped": "flag",
    "loadgen.late.p90_ms": "ms",
    "host.probe_ms": "ms",
    "host.probe_spread": "ratio",
    "host.steal_frac": "ratio",
    "trace.latency_ratio": "ratio",
    "raw.latency_p50_ms": "ms",
    "raw.latency_p90_ms": "ms",
    "raw.ops_per_s": "1/s",
    "raw.sim_minstr_per_s": "Minstr/s",
    "raw.slo_rps": "req/s",
    "raw.setup_s": "s",
}


def instr_metrics(counts: dict) -> dict:
    """``rvv.instr.<category>`` for every category, from summed
    counter deltas keyed by category name."""
    unknown = set(counts) - set(INSTR_CATS)
    if unknown:
        raise AssertionError(f"counter categories the benchmark does not "
                             f"list: {sorted(unknown)}")
    return {f"rvv.instr.{c}": counts.get(c, 0) for c in INSTR_CATS}


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc status")


def child_env() -> dict:
    """The environment for program processes: the checkout's ``src`` on
    the path and no REPRO_* settings, so only the generated inputs
    reach the program."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env
