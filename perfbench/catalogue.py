"""Seeded request catalogues, open-loop schedules and NumPy oracles.

Nothing here imports ``repro``: the catalogues are the benchmark's
inputs and the models are independent re-statements of what each
pipeline computes, so a defect in the program cannot also hide in
its own reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Served / captured pipelines every direct and serve workload draws from.
PIPELINES = ("chain_scan", "filter", "radix_pack")

#: Values fit in 16 bits, as in the repo's serve smoke test; the filter
#: window and the radix_pack keep-threshold then each keep about half.
VALUE_BITS = 16

#: Seed of the fixed catalogue that ``sim_instructions`` and the
#: ``rvv.instr.*`` counts are taken over. It never changes with
#: ``--seed``, so those counts repeat exactly on every run.
COUNT_SEED = 0x5EED

# ---------------------------------------------------------------------------
# NumPy models (the correctness oracle)
# ---------------------------------------------------------------------------


def model_chain_scan(d: np.ndarray) -> np.ndarray:
    """p_add 10, p_mul 3, p_xor 5, then an inclusive plus-scan, all
    wrapping at 32 bits."""
    x = (d.astype(np.uint64) + 10) * 3 ^ 5
    return np.cumsum(x, dtype=np.uint64).astype(np.uint32)


def model_filter(d: np.ndarray) -> np.ndarray:
    """The defined prefix of the filter pipeline: values in
    [2^14, 3 * 2^14), in input order."""
    return d[(d >= 2**14) & (d < 3 * 2**14)]


def model_radix_pack(d: np.ndarray) -> np.ndarray:
    """The defined prefix of radix_pack: a stable partition by bit 0
    (zeros first), then the values below 2^15."""
    part = np.concatenate([d[(d & 1) == 0], d[(d & 1) == 1]])
    return part[part < 2**15]


MODELS = {
    "chain_scan": model_chain_scan,
    "filter": model_filter,
    "radix_pack": model_radix_pack,
}


def model_seg_plus_scan(d: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Inclusive plus-scan restarted at every lane whose head flag is
    set, wrapping at 32 bits."""
    csum = np.cumsum(d, dtype=np.uint64)
    head = np.maximum.accumulate(np.where(flags != 0, np.arange(d.size), 0))
    before = np.where(head > 0, csum[np.maximum(head - 1, 0)], 0)
    return (csum - before).astype(np.uint32)


def paper_expected(kernel: str, data: np.ndarray,
                   flags: np.ndarray | None) -> np.ndarray:
    """The result of one paper cell's kernel on ``data``."""
    if kernel == "p_add":
        return (data.astype(np.uint64) + PADD_SCALAR).astype(np.uint32)
    if kernel == "plus_scan":
        return np.cumsum(data, dtype=np.uint64).astype(np.uint32)
    if kernel == "seg_plus_scan":
        return model_seg_plus_scan(data, flags)
    if kernel == "split_radix_sort":
        return np.sort(data)
    raise KeyError(kernel)


# ---------------------------------------------------------------------------
# direct workloads: n log-uniform, stratified
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectEntry:
    """One catalogue op: a pipeline over one input array."""

    pipeline: str
    data: np.ndarray
    expected: np.ndarray


def stratified_log_uniform(rng: np.random.Generator, lo: int, hi: int,
                           k: int) -> np.ndarray:
    """``k`` integers log-uniform on [lo, hi), one per equal-width
    stratum of log(n). Stratifying keeps the size mix (and so the
    latency percentiles) nearly identical from seed to seed while
    every n is still drawn at random."""
    u = (np.arange(k) + rng.random(k)) / k
    n = np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
    return np.clip(n.astype(np.int64), lo, hi - 1)


def direct_catalogue(seed: int, lo: int, hi: int,
                     per_pipeline: int) -> list[DirectEntry]:
    """``per_pipeline`` ops of each pipeline with n log-uniform on
    [lo, hi) and uniform 16-bit data, all from ``seed``."""
    rng = np.random.default_rng(seed)
    out = []
    for name in PIPELINES:
        for n in stratified_log_uniform(rng, lo, hi, per_pipeline):
            d = rng.integers(0, 2**VALUE_BITS, int(n), dtype=np.uint32)
            out.append(DirectEntry(name, d, MODELS[name](d)))
    return out


# ---------------------------------------------------------------------------
# strict_paper: the paper's own cells
# ---------------------------------------------------------------------------

PADD_SCALAR = 12345
FLAG_DENSITY = 0.1
PAPER_KERNELS = ("p_add", "plus_scan", "seg_plus_scan")
PAPER_NS = (100, 1000)
PAPER_VLENS = (128, 256, 512, 1024)
PAPER_LMULS = (1, 2, 4, 8)
RADIX_CELL = ("split_radix_sort", 100, 1024, 1)


@dataclass(frozen=True)
class PaperCell:
    """One (kernel, N, VLEN, LMUL) cell with its inputs and result."""

    kernel: str
    n: int
    vlen: int
    lmul: int
    data: np.ndarray
    flags: np.ndarray | None
    expected: np.ndarray


def paper_cells(seed: int) -> list[PaperCell]:
    """Every strict_paper cell: the three primitives over N x VLEN x
    LMUL, plus split radix sort at N=100, VLEN=1024."""
    rng = np.random.default_rng(seed)
    keys = [(k, n, v, lm) for k in PAPER_KERNELS for n in PAPER_NS
            for v in PAPER_VLENS for lm in PAPER_LMULS]
    keys.append(RADIX_CELL)
    cells = []
    for kernel, n, vlen, lmul in keys:
        hi = 2**32 if kernel == "split_radix_sort" else 2**VALUE_BITS
        data = rng.integers(0, hi, n, dtype=np.uint32)
        flags = None
        if kernel == "seg_plus_scan":
            flags = (rng.random(n) < FLAG_DENSITY).astype(np.uint32)
        cells.append(PaperCell(kernel, n, vlen, lmul, data, flags,
                               paper_expected(kernel, data, flags)))
    return cells


# ---------------------------------------------------------------------------
# serve_open: shapes, stratified arrival mix, Poisson schedule
# ---------------------------------------------------------------------------

SERVE_NS = (64, 512, 4096)
SERVE_SHAPES = tuple((p, n) for p in PIPELINES for n in SERVE_NS)
BURST = 8
#: Single requests of every shape in one block. A block also holds one
#: burst of BURST same-shape requests, so bursts carry 8 of its 152
#: requests (about 5%): a burst's rows share one latency, and the
#: gated p90 must rest on hundreds of independent arrivals, not on the
#: few bursts a phase holds. ``serve.burst.p90_ms`` reports the bursts.
SINGLES_PER_SHAPE = 16
#: Arrivals in one block: every shape's singles and one burst.
BLOCK = SINGLES_PER_SHAPE * len(SERVE_SHAPES) + 1
BLOCK_REQS = SINGLES_PER_SHAPE * len(SERVE_SHAPES) + BURST
REQS_PER_ARRIVAL = BLOCK_REQS / BLOCK
#: The shape of each block's burst, in turn. Each run of three blocks
#: from the first bursts every pipeline once and every n once, so a
#: three-block phase (the nominal one) has the same mix on every seed.
BURST_CYCLE = tuple(SERVE_SHAPES.index((PIPELINES[i % 3],
                                        SERVE_NS[(i + i // 3) % 3]))
                    for i in range(len(SERVE_SHAPES)))
#: Distinct inputs per shape; requests pick among them at random.
INPUTS_PER_SHAPE = 4


@dataclass(frozen=True)
class ServeEntry:
    pipeline: str
    n: int
    data: np.ndarray
    expected: np.ndarray
    #: the execute frame without its leading ``{`` (the id goes there)
    body: bytes


def serve_catalogue(seed: int) -> list[ServeEntry]:
    """INPUTS_PER_SHAPE inputs for every serve shape, in shape order."""
    rng = np.random.default_rng(seed)
    out = []
    for name, n in SERVE_SHAPES:
        for _ in range(INPUTS_PER_SHAPE):
            d = rng.integers(0, 2**VALUE_BITS, n, dtype=np.uint32)
            body = json.dumps({"op": "execute", "pipeline": name,
                               "data": d.tolist()},
                              separators=(",", ":")).encode()[1:]
            out.append(ServeEntry(name, n, d, MODELS[name](d), body))
    return out


def frame(entry: ServeEntry, req_id: int) -> bytes:
    """One NDJSON execute frame for ``entry`` with id ``req_id``."""
    return b'{"id":%d,' % req_id + entry.body + b"\n"


@dataclass(frozen=True)
class Arrival:
    at: float                    #: seconds after the phase starts
    entries: tuple[int, ...]     #: catalogue indices, one per request


def blocks_for(rate_rps: float, seconds: float) -> int:
    """Whole blocks that fill about ``seconds`` at ``rate_rps``."""
    arrivals = seconds * rate_rps / REQS_PER_ARRIVAL
    return max(1, round(arrivals / BLOCK))


def poisson_schedule(seed: int, rate_rps: float,
                     blocks: int) -> list[Arrival]:
    """``blocks`` whole blocks of arrivals offering ``rate_rps``
    requests per second on average. Gaps are exponential; each block
    holds every shape's singles and one burst in a seeded order, so the
    request mix, and with it the latency percentiles, does not drift
    with the seed. The burst's shape follows BURST_CYCLE."""
    rng = np.random.default_rng(seed)
    arrival_rate = rate_rps / REQS_PER_ARRIVAL
    singles = [(s, 1) for s in range(len(SERVE_SHAPES))
               for _ in range(SINGLES_PER_SHAPE)]
    out: list[Arrival] = []
    t = 0.0
    for b in range(blocks):
        kinds = singles + [(BURST_CYCLE[b % len(BURST_CYCLE)], BURST)]
        for i in rng.permutation(len(kinds)):
            t += rng.exponential(1.0 / arrival_rate)
            shape, count = kinds[i]
            picks = shape * INPUTS_PER_SHAPE + rng.integers(
                0, INPUTS_PER_SHAPE, count)
            out.append(Arrival(t, tuple(int(p) for p in picks)))
    return out


def check_output(expected: np.ndarray, got: np.ndarray,
                 valid: int | None) -> bool:
    """True when ``got`` holds ``expected``: on the whole array, or,
    for pack pipelines, on the defined prefix of length ``valid``."""
    if valid is not None:
        if valid != expected.size or got.size < valid:
            return False
        got = got[:valid]
    return got.size == expected.size and np.array_equal(got, expected)
