"""The closed-loop workloads, driven in this process through the public
library API: ``direct_small``, ``direct_large`` and ``strict_paper``.

One client calls ops back to back. Every ``probe_every`` ops it pauses
while the probe helper measures host speed. The untraced loop times
each op as one block; the traced loop calls the public pieces that
``svm.lazy()`` composes (``PlanBuilder``, ``Engine.fused_for``,
``repro.engine.execute``) and times each.

Run as a script it is a set-up child: it imports, constructs and warms
up one workload, prints its ``READY`` line and exits, so ``setup_s``
covers a fresh process each time.

    python3 perfbench/direct.py --setup direct_small 1
"""

from __future__ import annotations

import time

import numpy as np

T_START = time.monotonic()

import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import catalogue as C  # noqa: E402

#: Per-workload catalogue shape and probe cadence.
DIRECT = {
    "direct_small": {"lo": 32, "hi": 2048, "per_pipeline": 64},
    "direct_large": {"lo": 2**15, "hi": 2**18, "per_pipeline": 16},
}
PROBE_EVERY = {"direct_small": 8, "direct_large": 8, "strict_paper": 64}
#: The count catalogue is smaller than the timed one: it only has to
#: cover every pipeline and size regime once.
COUNT_PER_PIPELINE = 4


def ns() -> int:
    return time.perf_counter_ns()


# ---------------------------------------------------------------------------
# the ops (capture bodies mirror repro.serve.protocol's registered
# pipelines, and also return pack's kept-count future)
# ---------------------------------------------------------------------------


def pipe_chain_scan(lz, d):
    lz.p_add(d, 10)
    lz.p_mul(d, 3)
    lz.p_xor(d, 5)
    lz.plus_scan(d)
    return d, None


def pipe_filter(lz, d):
    lt_hi = lz.p_lt(d, 3 * 2**14)
    ge_lo = lz.p_ge(d, 2**14)
    lz.p_mul(ge_lo, lt_hi)
    out, kept = lz.pack(d, ge_lo)
    lz.free(ge_lo)
    lz.free(lt_hi)
    return out, kept


def pipe_radix_pack(lz, d):
    flags = lz.get_flags(d, 0)
    part, _zeros = lz.split(d, flags)
    keep = lz.p_lt(part, 2**15)
    out, kept = lz.pack(part, keep)
    lz.free(keep)
    lz.free(part)
    lz.free(flags)
    return out, kept


PIPES = {"chain_scan": pipe_chain_scan, "filter": pipe_filter,
         "radix_pack": pipe_radix_pack}


@dataclass
class OpResult:
    """One op's output plus, in the traced loop, its layer split."""

    got: np.ndarray
    valid: int | None
    layers: dict = field(default_factory=dict)   # layer -> ns
    instr: int = 0                               # charged by execute


class Workload:
    """Base: a catalogue of ops, a warm-up pass and a count pass."""

    name: str

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.entries = self.build(seed)

    # subclasses: build, construct, run_op, run_op_traced, check, svms

    def warm_up(self) -> None:
        for e in self.entries:
            self.run_op(e)

    def catalogue_bytes(self) -> int:
        """Bytes of the catalogue's arrays: the benchmark's own data,
        resident in its process beside the program's."""
        return sum(v.nbytes for e in self.entries for v in vars(e).values()
                   if isinstance(v, np.ndarray))

    def heap_live(self) -> list[int]:
        return [s.machine.heap.live_bytes for s in self.svms()]

    def instructions(self) -> int:
        return sum(s.instructions for s in self.svms())

    def snapshot(self) -> dict:
        total: dict[str, int] = {}
        for s in self.svms():
            for cat, n in s.counters.snapshot().by_category.items():
                total[cat.value] = total.get(cat.value, 0) + int(n)
        return total

    def count_pass(self, entries, traced: bool = False) -> list:
        """Run ``entries`` once, recording each op's output and counter
        delta. Fails unless every output is correct and the simulated
        heap is back to where it started."""
        live0 = self.heap_live()
        records = []
        for e in entries:
            before = self.snapshot()
            res = self.run_op_traced(e) if traced else self.run_op(e)
            after = self.snapshot()
            if not self.check(e, res):
                raise AssertionError(f"{self.name}: wrong output in count pass")
            delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
            got = res.got if res.valid is None else res.got[:res.valid]
            records.append((got.tobytes(), res.valid, delta))
        if self.heap_live() != live0:
            raise AssertionError(
                f"{self.name}: simulated heap leaked "
                f"({live0} -> {self.heap_live()} live bytes)")
        return records


class DirectWorkload(Workload):
    """direct_small / direct_large: lazy pipelines on one default SVM."""

    def build(self, seed):
        return C.direct_catalogue(seed, **DIRECT[self.name])

    def count_entries(self):
        cfg = dict(DIRECT[self.name], per_pipeline=COUNT_PER_PIPELINE)
        return C.direct_catalogue(C.COUNT_SEED, **cfg)

    def construct(self) -> None:
        from repro import SVM
        from repro.engine import PlanBuilder, execute

        self.svm = SVM(vlen=1024, codegen="paper")
        self._builder = PlanBuilder
        self._execute = execute

    def svms(self):
        return [self.svm]

    def check(self, e, res: OpResult) -> bool:
        return C.check_output(e.expected, res.got, res.valid)

    def run_op(self, e) -> OpResult:
        svm = self.svm
        a = svm.array(e.data)
        with svm.lazy() as lz:
            out, kept = PIPES[e.pipeline](lz, a)
        got = out.to_numpy()
        if out is not a:
            svm.free(out)
        svm.free(a)
        return OpResult(got, None if kept is None else kept.value)

    def run_op_traced(self, e) -> OpResult:
        svm = self.svm
        t0 = ns()
        a = svm.array(e.data)
        t1 = ns()
        lz = self._builder(svm)
        out, kept = PIPES[e.pipeline](lz, a)
        plan = lz.build()
        t2 = ns()
        fused = svm.engine.fused_for(plan)
        t3 = ns()
        c0 = svm.instructions
        self._execute(svm, plan, fused, backend=svm.engine.backend)
        t4 = ns()
        c1 = svm.instructions
        got = out.to_numpy()
        if out is not a:
            svm.free(out)
        svm.free(a)
        t5 = ns()
        return OpResult(got, None if kept is None else kept.value,
                        {"io": (t1 - t0) + (t5 - t4), "capture": t2 - t1,
                         "lookup": t3 - t2, "execute": t4 - t3},
                        c1 - c0)

    def cache_stats(self):
        return self.svm.engine.cache.stats


class StrictPaperWorkload(Workload):
    """strict_paper: eager strict calls over the paper's own cells."""

    def build(self, seed):
        return C.paper_cells(seed)

    def count_entries(self):
        return C.paper_cells(C.COUNT_SEED)

    def construct(self) -> None:
        from repro import LMUL, SVM
        from repro.algorithms.radix_sort import split_radix_sort
        from repro.scalar.malloc_model import GlibcMallocModel

        self.by_vlen = {v: SVM(vlen=v, codegen="paper", mode="strict")
                        for v in C.PAPER_VLENS}
        # Table 1's set-up: the glibc malloc model charges the sort's
        # scratch allocations
        self.radix_svm = SVM(vlen=1024, codegen="paper", mode="strict",
                             malloc_model=GlibcMallocModel())
        self._lmul = LMUL
        self._sort = split_radix_sort

    def svms(self):
        return [*self.by_vlen.values(), self.radix_svm]

    def check(self, e, res: OpResult) -> bool:
        return C.check_output(e.expected, res.got, None)

    def _svm(self, e):
        return (self.radix_svm if e.kernel == "split_radix_sort"
                else self.by_vlen[e.vlen])

    def _call(self, svm, e, a, f) -> None:
        lmul = self._lmul(e.lmul)
        if e.kernel == "p_add":
            svm.p_add(a, C.PADD_SCALAR, lmul=lmul)
        elif e.kernel == "plus_scan":
            svm.plus_scan(a, lmul=lmul)
        elif e.kernel == "seg_plus_scan":
            svm.seg_plus_scan(a, f, lmul=lmul)
        else:
            self._sort(svm, a, lmul=lmul)

    def run_op(self, e) -> OpResult:
        svm = self._svm(e)
        a = svm.array(e.data)
        f = svm.array(e.flags) if e.flags is not None else None
        self._call(svm, e, a, f)
        got = a.to_numpy()
        if f is not None:
            svm.free(f)
        svm.free(a)
        return OpResult(got, None)

    def run_op_traced(self, e) -> OpResult:
        svm = self._svm(e)
        t0 = ns()
        a = svm.array(e.data)
        f = svm.array(e.flags) if e.flags is not None else None
        t1 = ns()
        c0 = svm.instructions
        self._call(svm, e, a, f)
        t2 = ns()
        c1 = svm.instructions
        got = a.to_numpy()
        if f is not None:
            svm.free(f)
        svm.free(a)
        t3 = ns()
        return OpResult(got, None,
                        {"io": (t1 - t0) + (t3 - t2), "execute": t2 - t1},
                        c1 - c0)

    def cache_stats(self):
        return None


@dataclass
class LoopResult:
    """Samples from one timed closed loop."""

    lat_ns: list = field(default_factory=list)     # per op
    window: list = field(default_factory=list)     # probe window per op
    probes: list = field(default_factory=list)     # ms, at window edges
    window_ns: list = field(default_factory=list)  # wall time per window
    window_instr: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)     # layer -> [ns] per op
    instr: list = field(default_factory=list)      # execute-charged, per op
    kernel: list = field(default_factory=list)     # strict_paper cells
    attempted: int = 0
    failed: int = 0


def timed_loop(w: Workload, probe, seconds: float, rng: np.random.Generator,
               traced: bool = False) -> LoopResult:
    """Whole catalogue passes in seeded order until ``seconds`` have
    passed, with a probe every ``PROBE_EVERY`` ops and at both ends."""
    run = w.run_op_traced if traced else w.run_op
    every = PROBE_EVERY[w.name]
    res = LoopResult()
    live0 = w.heap_live()
    deadline = time.perf_counter() + seconds
    res.probes.append(probe.measure())
    t_w, instr_w = ns(), w.instructions()
    i = 0
    while True:
        for j in rng.permutation(len(w.entries)):
            if i and i % every == 0:
                res.window_ns.append(ns() - t_w)
                res.window_instr.append(w.instructions() - instr_w)
                res.probes.append(probe.measure())
                t_w, instr_w = ns(), w.instructions()
            e = w.entries[j]
            t0 = ns()
            out = run(e)
            t1 = ns()
            res.lat_ns.append(t1 - t0)
            res.window.append(len(res.probes) - 1)
            res.attempted += 1
            res.failed += not w.check(e, out)
            if traced:
                for k, v in out.layers.items():
                    res.layers.setdefault(k, []).append(v)
                res.instr.append(out.instr)
                res.kernel.append(getattr(e, "kernel", None) or e.pipeline)
            i += 1
        if w.heap_live() != live0:
            raise AssertionError(f"{w.name}: simulated heap leaked in a pass")
        if time.perf_counter() >= deadline:
            break
    res.window_ns.append(ns() - t_w)
    res.window_instr.append(w.instructions() - instr_w)
    res.probes.append(probe.measure())
    return res


def paper_err_max(cells, records) -> float:
    """Largest |relative error| of the counted cells against the
    paper's tables, with repro.bench.experiments' exclusions: Table 2's
    N=100 row and Table 5's LMUL=2 column."""
    from repro.bench import paper_data as P

    count = {(c.kernel, c.n, c.vlen, c.lmul): sum(r[2].values())
             for c, r in zip(cells, records)}
    pairs = [(count["p_add", 1000, 1024, 1], P.TABLE2_PADD[1000]),
             (count[C.RADIX_CELL], P.TABLE1_RADIX[C.RADIX_CELL[1]])]
    for n in C.PAPER_NS:
        pairs.append((count["plus_scan", n, 1024, 1], P.TABLE3_SCAN[n]))
        for lm in (1, 4, 8):
            pairs.append((count["seg_plus_scan", n, 1024, lm],
                          P.TABLE5_SEG_LMUL[lm][n]))
        seg1 = count["seg_plus_scan", n, 1024, 1]
        for lm in (2, 4, 8):
            ratio = seg1 / count["seg_plus_scan", n, 1024, lm] / lm
            pairs.append((ratio, P.TABLE6_RATIO[lm][n]))
    return max(abs(m - ref) / ref for m, ref in pairs)


def make(name: str, seed: int) -> Workload:
    cls = StrictPaperWorkload if name == "strict_paper" else DirectWorkload
    return cls(name, seed)


def setup_child(name: str, seed: int) -> None:
    """Build the catalogue (benchmark work, not timed), then import,
    construct and warm up (timed), and report both boundaries."""
    w = make(name, seed)
    t_b = time.monotonic()
    w.construct()
    w.warm_up()
    t_c = time.monotonic()
    print(f"READY {T_START:.9f} {t_b:.9f} {t_c:.9f}", flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "--setup":
        sys.exit("usage: direct.py --setup WORKLOAD SEED")
    setup_child(sys.argv[2], int(sys.argv[3]))
