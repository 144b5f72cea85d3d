"""Host-speed probe: a fixed piece of interpreter and NumPy work.

The probe runs in a helper process that the benchmark starts, never in
the program's process, so background work a program change adds cannot
slow the probe and so hide itself. It imports nothing from ``repro``.

Run as a script it is that helper: every ``run`` line on stdin runs the
probe once and answers with its time in milliseconds.

    python3 perfbench/probe.py      # then type: run
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: Median probe time on the reference host (2 vCPU x86-64 container,
#: Python 3.11, NumPy 2.4). Fixed once with the benchmark and never
#: refitted: scaled times are in units of that host.
NOMINAL_PROBE_MS = 4.5


class _Machine:
    """A toy register machine: the probe's stand-in for a simulator."""

    __slots__ = ("regs", "counts")

    def __init__(self) -> None:
        self.regs = [np.arange(32, dtype=np.uint32) for _ in range(8)]
        self.counts: dict[str, int] = {}

    def step(self, kind: str, d: int, a: int, b: int) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        r = self.regs
        if kind == "add":
            np.add(r[a], r[b], out=r[d])
        elif kind == "xor":
            np.bitwise_xor(r[a], r[b], out=r[d])
        else:
            np.multiply(r[a], 3, out=r[d])


def probe_work() -> int:
    """The fixed work, shaped like the program's: interpreted dispatch
    of many small 32-lane NumPy steps (the strict simulator), then a few
    passes over a 256 KiB array (the generated kernels)."""
    m = _Machine()
    kinds = ("add", "xor", "mul")
    for i in range(1200):
        m.step(kinds[i % 3], i & 7, (i + 1) & 7, (i + 3) & 7)
    big = np.arange(1 << 16, dtype=np.uint32)
    for _ in range(6):
        big = np.cumsum(big * 3 ^ 5, dtype=np.uint32)
    return sum(m.counts.values()) + int(big[-1])


def run_probe() -> float:
    """Wall time of one run of :func:`probe_work`, in ms."""
    t0 = time.perf_counter()
    probe_work()
    return (time.perf_counter() - t0) * 1e3


def cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) CPU ticks of this machine since boot, from
    /proc/stat: the hypervisor's steal is time a runnable vCPU did not
    get, which stretches every host time measured meanwhile."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq, steal


def steal_frac(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the non-idle CPU time between two :func:`cpu_ticks`
    readings that the hypervisor stole."""
    busy, stolen = (b - a for a, b in zip(before, after))
    return stolen / (busy + stolen) if busy + stolen else 0.0


class ProbeHelper:
    """The helper process, driven synchronously over its pipes."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1)

    def measure(self) -> float:
        """Run one probe in the helper and return its time in ms; the
        caller does nothing meanwhile."""
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("probe helper exited")
        return float(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def __enter__(self) -> "ProbeHelper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> None:
    run_probe()  # warm the interpreter and NumPy before the first answer
    for line in sys.stdin:
        if line.strip() != "run":
            continue
        sys.stdout.write(f"{run_probe():.6f}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
