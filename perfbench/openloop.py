"""The ``serve_open`` workload: an open loop against ``repro serve``.

The daemon runs as ``python -m repro serve --port 0`` with default
flags. One asyncio load generator holds two TCP connections and sends
on a seeded Poisson schedule whatever the daemon's progress, so its
queue can grow. Each request is timed from when it was due to be sent.
Latency comes from a phase at the nominal rate; ``slo_rps`` from
phases at fixed higher rates, chosen one after another to find the two
neighbouring rates that bracket the limit.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import re
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import catalogue as C
import direct
import stats as S
from probe import NOMINAL_PROBE_MS, cpu_ticks, steal_frac
from spec import (PROBE_SCALED, SETUP_PROBES, SETUP_SAMPLES, child_env,
                  instr_metrics, peak_rss_mb)

#: Offered load of the latency phase, requests per second.
NOMINAL_RPS = 50.0
#: The fixed higher rates that bracket the knee of the latency curve.
SWEEP_RPS = (190.0, 215.0, 240.0, 270.0, 300.0)
#: Share of --seconds spent at the nominal rate; the rest goes to the
#: sweep, which usually runs SWEEP_RUNS of the SWEEP_RPS.
NOMINAL_SHARE = 0.5
SWEEP_RUNS = 2
#: Probe only with nothing in flight and the next send at least this
#: far off (a probe takes about 5 ms), at most once per
#: PROBE_MIN_INTERVAL_S.
PROBE_GAP_S = 0.015
PROBE_MIN_INTERVAL_S = 0.1
#: Stop sending in a phase once this many requests are outstanding:
#: the backlog is growing and the rate has failed.
ABORT_OUTSTANDING = 256
DRAIN_TIMEOUT_S = 60.0
#: Read buffer of a load connection: a response carries up to 4096
#: numbers.
STREAM_LIMIT = 1 << 22


# ---------------------------------------------------------------------------
# the daemon process and a blocking control connection
# ---------------------------------------------------------------------------


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port, on ``cpus``
    when given."""

    def __init__(self, env: dict, cpus: set[int] | None = None) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, preexec_fn=(lambda: os.sched_setaffinity(0, cpus))
            if cpus else None)
        line = self.proc.stdout.readline()
        m = re.search(r"REPRO_SERVE listening addr=([^:\s]+):(\d+)", line)
        if m is None:
            self.kill()
            raise RuntimeError(f"daemon did not announce itself: {line!r}")
        self.host, self.port = m.group(1), int(m.group(2))

    def control(self) -> "Control":
        return Control(self.host, self.port)

    def stop(self) -> None:
        """Graceful shutdown request, then wait; kill if it hangs."""
        if self.proc.poll() is None:
            try:
                with self.control() as c:
                    c.request({"op": "shutdown"})
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.kill()
        self.proc.stdout.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Control:
    """A blocking NDJSON connection used between timed phases."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=120)
        self.f = self.sock.makefile("rwb")
        self.next_id = 1

    def send_frames(self, frames: list[bytes]) -> list[dict]:
        """Write every frame, then read as many responses."""
        for fr in frames:
            self.f.write(fr)
        self.f.flush()
        return [json.loads(self.f.readline()) for _ in frames]

    def request(self, obj: dict) -> dict:
        obj = {"id": self.next_id, **obj}
        self.next_id += 1
        return self.send_frames([json.dumps(obj).encode() + b"\n"])[0]

    def execute(self, entries: list, count: int = 1) -> list[dict]:
        frames = []
        for e in entries:
            for _ in range(count):
                frames.append(C.frame(e, self.next_id))
                self.next_id += 1
        return self.send_frames(frames)

    def counters(self) -> dict:
        return self.request({"op": "stats"})["stats"]["counters"]

    def __enter__(self) -> "Control":
        return self

    def __exit__(self, *exc) -> None:
        self.f.close()
        self.sock.close()


def response_ok(entry, resp: dict) -> bool:
    if not resp.get("ok"):
        return False
    got = np.asarray(resp["result"], dtype=np.uint32)
    return C.check_output(entry.expected, got, resp.get("valid"))


def start_and_warm(env: dict, entries: list,
                   cpus: set[int] | None) -> tuple[Daemon, float]:
    """Spawn a daemon and warm it with every shape, singly and as a
    burst; returns it and the seconds from spawn to warm."""
    t0 = time.monotonic()
    d = Daemon(env, cpus)
    shapes = entries[::C.INPUTS_PER_SHAPE]
    with d.control() as c:
        resps = c.execute(shapes) + c.execute(shapes, count=C.BURST)
    setup = time.monotonic() - t0
    if not all(response_ok(e, r) for e, r in
               zip(shapes + [e for e in shapes for _ in range(C.BURST)],
                   resps)):
        d.stop()
        raise AssertionError("daemon warm-up returned a wrong result")
    return d, setup


# ---------------------------------------------------------------------------
# the open loop
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    rate: float
    sched: list = field(default_factory=list)     # due time, s
    sent: list = field(default_factory=list)      # actual send, s
    entry: list = field(default_factory=list)     # catalogue index
    burst: list = field(default_factory=list)     # arrived in a burst
    frames: list = field(default_factory=list)
    recv: dict = field(default_factory=dict)      # id -> (time, line)
    ids: list = field(default_factory=list)
    probes: list = field(default_factory=list)    # ms
    instr: int = 0                                # daemon, whole phase
    rss_mb: float = 0.0                           # daemon peak, at the end
    steal: float = 0.0                            # share of CPU stolen
    aborted: bool = False

    def responses(self) -> list[dict]:
        return [json.loads(self.recv[i][1]) for i in self.ids]

    def latency_ms(self) -> np.ndarray:
        return np.asarray([self.recv[i][0] for i in self.ids]) * 1e3 \
            - np.asarray(self.sched) * 1e3


class LoadGen:
    """Two connections; responses are stored raw and parsed later."""

    def __init__(self, host: str, port: int, entries: list, probe) -> None:
        self.host, self.port = host, port
        self.entries = entries
        self.probe = probe
        self.next_id = 1_000_000
        self.outstanding = 0
        self.idle = asyncio.Event()
        self.phase: Phase | None = None

    async def _reader(self, reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            t = time.perf_counter()
            # the daemon writes the id first; parse the rest later
            rid = int(line[6:line.index(b",", 6)]) if line.startswith(
                b'{"id":') else json.loads(line)["id"]
            self.phase.recv[rid] = (t, line)
            self.outstanding -= 1
            if self.outstanding == 0:
                self.idle.set()

    async def run(self, nominal, ladder, passes, snapshot) -> list[Phase]:
        """Run the nominal phase, then look for the two neighbouring
        rates of ``ladder`` that bracket the limit: start in its middle,
        step up after a rate ``passes(phase, phases so far)`` and down
        after one that fails, until a pass sits next to a failure or
        the ladder ends. Each entry is ``(rate, schedule)``.
        ``snapshot()`` reads the daemon's instruction total and peak RSS;
        it blocks, and is only called with nothing in flight."""
        conns = [await asyncio.open_connection(self.host, self.port,
                                               limit=STREAM_LIMIT)
                 for _ in range(2)]
        readers = [asyncio.create_task(self._reader(r)) for r, _w in conns]
        writers = [w for _r, w in conns]
        try:
            done = [await self._run(*nominal, writers, snapshot)]
            verdict: dict[int, bool] = {}
            i = len(ladder) // 2
            while 0 <= i < len(ladder) and i not in verdict:
                done.append(await self._run(*ladder[i], writers, snapshot))
                verdict[i] = passes(done[-1], done)
                i += 1 if verdict[i] else -1
        finally:
            for w in writers:
                w.close()
            for t in readers:
                t.cancel()
            await asyncio.gather(*readers, return_exceptions=True)
        return done

    async def _run(self, rate, schedule, writers, snapshot) -> Phase:
        ph = self.phase = Phase(rate)
        i0, _ = snapshot()
        ticks0 = cpu_ticks()
        await self._phase(ph, schedule, writers)
        ph.steal = steal_frac(ticks0, cpu_ticks())
        i1, ph.rss_mb = snapshot()
        ph.instr = i1 - i0
        return ph

    async def _phase(self, ph: Phase, schedule, writers) -> None:
        loop_t0 = time.perf_counter() + 0.05
        last_probe = -1.0
        for k, arr in enumerate(schedule):
            due = loop_t0 + arr.at
            now = time.perf_counter()
            if (due - now > PROBE_GAP_S
                    and now - last_probe > PROBE_MIN_INTERVAL_S):
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self.idle.wait(),
                                           due - now - PROBE_GAP_S)
                now = time.perf_counter()
                if self.outstanding == 0 and due - now > PROBE_GAP_S:
                    # nothing in flight and nothing due: the blocking
                    # probe cannot delay a send or a receive timestamp,
                    # and the daemon's own work cannot slow it
                    ph.probes.append(self.probe.measure())
                    last_probe = now = time.perf_counter()
            if due > now:
                await asyncio.sleep(due - now)
            if self.outstanding > ABORT_OUTSTANDING:
                ph.aborted = True
                break
            w = writers[k % 2]
            t_send = time.perf_counter()
            for idx in arr.entries:
                rid = self.next_id
                self.next_id += 1
                fr = C.frame(self.entries[idx], rid)
                ph.ids.append(rid)
                ph.sched.append(due - loop_t0)
                ph.sent.append(t_send - loop_t0)
                ph.entry.append(idx)
                ph.burst.append(len(arr.entries) > 1)
                ph.frames.append(fr)
                self.outstanding += 1
                self.idle.clear()
                w.write(fr)
            await w.drain()
        if self.outstanding:
            await asyncio.wait_for(self.idle.wait(), DRAIN_TIMEOUT_S)
        # express receive times relative to the phase start
        ph.recv = {i: (t - loop_t0, ln) for i, (t, ln) in ph.recv.items()}


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------


def scale(probes, steal: float) -> float:
    """The factor for serve host times measured while the hypervisor
    stole ``steal`` of the CPU time: nominal over the median of
    ``probes``, times the share of CPU time not stolen (a probe in an
    idle gap meets little of the steal that stretches a busy daemon),
    or 1 when serve is not probe-scaled."""
    probes = list(probes)
    if not PROBE_SCALED["serve_open"] or not probes:
        return 1.0
    return NOMINAL_PROBE_MS / statistics.median(probes) * (1.0 - steal)


def run(args, probe) -> tuple[dict, int, int]:
    """serve_open; returns (metrics, attempted, failed)."""
    env = child_env()
    entries = C.serve_catalogue(args.seed)
    sweep_s = args.seconds * (1 - NOMINAL_SHARE) / SWEEP_RUNS
    nominal = (NOMINAL_RPS, C.poisson_schedule(
        args.seed, NOMINAL_RPS,
        C.blocks_for(NOMINAL_RPS, args.seconds * NOMINAL_SHARE)))
    # every phase replays the same seeded sequence, compressed to its
    # rate, so the rates differ in nothing else
    ladder = [(r, C.poisson_schedule(args.seed, r, C.blocks_for(r, sweep_s)))
              for r in SWEEP_RPS]

    # the daemon and the probe share one CPU, so the probe reads the
    # speed of the CPU the daemon runs on; the load generator gets
    # another, so it never competes with the daemon
    allowed = sorted(os.sched_getaffinity(0))
    daemon_cpu = {allowed[0]} if len(allowed) >= 2 else None
    setups = []
    daemon = None
    try:
        if daemon_cpu:
            os.sched_setaffinity(probe.proc.pid, daemon_cpu)
            os.sched_setaffinity(0, set(allowed[1:]))
        for _ in range(SETUP_SAMPLES):
            if daemon is not None:
                daemon.stop()
            # probe before the spawn only: a live daemon shares the
            # probe's CPU, and its idle work must not speed up setup_s
            probes = [probe.measure() for _ in range(2 * SETUP_PROBES)]
            daemon, setup = start_and_warm(env, entries, daemon_cpu)
            setups.append((setup, probes))

        def snapshot() -> tuple[int, float]:
            with daemon.control() as c:
                return (sum(c.counters().values()),
                        peak_rss_mb(daemon.proc.pid))

        def passes(ph: Phase, done: list[Phase]) -> bool:
            f = scale((p for d in done for p in d.probes), ph.steal)
            return not (ph.aborted or S.backlog_grew(ph.sched, ph.latency_ms())
                        or S.pct(ph.latency_ms(), 90) * f > S.SLO_P90_MS)

        gen = LoadGen(daemon.host, daemon.port, entries, probe)
        ticks0 = cpu_ticks()
        phases = asyncio.run(gen.run(nominal, ladder, passes, snapshot))
        steal = steal_frac(ticks0, cpu_ticks())
        with daemon.control() as c:
            count_entries = C.serve_catalogue(C.COUNT_SEED)
            counted = []
            for _ in range(2):
                c0 = c.counters()
                resps = c.execute(count_entries)
                if not all(response_ok(e, r)
                           for e, r in zip(count_entries, resps)):
                    raise AssertionError("wrong result in the count pass")
                c1 = c.counters()
                counted.append({k: c1[k] - c0.get(k, 0) for k in c1})
        if counted[0] != counted[1]:
            raise AssertionError("two count passes differ")
    finally:
        if daemon is not None:
            daemon.stop()
        os.sched_setaffinity(0, allowed)
        os.sched_setaffinity(probe.proc.pid, allowed)

    pw = direct.make("strict_paper", C.COUNT_SEED)
    pw.construct()
    paper_err = direct.paper_err_max(pw.entries, pw.count_pass(pw.entries))

    attempted = failed = rejected = 0
    for ph in phases:
        for idx, resp in zip(ph.entry, ph.responses()):
            attempted += 1
            if not response_ok(entries[idx], resp):
                failed += 1
                rejected += resp.get("code") == "overloaded"

    nominal = phases[0]
    resps = nominal.responses()
    phases = sorted(phases, key=lambda ph: ph.rate)
    probes = [p for ph in phases for p in ph.probes]
    if len(probes) < 5:
        probes += [probe.measure() for _ in range(5)]
    factors = [scale(probes, ph.steal) for ph in phases]
    factor = scale(probes, nominal.steal)
    rate_factor = scale(probes, steal)
    raw_lat = nominal.latency_ms()
    # daemon busy time: each flush's execute time, once per flush
    busy_s = sum(r["timing"]["execute_ms"] / r["flush_rows"]
                 for r in resps) / 1e3
    rates = [ph.rate for ph in phases]
    p90s = [S.pct(ph.latency_ms(), 90) for ph in phases]
    grew = [ph.aborted or S.backlog_grew(ph.sched, ph.latency_ms())
            for ph in phases]
    slo_raw, _ = S.slo_rps(rates, p90s, grew)
    slo, capped = S.scaled_slo_rps(rates, p90s, grew, factors, rate_factor)
    print("serve_open sweep (rate req/s, p90 ms, backlog grew, requests): "
          + json.dumps([(r, round(p, 2), g, len(ph.ids))
                        for r, p, g, ph in zip(rates, p90s, grew, phases)])
          + (" -- capped at the top rate" if capped else ""),
          file=sys.stderr)
    counts = counted[0]
    m = {
        "latency_p50_ms": S.pct(raw_lat, 50) * factor,
        "latency_p90_ms": S.pct(raw_lat, 90) * factor,
        "ops_per_s": len(resps) / busy_s / factor,
        "slo_rps": slo,
        "success_frac": (attempted - failed) / attempted,
        "sim_instructions": sum(counts.values()),
        "sim_minstr_per_s": nominal.instr / busy_s / factor / 1e6,
        "paper_err_max": paper_err,
        "peak_rss_mb": nominal.rss_mb,
        "raw.latency_p50_ms": S.pct(raw_lat, 50),
        "raw.latency_p90_ms": S.pct(raw_lat, 90),
        "raw.ops_per_s": len(resps) / busy_s,
        "raw.slo_rps": slo_raw,
        "raw.sim_minstr_per_s": nominal.instr / busy_s / 1e6,
        "host.probe_ms": statistics.median(probes),
        "host.probe_spread": S.spread(probes),
        "host.steal_frac": steal,
        "serve.rejected": rejected,
        "serve.slo_capped": float(capped),
        "loadgen.late.p90_ms": S.pct(
            (np.asarray(nominal.sent) - np.asarray(nominal.sched)) * 1e3, 90),
        "rvv.host_ns_per_instr": busy_s * 1e9 * factor / nominal.instr,
        # the daemon always sends its timing fields, so the traced run
        # adds no work to the measured path
        "trace.latency_ratio": 1.0,
    }
    m["setup_s"], m["raw.setup_s"] = S.median_setup_s(setups,
                                                       NOMINAL_PROBE_MS)
    m.update(instr_metrics(counts))
    if not args.trace:
        return m, attempted, failed

    from repro.serve import protocol

    burst = np.asarray(nominal.burst)
    m["serve.single.p90_ms"] = S.pct(raw_lat[~burst], 90) * factor
    m["serve.burst.p90_ms"] = S.pct(raw_lat[burst], 90) * factor

    timing = {k: np.asarray([r["timing"][k] for r in resps]) * factor
              for k in ("coalesce_ms", "queue_ms", "execute_ms", "total_ms")}
    client = (np.asarray([nominal.recv[i][0] for i in nominal.ids])
              - np.asarray(nominal.sent)) * 1e3 * factor
    m["serve.coalesce.p50_ms"] = S.pct(timing["coalesce_ms"], 50)
    m["serve.queue.p50_ms"] = S.pct(timing["queue_ms"], 50)
    m["serve.execute.p50_ms"] = S.pct(timing["execute_ms"], 50)
    m["serve.wire.p50_ms"] = S.pct(client - timing["total_ms"], 50)
    rows = np.asarray([r["flush_rows"] for r in resps], dtype=float)
    m["serve.rows_per_flush"] = rows.size / float(np.sum(1.0 / rows))
    paths = [r["path"] for r in resps]
    for p in ("2d", "ragged", "loop"):
        m[f"serve.path.{p}_frac"] = paths.count(p) / len(paths)
    m["serve.plan_cache.hit_frac"] = sum(
        r["cache"] in ("memory", "disk") for r in resps) / len(resps)
    t0 = time.perf_counter()
    for fr in nominal.frames:
        protocol.validate_execute(protocol.decode(fr))
    m["serve.protocol.decode_us"] = ((time.perf_counter() - t0) * 1e6
                                     / len(nominal.frames) * factor)
    t0 = time.perf_counter()
    for r in resps:
        protocol.encode(r)
    m["serve.protocol.encode_us"] = ((time.perf_counter() - t0) * 1e6
                                     / len(resps) * factor)
    return m, attempted, failed
