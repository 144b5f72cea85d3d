"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import catalogue as C  # noqa: E402
import stats as S  # noqa: E402
from spec import END_TO_END, PER_LAYER  # noqa: E402

# ---------------------------------------------------------------------------
# probe scaling
# ---------------------------------------------------------------------------


def test_window_factors_use_the_median_of_neighbouring_probes():
    probes = [4.0, 8.0, 4.0, 2.0, 2.0]
    f = S.window_factors(probes, nominal_ms=4.0, reach=2)
    # window w: median of probes[w-1 .. w+2], clipped at the ends
    assert f == [4.0 / np.median([4.0, 8.0, 4.0]),
                 4.0 / np.median([4.0, 8.0, 4.0, 2.0]),
                 4.0 / np.median([8.0, 4.0, 2.0, 2.0]),
                 4.0 / np.median([4.0, 2.0, 2.0])]


def test_a_lone_slow_probe_does_not_move_the_factor():
    probes = [4.0] * 10 + [40.0] + [4.0] * 10
    assert set(S.window_factors(probes, nominal_ms=4.0)) == {1.0}


def test_a_host_twice_as_slow_is_scaled_back():
    f = S.window_factors([8.0, 8.0, 8.0], nominal_ms=4.0)
    scaled = S.scale_by_window([10.0, 20.0, 30.0], [0, 1, 1], f)
    assert scaled.tolist() == [5.0, 10.0, 15.0]


def test_window_factors_need_probes_on_both_sides():
    with pytest.raises(ValueError):
        S.window_factors([4.0], nominal_ms=4.0)


def test_a_setup_sample_is_scaled_by_its_own_probes():
    samples = [(1.0, [8.0, 8.0, 4.0, 8.0]), (0.6, [4.0, 4.0, 4.0, 4.0]),
               (2.0, [16.0, 16.0, 16.0, 2.0])]
    scaled, raw = S.median_setup_s(samples, nominal_ms=4.0)
    assert raw == 1.0
    assert scaled == pytest.approx(0.5)   # of 0.5, 0.6 and 0.5


def test_spread_is_iqr_over_median():
    vals = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, med, q3 = __import__("statistics").quantiles(vals, n=4)
    assert S.spread(vals) == (q3 - q1) / med


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _same_direct(a, b):
    return len(a) == len(b) and all(
        x.pipeline == y.pipeline and np.array_equal(x.data, y.data)
        for x, y in zip(a, b))


def test_a_seed_always_gives_the_same_catalogues():
    assert _same_direct(C.direct_catalogue(3, 32, 2048, 8),
                        C.direct_catalogue(3, 32, 2048, 8))
    assert not _same_direct(C.direct_catalogue(3, 32, 2048, 8),
                            C.direct_catalogue(4, 32, 2048, 8))
    p1, p2 = C.paper_cells(3), C.paper_cells(3)
    assert all(np.array_equal(a.data, b.data) for a, b in zip(p1, p2))
    s1, s2 = C.serve_catalogue(3), C.serve_catalogue(3)
    assert [e.body for e in s1] == [e.body for e in s2]


def test_a_seed_always_gives_the_same_schedule():
    a = C.poisson_schedule(7, 40.0, 1)
    assert a == C.poisson_schedule(7, 40.0, 1)
    assert a != C.poisson_schedule(8, 40.0, 1)


def test_schedule_offers_the_rate_with_a_fixed_mix():
    rate = 200.0
    nblocks = len(C.SERVE_SHAPES)
    sched = C.poisson_schedule(1, rate, nblocks)
    assert len(sched) == nblocks * C.BLOCK
    reqs = sum(len(a.entries) for a in sched)
    assert reqs == nblocks * C.BLOCK_REQS
    assert abs(reqs / sched[-1].at - rate) / rate < 0.1
    assert all(b.at > a.at > 0 for a, b in zip(sched, sched[1:]))
    # every block holds each shape's singles and one burst; over as
    # many blocks as shapes, every shape bursts once, whatever the seed
    burst_shapes = []
    for b in range(nblocks):
        block = sched[b * C.BLOCK:(b + 1) * C.BLOCK]
        for s in range(len(C.SERVE_SHAPES)):
            assert sum(len(a.entries) == 1 and
                       a.entries[0] // C.INPUTS_PER_SHAPE == s
                       for a in block) == C.SINGLES_PER_SHAPE
        bursts = [a for a in block if len(a.entries) > 1]
        assert [len(a.entries) for a in bursts] == [C.BURST]
        burst_shapes.append(bursts[0].entries[0] // C.INPUTS_PER_SHAPE)
    assert sorted(burst_shapes) == list(range(len(C.SERVE_SHAPES)))
    # every three blocks burst each pipeline once and each n once
    for b in range(0, nblocks, 3):
        shapes = [C.SERVE_SHAPES[s] for s in burst_shapes[b:b + 3]]
        assert sorted(p for p, _n in shapes) == sorted(C.PIPELINES)
        assert sorted(n for _p, n in shapes) == sorted(C.SERVE_NS)
    # a burst is one shape
    for a in sched:
        assert len({i // C.INPUTS_PER_SHAPE for i in a.entries}) == 1


def test_blocks_fill_about_the_requested_time():
    rate = 60.0
    blocks = C.blocks_for(rate, 30.0)
    secs = blocks * C.BLOCK * C.REQS_PER_ARRIVAL / rate
    assert abs(secs - 30.0) <= 0.5 * C.BLOCK * C.REQS_PER_ARRIVAL / rate
    assert C.blocks_for(rate, 0.01) == 1


def test_stratified_sizes_cover_the_range_once_per_stratum():
    rng = np.random.default_rng(0)
    n = C.stratified_log_uniform(rng, 32, 2048, 16)
    assert n.min() >= 32 and n.max() < 2048
    edges = np.exp(np.linspace(np.log(32), np.log(2048), 17))
    assert all(lo - 1 <= v <= hi for v, lo, hi in zip(n, edges, edges[1:]))


def test_catalogue_bytes_count_every_input_and_expected_array():
    import direct
    w = direct.make("strict_paper", 3)
    assert w.catalogue_bytes() == sum(
        c.data.nbytes + c.expected.nbytes
        + (0 if c.flags is None else c.flags.nbytes) for c in w.entries)


def test_frames_carry_the_id_and_the_data():
    e = C.serve_catalogue(0)[0]
    doc = json.loads(C.frame(e, 42))
    assert doc["id"] == 42 and doc["op"] == "execute"
    assert doc["pipeline"] == e.pipeline and doc["data"] == e.data.tolist()


# ---------------------------------------------------------------------------
# the NumPy models against the strict simulator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pipeline", C.PIPELINES)
@pytest.mark.parametrize("n", [1, 7, 33, 100, 257])
def test_models_match_strict_execution(pipeline, n):
    from direct import PIPES
    from repro import SVM

    svm = SVM(vlen=256, codegen="paper", mode="strict")
    d = np.random.default_rng(n).integers(0, 2**16, n, dtype=np.uint32)
    a = svm.array(d)
    with svm.lazy() as lz:
        out, kept = PIPES[pipeline](lz, a)
    got = out.to_numpy()
    valid = None if kept is None else kept.value
    assert C.check_output(C.MODELS[pipeline](d), got, valid)


@pytest.mark.parametrize("kernel", ["p_add", "plus_scan", "seg_plus_scan",
                                    "split_radix_sort"])
def test_paper_models_match_strict_execution(kernel):
    from direct import StrictPaperWorkload

    w = StrictPaperWorkload("strict_paper", 5)
    w.construct()
    cells = [c for c in w.entries if c.kernel == kernel][:4]
    assert cells
    for c in cells:
        assert w.check(c, w.run_op(c))


def test_check_output_compares_only_the_defined_prefix():
    exp = np.array([5, 6], dtype=np.uint32)
    assert C.check_output(exp, np.array([5, 6, 99], np.uint32), 2)
    assert not C.check_output(exp, np.array([5, 7, 99], np.uint32), 2)
    assert not C.check_output(exp, np.array([5, 6, 99], np.uint32), 3)
    assert not C.check_output(exp, np.array([5, 6, 99], np.uint32), None)


# ---------------------------------------------------------------------------
# slo_rps
# ---------------------------------------------------------------------------


def test_slo_rps_interpolates_log_latency_between_the_bracket():
    rates = [40.0, 80.0, 160.0]
    p90s = [20.0, 40.0, 100.0]
    got, capped = S.slo_rps(rates, p90s, [False] * 3)
    frac = (math.log(50) - math.log(40)) / (math.log(100) - math.log(40))
    assert not capped
    assert got == pytest.approx(80 + frac * 80)


def test_slo_rps_is_capped_when_every_rate_passes():
    assert S.slo_rps([40.0, 80.0], [10.0, 30.0], [False, False]) == (80.0,
                                                                     True)


def test_slo_rps_stops_at_a_growing_backlog():
    # the second rate meets the p90 limit but its queue grows
    got, capped = S.slo_rps([40.0, 80.0, 160.0], [10.0, 30.0, 45.0],
                            [False, True, True])
    assert (got, capped) == (40.0, False)


def test_slo_rps_below_the_lowest_rate_scales_it_down():
    got, capped = S.slo_rps([40.0, 80.0], [100.0, 200.0], [False, False])
    assert (got, capped) == (20.0, False)


def test_slo_rps_rejects_unsorted_rates():
    with pytest.raises(ValueError):
        S.slo_rps([80.0, 40.0], [1.0, 1.0], [False, False])


def test_scaled_slo_rps_keeps_the_offered_rate_order():
    # two neighbouring sweep rates 1.25x apart, the lower phase run with
    # 20% more of the CPU stolen: scaling each rate by its own phase's
    # factor would put 120 / 0.8 = 150 above 149 / 1.0 = 149
    rates = [120.0, 149.0]
    p90s = [40.0, 80.0]
    lat_factors = [0.8, 1.0]
    with pytest.raises(ValueError):
        S.slo_rps([r / f for r, f in zip(rates, lat_factors)],
                  [p * f for p, f in zip(p90s, lat_factors)], [False] * 2)
    got, capped = S.scaled_slo_rps(rates, p90s, [False] * 2, lat_factors,
                                   rate_factor=0.9)
    lo, hi = 120.0 / 0.9, 149.0 / 0.9
    frac = (math.log(50) - math.log(32)) / (math.log(80) - math.log(32))
    assert not capped
    assert got == pytest.approx(lo + frac * (hi - lo))


def test_backlog_growth_is_a_rising_latency_trend():
    t = np.arange(90) / 10
    assert not S.backlog_grew(t, np.full(90, 12.0))
    assert S.backlog_grew(t, 5.0 + 2.0 * np.arange(90))


def test_fifo_replay_queues_behind_a_slow_request():
    soj = S.fifo_sojourn_ms([0.0, 0.001, 0.100], [10.0, 10.0, 10.0])
    assert soj.tolist() == pytest.approx([10.0, 19.0, 10.0])


def test_replay_slo_rps_stays_below_capacity():
    service = np.full(2000, 5.0)         # capacity 200/s
    got, _capped = S.replay_slo_rps(service)
    assert 100.0 < got < 200.0


# ---------------------------------------------------------------------------
# the benchmark definition
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_what_run_py_reports():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    from spec import WORKLOADS
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
