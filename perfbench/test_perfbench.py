"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from percentiles import (beyond, median, percentile, summarize,  # noqa: E402
                         tail_percentile)
from tracing import (COUNT, SAMPLED, SPAN, TIMED, Tracer,  # noqa: E402
                     self_times)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ------------------------------------------------------------- percentiles
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_tail_needs_ten_samples_beyond():
    assert beyond(1000, 99.0) == 10
    assert tail_percentile(1000) == 99.0
    # one sample short of p99: the rule falls back to p90
    assert beyond(999, 99.0) == 9
    assert tail_percentile(999) == 90.0
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(40) == 75.0
    assert tail_percentile(39) is None


def test_summarize_reports_counts_and_falls_back_to_the_maximum():
    summary = summarize([float(v) for v in range(1, 1001)])
    assert summary == {"p50": 500.0, "tail": 990.0, "tail_q": 99.0,
                       "n": 1000, "beyond": 10}
    few = summarize([5.0, 1.0, 9.0])
    assert few["tail"] == 9.0 and few["tail_q"] == 100.0
    assert few["beyond"] == 0 and few["n"] == 3


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5
    with pytest.raises(ValueError):
        median([])


# --------------------------------------------------------------- self time
def _span(span_id, parent, start, end, name="s"):
    return [span_id, name, parent, start, end, 0.0, 1]


def test_self_time_subtracts_nested_children():
    spans = [_span(0, -1, 0.0, 10.0), _span(1, 0, 1.0, 3.0),
             _span(2, 0, 4.0, 8.0), _span(3, 2, 5.0, 6.0)]
    own = self_times(spans)
    assert own == {0: pytest.approx(4.0), 1: pytest.approx(2.0),
                   2: pytest.approx(3.0), 3: pytest.approx(1.0)}
    # self times of a tree add up to the root's duration
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, -1, 0.0, 10.0), _span(1, 0, 2.0, 6.0),
             _span(2, 0, 4.0, 8.0), _span(3, 0, 9.0, 12.0)]
    # children cover [2, 8] and [9, 10] of the parent
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_spans_nest_and_aggregate():
    clock = FakeClock()
    tracer = Tracer(clock=clock, rss=lambda: 42.0)

    class Layers:
        def outer(self):
            clock.now = 1.0
            self.inner()
            clock.now = 5.0

        def inner(self):
            clock.now = 4.0

    tracer.wrap(Layers, "outer", "outer")
    tracer.wrap(Layers, "inner", "inner")
    Layers().outer()
    tracer.restore()
    rows = tracer.durations()
    assert rows["outer"]["total_s"] == 5.0
    assert rows["outer"]["self_s"] == 2.0
    assert rows["inner"]["self_s"] == 3.0
    assert rows["inner"]["rss_mb"] == 42.0
    assert tracer.spans[1][2] == tracer.spans[0][0]


# ---------------------------------------------------------------- wrapping
class Widget:
    def work(self, n):
        return self.nested(n) + 1

    def nested(self, n):
        return n * 2

    @classmethod
    def make(cls):
        return cls()


def helper(x):
    return x + 1


def test_wrappers_record_and_restore_class_attributes():
    originals = dict(Widget.__dict__)
    clock = FakeClock()
    tracer = Tracer(clock=clock, rss=lambda: 0.0)
    tracer.wrap(Widget, "work", "widget.work", TIMED, layer="widget")
    tracer.wrap(Widget, "nested", "widget.work", TIMED, layer="widget")
    tracer.wrap(Widget, "make", "widget.make", SPAN)
    seen = []
    tracer.wrap(Widget, "nested", "widget.nested", COUNT,
                after=lambda t, result, args, kw: seen.append(result))
    widget = Widget.make()
    assert isinstance(widget, Widget)
    assert widget.work(3) == 7
    # the nested call is inside the same layer: one timed call, not two
    assert tracer.totals["widget.work"][0] == 1
    assert tracer.calls("widget.nested") == 1 and seen == [6]
    assert [s[1] for s in tracer.spans] == ["widget.make"]
    assert tracer.installed == 4
    tracer.restore()
    assert tracer.installed == 0
    for attr in ("work", "nested", "make"):
        assert Widget.__dict__[attr] is originals[attr]


def test_sampled_wrapper_extrapolates_and_excludes_nested_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock, rss=lambda: 0.0)

    class Writer:
        def write(self, flush):
            clock.now += 1.0          # encoding: 1 s per call
            if flush:
                self.store()

        def store(self):
            clock.now += 10.0         # storage: measured in full

    tracer.wrap(Writer, "write", "encode", SAMPLED, every=2,
                exclude="store")
    tracer.wrap(Writer, "store", "store", TIMED)
    writer = Writer()
    for index in range(8):
        writer.write(flush=index == 3)
    tracer.restore()
    assert tracer.calls("encode") == 8
    assert tracer.samples["encode"][0] == 4
    # the sampled flush's 10 s of storage is not charged to encoding
    assert tracer.estimated_s("encode") == pytest.approx(8.0)
    assert tracer.totals["store"] == [1, 10.0]


def test_module_functions_are_patched_where_imported_and_restored():
    home = types.ModuleType("perfbench_test_home")
    home.helper = helper
    user = types.ModuleType("perfbench_test_user")
    user.helper = helper  # as ``from perfbench_test_home import helper``
    sys.modules[home.__name__] = home
    sys.modules[user.__name__] = user
    try:
        tracer = Tracer(clock=FakeClock(), rss=lambda: 0.0)
        tracer.wrap(home, "helper", "helper", COUNT)
        assert user.helper(1) == 2 and home.helper(2) == 3
        assert tracer.calls("helper") == 2
        tracer.restore()
        assert home.helper is helper and user.helper is helper
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]


def test_layer_plan_installs_and_leaves_no_wrapper_behind():
    import run

    tracer = Tracer()
    layers.install(tracer)
    assert tracer.installed >= len(layers.PLAN)
    assert run._wrappers_left()
    tracer.restore()
    assert run._wrappers_left() == []


def test_every_per_layer_metric_is_reported():
    values = layers.per_layer_metrics(Tracer(), investors_rss_mb=0.0)
    assert sorted(values) == sorted(name for name, _, _ in layers.PER_LAYER)
    assert set(layers.DETERMINISTIC) <= set(values) | {"serve.cached",
                                                       "serve.fresh"}


def test_floor_metrics_take_each_part_at_its_fastest():
    import run

    passes = [(0.5, [1.0, 5.0, 3.0]), (0.4, [2.0, 4.0, 3.0])]
    metrics, latency = run.floor_metrics(passes)
    assert metrics["ready_s"] == 0.4
    assert metrics["wall_s"] == pytest.approx(0.4 + 1.0 + 4.0 + 3.0)
    assert metrics["ops_per_s"] == pytest.approx(3 / 8.0)
    # three floors support no tail percentile: the slowest is the tail
    assert metrics["op_tail_ms"] == 4000.0
    assert (latency["n"], latency["p50"]) == (3, 3.0)


# -------------------------------------------------------------- host speed
def test_adjust_scales_by_the_probes_during_the_part():
    from hostspeed import NEAREST, PROBE_REFERENCE_S, adjust

    ref = PROBE_REFERENCE_S
    # probes long before the part read 2x slow; those during it read
    # 1.5x slow, so 0.6 s then is 0.4 s on the reference host
    probes = [(float(t), 2 * ref) for t in range(10)] + \
        [(100.0 + 0.05 * i, 1.5 * ref) for i in range(NEAREST + 1)]
    assert adjust((100.0, 0.6), probes) == pytest.approx(
        (0.6 - (NEAREST + 1) * 1.5 * ref) / 1.5)
    with pytest.raises(ValueError):
        adjust((0.0, 1.0), [])


def test_adjust_takes_the_nearest_probes_for_a_short_part():
    from hostspeed import NEAREST, PROBE_REFERENCE_S, adjust

    ref = PROBE_REFERENCE_S
    far = [(float(t), 3 * ref) for t in range(NEAREST)]
    near = [(50.0 + t, ref) for t in range(-3, 4)]
    # no probe starts inside the part; the NEAREST closest read 1x
    assert len(near) == NEAREST
    assert adjust((50.1, 0.2), far + near) == pytest.approx(0.2)


def test_adjust_takes_off_the_probe_time_inside_the_part():
    from hostspeed import PROBE_REFERENCE_S, adjust

    ref = PROBE_REFERENCE_S
    # one probe sticks half into the part, one lies fully inside
    probes = [(1.0 - ref / 2, ref), (2.0, ref)] + [(10.0 + t, ref)
                                           for t in range(5)]
    waited = ref / 2 + ref
    assert adjust((1.0, 4.0), probes) == pytest.approx(4.0 - waited)


def test_timeline_records_each_op():
    from hostspeed import Timeline

    clock = FakeClock()

    def op(seconds):
        clock.now += seconds
        return seconds

    timeline = Timeline(clock=clock)
    assert [timeline.timed(op, s) for s in (0.25, 0.75, 0.5)] == \
        [0.25, 0.75, 0.5]
    assert timeline.ops == [(0.0, 0.25), (0.25, 0.75), (1.0, 0.5)]


def test_prober_probes_until_the_block_ends_and_stops_its_thread():
    import threading

    from hostspeed import Prober

    with Prober(every=0.001, measure=lambda: 0.5) as prober:
        while len(prober.probes) < 3:
            threading.Event().wait(0.001)
    count = len(prober.probes)
    assert not prober._thread.is_alive()
    assert all(seconds == 0.5 for _, seconds in prober.probes)
    threading.Event().wait(0.01)
    assert len(prober.probes) == count


def test_probe_leaves_the_collector_as_it_found_it():
    import gc

    from hostspeed import probe

    assert gc.isenabled()
    assert probe() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        probe()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_metric_lists_match_benchmark_json():
    import json

    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == layers.PER_LAYER
