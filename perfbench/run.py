"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload study --seed 20160626 \
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped, each
timing adjusted for the host's speed by a probe thread (``hostspeed``).
The process runs pinned to one CPU in both modes.
``--trace 1`` runs three passes over the same seed — traced, untraced,
traced — and reports the per-layer metrics of the first traced pass and
the tracing overhead (traced minus untraced ``wall_s``). Its
deterministic counters must equal those of the second traced pass. The
spans and their self times are written to ``perfbench/out/``.

Every metric is printed as ``name value unit`` before the final line,
which is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when the run completed, whatever the
checks found; it is non-zero when the program cannot be found or run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit) of every end-to-end metric, in report order. The ready
#: phase and the op percentiles are printed too, but not reported as
#: metrics: on a shared host they spread too far to bound (README).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
)


def _load_program() -> None:
    """Put the program's sources on the path, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(workload, seed: int):
    """The set-up's state and its ``(start, seconds)``."""
    start = time.perf_counter()
    state = workload.setup(seed)
    return state, (start, time.perf_counter() - start)


def measure(workload, seed: int, seconds: int):
    """``--trace 0``: ``workload.setups`` set-ups, the last
    ``workload.passes`` of them each followed by a timed pass.

    Every timing is first adjusted to the reference host's speed by the
    probes a ``Prober`` thread takes meanwhile (``hostspeed``): that
    removes the slow phases of a shared host, which can last longer than
    a run. Then it is built from floors: the fastest run of each part of
    a pass, over all passes. A part is the ready phase or one op, and
    the same part does the same work on identical state in every pass
    of one seed. Interference that comes and goes within a second only
    ever adds time, so the fastest of several runs of a short part is a
    steady estimate of the program's own cost where the time of a whole
    pass is not. ``wall_s`` is the ready floor plus the sum of the op
    floors. ``setup_s`` is the median adjusted set-up.
    """
    from hostspeed import Prober, adjust
    from percentiles import median

    setups, passes = [], []
    rounds = max(workload.setups, workload.passes)
    with Prober() as prober:
        for index in range(rounds):
            state, part = _timed_setup(workload, seed)
            setups.append(part)
            try:
                if index >= rounds - workload.passes:
                    passes.append(workload.run(state, seed, seconds))
            finally:
                workload.close(state)
                # free this round's world before the next set-up builds one
                del state
    problems = []
    counts = {len(p.timeline.ops) for p in passes}
    if len(counts) != 1:
        problems.append(f"op counts differ across passes of one seed: "
                        f"{sorted(counts)}")
    probes = prober.probes
    metrics, latency = floor_metrics([p.timeline.adjusted(probes)
                                      for p in passes])
    metrics["setup_s"] = median([adjust(part, probes) for part in setups])
    metrics["peak_rss_mb"] = _peak_rss_mb()
    print(f"# {workload.name}: floors of {len(passes)} passes; raw pass "
          f"wall_s {[round(p.wall_s, 3) for p in passes]}, raw set-up "
          f"{[round(s, 3) for _, s in setups]}; {len(probes)} probes, "
          f"median {1000.0 * median([s for _, s in probes]):.4g} ms; ready "
          f"{metrics['ready_s']:.4g} "
          f"s; op latency over n={latency['n']} ops: p50 "
          f"{1000.0 * latency['p50']:.4g} ms, p{latency['tail_q']:g} "
          f"{metrics['op_tail_ms']:.4g} ms with {latency['beyond']} beyond")
    report = [(name, metrics[name], unit) for name, unit in END_TO_END]
    return report, passes, problems


def floor_metrics(passes):
    """The timing metrics of ``passes``, each a ``(ready_s, op_times)``
    pair, built from floors, and the latency summary of the op floors."""
    from percentiles import summarize

    floors = [min(times) for times in zip(*(ops for _, ops in passes))]
    latency = summarize(floors)
    ready_s = min(ready for ready, _ in passes)
    return {"wall_s": ready_s + sum(floors), "ready_s": ready_s,
            "ops_per_s": len(floors) / sum(floors),
            "op_tail_ms": 1000.0 * latency["tail"]}, latency


def trace(workload, seed: int, seconds: int):
    """``--trace 1``: traced, untraced and traced passes of one seed."""
    import layers
    from percentiles import median
    from tracing import Tracer

    def one_pass(tracer=None):
        state = _timed_setup(workload, seed)[0]
        try:
            if tracer is None:
                return workload.run(state, seed, seconds)
            layers.install(tracer)
            try:
                return workload.run(state, seed, seconds, tracer)
            finally:
                tracer.restore()
        finally:
            workload.close(state)

    first, second = Tracer(), Tracer()
    traced = [one_pass(first)]
    untraced_check = _wrappers_left()
    untraced = one_pass()
    traced.append(one_pass(second))

    problems = [f"tracer left wrapped: {name}" for name in untraced_check]
    # same seed, same counters: the two traced passes start from
    # separate set-ups of one seed, so any counter that moved between
    # them is nondeterminism in the program or the benchmark
    counters = layers.deterministic_counters(first)
    again = layers.deterministic_counters(second)
    for name in sorted(counters):
        if counters[name] != again.get(name):
            problems.append(f"counter {name} moved: {counters[name]} in "
                            f"the first traced pass, {again.get(name)} in "
                            f"the second")
    path = HERE / "out" / f"trace-{workload.name}-{seed}.json"
    values = layers.per_layer_metrics(first, traced[0].investors_rss_mb)
    values["bench.trace_overhead_s"] = (
        median([p.wall_s for p in traced]) - untraced.wall_s)
    _write_spans(path, workload.name, seed, first, counters)
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    report = [(name, values[name], units[name])
              for name, _unit, _better in layers.PER_LAYER]
    print(f"# {workload.name}: traced wall_s "
          f"{[round(p.wall_s, 3) for p in traced]}, untraced "
          f"{untraced.wall_s:.3f}")
    for name, row in sorted(first.durations().items()):
        print(f"# span {name:<34} calls {row['calls']:>7} total "
              f"{row['total_s']:9.3f} s self {row['self_s']:9.3f} s "
              f"rss {row['rss_mb']:8.1f} MB")
    return report, traced + [untraced], problems


def _wrappers_left():
    """Names of plan functions still carrying a tracer wrapper."""
    import importlib

    import layers

    left = []
    for module_name, class_name, attr, *_ in layers.PLAN:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        value = owner.__dict__[attr] if class_name else getattr(owner,
                                                                attr)
        value = getattr(value, "__func__", value)
        if hasattr(value, "__wrapped__"):
            left.append(f"{module_name}.{class_name or ''}.{attr}")
    return left


def _write_spans(path: Path, workload: str, seed: int, tracer,
                 counters) -> None:
    path.parent.mkdir(exist_ok=True)
    payload = {"workload": workload, "seed": seed,
               "fields": ["id", "name", "parent", "start", "end",
                          "rss_mb", "thread"],
               "spans": tracer.spans,
               "layers": tracer.durations(),
               "timed": tracer.totals,
               "counters": counters}
    path.write_text(json.dumps(payload))
    print(f"# spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20160626)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    from hostspeed import pin_to_one_cpu
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; expected one "
                     f"of {sorted(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    pin_to_one_cpu()
    report, passes, problems = (trace if args.trace else measure)(
        workload, args.seed, args.seconds)
    for p in passes:
        problems.extend(p.problems)
    for problem in problems[:50]:
        print(f"# FAILED {problem}")
    for name, value, unit in report:
        print(f"{name} {value:.6g} {unit}")
    attempted = sum(p.attempted for p in passes)
    print(json.dumps({
        "correct": not problems,
        "attempted": max(1, attempted, len(problems)),
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in report}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
