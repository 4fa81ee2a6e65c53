"""Which layer functions the traced run wraps, and the per-layer metrics.

Each entry of the plan names a public function of one of the program's
layers (``net``, ``crawl``, ``dfs``, ``engine``, ``graph``, ``analysis``,
``community``, ``metrics``, ``serve``) and how to record it. The metric
names are ``<layer>.<what>``; ``per_layer_metrics`` turns one traced
pass into the full set, reporting zero for a layer the workload never
reaches, so every workload prints the same names.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

from tracing import COUNT, SAMPLED, SPAN, TIMED, Tracer

PLUGIN_SPANS = {
    "engagement_table": "analysis.engagement",
    "investor_activity": "analysis.investors",
    "community_study": "analysis.community",
    "success_prediction": "analysis.prediction",
}
QUERY_KINDS = ("company", "investor", "neighborhood", "community",
               "engagement")

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER: List[Tuple[str, str, str]] = [
    ("net.requests", "count", "lower"),
    ("net.handle_s", "s", "lower"),
    ("net.route_matches", "count", "lower"),
    ("crawl.bfs_s", "s", "lower"),
    ("crawl.augment_s", "s", "lower"),
    ("crawl.enrich_s", "s", "lower"),
    ("crawl.retries", "count", "lower"),
    ("dfs.records_written", "count", "lower"),
    ("dfs.bytes_written", "bytes", "lower"),
    ("dfs.write_s", "s", "lower"),
    ("dfs.part_reads", "count", "lower"),
    ("dfs.part_bytes_read", "bytes", "lower"),
    ("engine.jobs", "count", "lower"),
    ("engine.tasks", "count", "lower"),
    ("engine.shuffle_bytes", "bytes", "lower"),
    ("engine.cache_spill_bytes", "bytes", "lower"),
    ("engine.job_s", "s", "lower"),
    ("graph.build_s", "s", "lower"),
    ("analysis.engagement_s", "s", "lower"),
    ("analysis.investors_s", "s", "lower"),
    ("analysis.community_s", "s", "lower"),
    ("analysis.prediction_s", "s", "lower"),
    ("analysis.investors_rss_mb", "MB", "lower"),
    ("community.coda_fit_s", "s", "lower"),
    ("metrics.shared_sizes_s", "s", "lower"),
    ("serve.index_build_s", "s", "lower"),
] + [(f"serve.execute_s.{kind}", "s", "lower") for kind in QUERY_KINDS] + [
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("crawl.scheduler.units", "count", "lower"),
    ("crawl.scheduler.units_redelivered", "count", "lower"),
    ("crawl.scheduler.leases_lost", "count", "lower"),
    ("crawl.ledger.records", "count", "lower"),
    ("dfs.upsert.apply_s", "s", "lower"),
    ("dfs.upsert.delta_files", "count", "lower"),
    ("crawl.incremental.update_s", "s", "lower"),
    ("crawl.incremental.records_scanned", "count", "lower"),
    ("serve.alerting.evaluate_s", "s", "lower"),
    ("serve.alerting.notifications", "count", "lower"),
    ("serve.outbox.attempts", "count", "lower"),
    ("serve.outbox.delivered", "count", "higher"),
    ("serve.outbox.drain_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
]

#: counters that are pure functions of the seed: two traced passes over
#: the same seed must read exactly the same
DETERMINISTIC = (
    "net.requests", "net.route_matches", "crawl.retries",
    "dfs.records_written", "dfs.bytes_written", "dfs.part_reads",
    "dfs.part_bytes_read", "engine.jobs", "engine.tasks",
    "engine.shuffle_bytes", "engine.cache_spill_bytes",
    "serve.cached", "serve.fresh",
    "crawl.scheduler.units", "crawl.scheduler.units_redelivered",
    "crawl.scheduler.leases_lost", "crawl.ledger.records",
    "dfs.upsert.delta_files", "crawl.incremental.records_scanned",
    "serve.alerting.notifications", "serve.outbox.attempts",
    "serve.outbox.delivered",
)

#: the default spill directory of the engine's partition cache
_SPILL_PREFIX = "/engine/cache/"


# ------------------------------------------------------------ after hooks
def _created(tracer: Tracer, _result, args, _kwargs) -> None:
    path, data = args[1], args[2]
    tracer.add("dfs.bytes_written", len(data))
    if path.startswith(_SPILL_PREFIX):
        tracer.add("engine.cache_spill_bytes", len(data))


def _hedged(tracer: Tracer, result, _args, _kwargs) -> None:
    tracer.add("dfs.part_reads")
    tracer.add("dfs.part_bytes_read", len(result.data))


def _job(tracer: Tracer, _result, args, _kwargs) -> None:
    job = args[1]
    tracer.add("engine.jobs")
    tracer.add("engine.tasks", job.partitions_computed)
    tracer.add("engine.shuffle_bytes", job.shuffle_bytes)


def _crawled(tracer: Tracer, summary, _args, _kwargs) -> None:
    tracer.add("crawl.retries", sum(
        stats.retries for stats in (
            summary.angellist.client_stats,
            summary.crunchbase.client_stats,
            summary.facebook.client_stats,
            summary.twitter.client_stats) if stats is not None))


def _executed(tracer: Tracer, result, _args, _kwargs) -> None:
    if result.status in ("cached", "fresh"):
        tracer.add(f"serve.{result.status}")


def _ingested(tracer: Tracer, _report, args, _kwargs) -> None:
    scheduler = args[0]
    tracer.set("crawl.scheduler.units", scheduler.stats.units_committed)
    tracer.set("crawl.scheduler.units_redelivered",
               scheduler.stats.units_redelivered)
    tracer.set("crawl.scheduler.leases_lost", scheduler.stats.leases_lost)
    tracer.set("crawl.ledger.records", len(scheduler.ledger))


def _applied(tracer: Tracer, result, _args, _kwargs) -> None:
    if result.applied:
        tracer.add("dfs.upsert.delta_files")
        tracer.add("dfs.upsert.records", result.records)


def _updated(tracer: Tracer, update, _args, _kwargs) -> None:
    tracer.add("crawl.incremental.records_scanned", update.records_scanned)


def _evaluated(tracer: Tracer, notifications, _args, _kwargs) -> None:
    tracer.add("serve.alerting.notifications", len(notifications))


def _drained(tracer: Tracer, _made, args, _kwargs) -> None:
    outbox = args[0]
    tracer.set("serve.outbox.attempts", outbox.stats.attempts)
    tracer.set("serve.outbox.delivered", outbox.stats.delivered)


def _plugin_span(args, kwargs) -> str:
    name = args[1] if len(args) > 1 else kwargs["name"]
    return PLUGIN_SPANS.get(name, f"analysis.{name}")


def _execute_span(args, kwargs) -> str:
    request = args[1] if len(args) > 1 else kwargs["request"]
    return f"serve.execute.{request.kind}"


#: (module, class or None for a module function, attribute, span name,
#:  kind, keyword options)
PLAN = [
    ("repro.net.http", "SimServer", "handle", "net.handle", SAMPLED, {}),
    ("repro.net.http", "Route", "match", "net.route_matches", COUNT, {}),
    ("repro.core.platform", "ExploratoryPlatform", "run_full_crawl",
     "crawl.full", SPAN, {"after": _crawled}),
    ("repro.crawl.frontier", "BfsCrawler", "run", "crawl.bfs", SPAN, {}),
    ("repro.crawl.augment", "CrunchBaseAugmenter", "run", "crawl.augment",
     SPAN, {}),
    ("repro.crawl.enrich", "FacebookCrawler", "run", "crawl.enrich",
     SPAN, {"layer": "crawl.enrich"}),
    ("repro.crawl.enrich", "FacebookCrawler", "replay", "crawl.enrich",
     SPAN, {"layer": "crawl.enrich"}),
    ("repro.crawl.enrich", "TwitterCrawler", "run", "crawl.enrich",
     SPAN, {"layer": "crawl.enrich"}),
    ("repro.crawl.enrich", "TwitterCrawler", "replay", "crawl.enrich",
     SPAN, {"layer": "crawl.enrich"}),
    ("repro.dfs.jsonlines", "JsonLinesWriter", "write", "dfs.encode",
     SAMPLED, {"exclude": "dfs.write"}),
    ("repro.dfs.jsonlines", "JsonLinesWriter", "flush", "dfs.write",
     TIMED, {"layer": "dfs.write"}),
    ("repro.dfs.jsonlines", "JsonLinesWriter", "close", "dfs.write",
     TIMED, {"layer": "dfs.write"}),
    ("repro.dfs.filesystem", "MiniDfs", "write_atomic", "dfs.write",
     TIMED, {"layer": "dfs.write"}),
    ("repro.dfs.filesystem", "MiniDfs", "create", "dfs.write", TIMED,
     {"layer": "dfs.write", "after": _created}),
    ("repro.dfs.filesystem", "MiniDfs", "read_hedged", "dfs.read_hedged",
     TIMED, {"after": _hedged}),
    ("repro.engine.rdd", "RDD", "collect", "engine.job", SPAN,
     {"layer": "engine"}),
    ("repro.engine.rdd", "RDD", "count", "engine.job", SPAN,
     {"layer": "engine"}),
    ("repro.engine.rdd", "RDD", "take", "engine.job", SPAN,
     {"layer": "engine"}),
    ("repro.engine.rdd", "RDD", "save_as_json_dataset", "engine.job",
     SPAN, {"layer": "engine"}),
    ("repro.engine.metrics", "MetricsTrace", "append", "engine.jobs",
     COUNT, {"after": _job}),
    ("repro.graph.build", None, "build_investor_graph", "graph.build",
     SPAN, {}),
    ("repro.core.platform", "ExploratoryPlatform", "run_plugin",
     "analysis", SPAN, {"namer": _plugin_span}),
    ("repro.community.coda", "CoDA", "fit", "community.coda_fit", SPAN,
     {}),
    ("repro.metrics.shared", None, "sampled_shared_sizes",
     "metrics.shared_sizes", SPAN, {}),
    ("repro.serve.dataset", "ServeDataset", "build", "serve.index_build",
     SPAN, {}),
    ("repro.serve.service", "QueryService", "execute", "serve.execute",
     SPAN, {"namer": _execute_span, "after": _executed}),
    ("repro.crawl.scheduler", "ContinuousScheduler", "run_until_day",
     "crawl.scheduler.run", SPAN, {"after": _ingested}),
    ("repro.dfs.upsert", "UpsertDataset", "apply", "dfs.upsert.apply",
     SPAN, {"after": _applied}),
    ("repro.crawl.incremental", "DerivedMaintainer", "update",
     "crawl.incremental.update", SPAN, {"after": _updated}),
    ("repro.serve.alerting", "AlertEvaluator", "evaluate_unit",
     "serve.alerting.evaluate", SPAN, {"after": _evaluated}),
    ("repro.serve.outbox", "DeliveryOutbox", "drain", "serve.outbox.drain",
     SPAN, {"after": _drained}),
]


def install(tracer: Tracer) -> None:
    """Wrap every function of the plan (undo with ``tracer.restore``)."""
    for module_name, class_name, attr, name, kind, options in PLAN:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        tracer.wrap(owner, attr, name, kind, **options)


def per_layer_metrics(tracer: Tracer,
                      investors_rss_mb: float) -> Dict[str, float]:
    """The PER_LAYER values of one traced pass (overhead filled later)."""
    spans = tracer.durations()
    counters = tracer.counters

    def span_s(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def timed_s(name: str) -> float:
        return tracer.totals.get(name, [0, 0.0])[1]

    cached = counters.get("serve.cached", 0)
    fresh = counters.get("serve.fresh", 0)
    values = {
        "net.requests": tracer.calls("net.handle"),
        "net.handle_s": tracer.estimated_s("net.handle"),
        "net.route_matches": tracer.calls("net.route_matches"),
        "crawl.bfs_s": span_s("crawl.bfs"),
        "crawl.augment_s": span_s("crawl.augment"),
        "crawl.enrich_s": span_s("crawl.enrich"),
        "dfs.records_written": tracer.calls("dfs.encode")
        + counters.get("dfs.upsert.records", 0),
        "dfs.write_s": timed_s("dfs.write") + tracer.estimated_s("dfs.encode"),
        "engine.job_s": span_s("engine.job"),
        "graph.build_s": span_s("graph.build"),
        "analysis.engagement_s": span_s("analysis.engagement"),
        "analysis.investors_s": span_s("analysis.investors"),
        "analysis.community_s": span_s("analysis.community"),
        "analysis.prediction_s": span_s("analysis.prediction"),
        "analysis.investors_rss_mb": investors_rss_mb,
        "community.coda_fit_s": span_s("community.coda_fit"),
        "metrics.shared_sizes_s": span_s("metrics.shared_sizes"),
        "serve.index_build_s": span_s("serve.index_build"),
        "serve.cache_hit_ratio": cached / (cached + fresh)
        if cached + fresh else 0.0,
        "dfs.upsert.apply_s": span_s("dfs.upsert.apply"),
        "crawl.incremental.update_s": span_s("crawl.incremental.update"),
        "serve.alerting.evaluate_s": span_s("serve.alerting.evaluate"),
        "serve.outbox.drain_s": span_s("serve.outbox.drain"),
        "bench.trace_overhead_s": 0.0,
    }
    for kind in QUERY_KINDS:
        values[f"serve.execute_s.{kind}"] = span_s(f"serve.execute.{kind}")
    for name, _unit, _better in PER_LAYER:
        values.setdefault(name, counters.get(name, 0))
    return values


def deterministic_counters(tracer: Tracer) -> Dict[str, float]:
    """The seed-determined counters of one traced pass."""
    values = dict(tracer.counters)
    values.update(per_layer_metrics(tracer, investors_rss_mb=0.0))
    return {name: values.get(name, 0) for name in DETERMINISTIC}
