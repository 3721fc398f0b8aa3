"""The traced run: per-layer attribution plus a determinism self-check.

It serves a fixed number of rounds with spans on every layer, then serves
the same rounds again untraced on a fresh engine or pool (the digest of
all slates and the public counters must match, and the two throughputs
give ``trace_overhead``), then serves one round of the next seed (its
digest must differ).
"""

from __future__ import annotations

import sys
from dataclasses import asdict
from time import perf_counter

from checks import outcome, report
from drive import Recorder, make_client, serve, set_up
from inputs import build_inputs
from layers import (
    SpanClock,
    instrument_engine,
    instrument_engine_classes,
    instrument_pool,
)

#: Every per-layer metric with its unit; a layer that does not run in a
#: workload reports 0.
PER_LAYER = {
    "text.vectorize_us_per_post": "us",
    "index.probe_ms_per_post": "ms",
    "index.probe_depth_mean": "count",
    "index.mutation_us_per_op": "us",
    "index.compactions": "count",
    "core.personalize_ms_per_delivery": "ms",
    "core.fanout_us_per_delivery": "us",
    "core.certified_share": "ratio",
    "core.fallback_deliveries": "count",
    "core.incremental_refresh_rate": "ratio",
    "core.static_sync_ms": "ms",
    "core.static_sync_us_per_post": "us",
    "profiles.context_add_us_per_delivery": "us",
    "profiles.update_us_per_post": "us",
    "ads.charge_us_per_delivery": "us",
    "ads.feedback_us_per_delivery": "us",
    "learn.rerank_us_per_delivery": "us",
    "learn.observe_us_per_delivery": "us",
    "learn.fold_ms_per_epoch": "ms",
    "learn.folds": "count",
    "learn.click_us_per_click": "us",
    "learn.clicks": "count",
    "cluster.send_ms_per_batch": "ms",
    "cluster.collect_ms_per_batch": "ms",
    "cluster.router_ms_per_batch": "ms",
    "cluster.worker_busy_ms_per_batch": "ms",
    "cluster.rpc_bytes_per_post": "bytes",
    "cluster.load_imbalance": "ratio",
    "cluster.amplification": "ratio",
    "unattributed_share": "ratio",
    "trace_overhead": "ratio",
}


def _per(value: float, count: int, scale: float = 1.0) -> float:
    return value * scale / count if count else 0.0


def _counters(client) -> dict:
    """The public counters, for the window figures and the self-check."""
    engine = client.engine
    if hasattr(engine, "cluster_stats"):
        return asdict(engine.cluster_stats())
    from repro.index.compact import CompactIndex

    counters = asdict(engine.stats)
    counters["compactions"] = CompactIndex.shared(engine.index).rebuilds
    return counters


def _engine_layers(clock, timing, window) -> dict:
    posts, deliveries = timing.posts, timing.deliveries
    return {
        "text.vectorize_us_per_post": _per(clock.total("text.vectorize"), posts, 1e6),
        "index.probe_ms_per_post": _per(clock.total("index.probe"), posts, 1e3),
        "index.probe_depth_mean": _per(
            window["probe_depth_total"], window["shared_probes"]
        ),
        "index.mutation_us_per_op": _per(
            clock.total("index.mutation"), clock.calls("index.mutation"), 1e6
        ),
        "index.compactions": window["compactions"],
        "core.personalize_ms_per_delivery": _per(
            clock.total("core.personalize"), deliveries, 1e3
        ),
        "core.fanout_us_per_delivery": _per(
            clock.totals.get("core.fanout", [0, 0.0, 0.0])[2], deliveries, 1e6
        ),
        "core.certified_share": _per(
            window["certified_deliveries"], window["deliveries"]
        ),
        "core.fallback_deliveries": window["fallback_deliveries"],
        "core.incremental_refresh_rate": _per(
            window["incremental_refreshes"], window["deliveries"]
        ),
        "core.static_sync_ms": clock.firsts.get("core.static_sync", 0.0) * 1e3,
        "core.static_sync_us_per_post": _per(
            clock.total("core.static_sync"), posts, 1e6
        ),
        "profiles.context_add_us_per_delivery": _per(
            clock.total("profiles.context_add"), deliveries, 1e6
        ),
        "profiles.update_us_per_post": _per(
            clock.total("profiles.update"), posts, 1e6
        ),
        "ads.charge_us_per_delivery": _per(clock.total("ads.charge"), deliveries, 1e6),
        "ads.feedback_us_per_delivery": _per(
            clock.total("ads.feedback"), deliveries, 1e6
        ),
        "learn.rerank_us_per_delivery": _per(
            clock.total("learn.rerank"), deliveries, 1e6
        ),
        "learn.observe_us_per_delivery": _per(
            clock.total("learn.observe"), deliveries, 1e6
        ),
        "learn.fold_ms_per_epoch": _per(
            clock.total("learn.fold"), clock.calls("learn.fold"), 1e3
        ),
        "learn.folds": clock.calls("learn.fold"),
        "learn.click_us_per_click": _per(
            clock.total("learn.click"), clock.calls("learn.click"), 1e6
        ),
        "learn.clicks": clock.calls("learn.click"),
    }


def _stage_seconds(by_shard) -> list[dict[str, float]]:
    return [
        {name: stats.total_seconds for name, stats in stages.items()}
        for stages in by_shard
    ]


def _pool_layers(clock, timing, pool, window, shards_before) -> dict:
    posts, deliveries, batches = timing.posts, timing.deliveries, timing.rounds
    send = clock.total("cluster.send")
    collect = clock.total("cluster.collect")
    shards = [
        {name: seconds - old.get(name, 0.0) for name, seconds in new.items()}
        for new, old in zip(
            _stage_seconds(pool.stage_report_by_shard()), shards_before
        )
    ]

    def stage_total(name: str) -> float:
        return sum(shard.get(name, 0.0) for shard in shards)

    busy = max(
        shard.get("candidate", 0.0) + shard.get("delivery", 0.0)
        for shard in shards
    )
    return {
        "text.vectorize_us_per_post": _per(clock.total("text.vectorize"), posts, 1e6),
        "index.probe_ms_per_post": _per(stage_total("candidate"), posts, 1e3),
        "index.probe_depth_mean": _per(
            window["probe_depth_total"], window["shared_probes"]
        ),
        "core.personalize_ms_per_delivery": _per(
            stage_total("personalize"), deliveries, 1e3
        ),
        "core.certified_share": _per(
            window["certified_deliveries"], window["deliveries"]
        ),
        "core.fallback_deliveries": window["fallback_deliveries"],
        "ads.charge_us_per_delivery": _per(stage_total("charge"), deliveries, 1e6),
        "ads.feedback_us_per_delivery": _per(
            stage_total("feedback"), deliveries, 1e6
        ),
        "cluster.send_ms_per_batch": _per(send, batches, 1e3),
        "cluster.collect_ms_per_batch": _per(collect, batches, 1e3),
        "cluster.router_ms_per_batch": _per(
            clock.total("cluster.router") - send - collect, batches, 1e3
        ),
        "cluster.worker_busy_ms_per_batch": _per(busy, batches, 1e3),
        "cluster.rpc_bytes_per_post": _per(sum(clock.tallies.values()), posts),
        "cluster.load_imbalance": pool.load_imbalance(),
        "cluster.amplification": pool.amplification(),
    }


def _replay(workload, inputs, seed, rounds, *, mark_after=None):
    """Fresh engine or pool, untraced: set up, serve ``rounds`` rounds."""
    client = make_client(workload, inputs, seed)
    recorder = Recorder(inputs)
    set_up(client, inputs, recorder)
    timing = serve(client, inputs.rounds, recorder, count=rounds,
                   mark_after=mark_after)
    counters = _counters(client)
    client.close()
    return recorder, timing, counters


def per_layer(args, inputs, rounds: int) -> dict:
    from repro.obs.tracer import RecordingTracer

    workload = args.workload
    pooled = workload == "feed-procpool"
    clock = SpanClock()
    if not pooled:
        instrument_engine_classes(clock)
    client = make_client(
        workload, inputs, args.seed,
        tracer=RecordingTracer() if pooled else None,
    )
    recorder = Recorder(inputs)
    set_up(client, inputs, recorder)
    if pooled:
        instrument_pool(clock, client.engine)
    else:
        instrument_engine(clock, client.engine)
    before = _counters(client)
    if pooled:
        shards_before = _stage_seconds(client.engine.stage_report_by_shard())
    clock.reset()
    started = perf_counter()
    timing = serve(client, inputs.rounds, recorder, count=rounds, mark_after=1)
    wall = perf_counter() - started
    clock.restore()
    after = _counters(client)
    window = {name: after[name] - before[name] for name in before}
    if pooled:
        layers = _pool_layers(clock, timing, client.engine, window, shards_before)
    else:
        layers = _engine_layers(clock, timing, window)

    problems: list[str] = []
    attempted, failed = outcome(workload, inputs, client, recorder, timing, problems)

    again, again_timing, again_counters = _replay(
        workload, inputs, args.seed, timing.rounds
    )
    if again.digest() != recorder.digest() or again_counters != after:
        problems.append("a second run of the same seed served different slates")
    other_inputs = build_inputs(args.seed + 1, churn=workload == "feed-incremental")
    other, _, _ = _replay(workload, other_inputs, args.seed + 1, 1, mark_after=1)
    if other.marks[0] == recorder.marks[0]:
        problems.append("the next seed served the same slates")

    layers["unattributed_share"] = 1.0 - clock.self_time() / timing.program_s
    traced_dps = timing.deliveries / timing.program_s
    untraced_dps = again_timing.deliveries / again_timing.program_s
    layers["trace_overhead"] = traced_dps / untraced_dps
    print(
        f"{workload} seed {args.seed} traced: {timing.rounds} rounds, "
        f"{timing.posts} posts, {timing.deliveries} deliveries, "
        f"{timing.program_s:.2f} s in the program of {wall:.2f} s; "
        f"{traced_dps:.0f} deliveries/s traced, {untraced_dps:.0f} untraced",
        file=sys.stderr,
    )
    for name, (calls, total, own) in sorted(clock.totals.items()):
        print(
            f"  {name:24s} {calls:8d} calls {total:9.3f} s  self {own:9.3f} s",
            file=sys.stderr,
        )
    metrics = {
        name: (float(layers.get(name, 0.0)), unit)
        for name, unit in PER_LAYER.items()
    }
    return report(problems, attempted, failed, metrics)
