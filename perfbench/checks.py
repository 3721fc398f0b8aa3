"""Output checks, made apart from the program after the timed window.

Each check reads only the benchmark's own inputs and what the client
recorded when each call returned; none asks the program to judge itself.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro.core.config import EngineMode

from drive import EngineClient, Recorder, Timing, engine_config
from inputs import Inputs, probe_ads, probe_post

#: feed-shared slates compared with the EXACT ``ta`` reference: the
#: warm-up plus this many timed rounds.
EXACT_ROUNDS = 2

#: Problems reported on standard error before the list is cut short.
SHOWN = 10


def check_slates(inputs: Inputs, recorder: Recorder, k: int) -> list[str]:
    """Fan-out, slate shape, ad existence, targeting and churn order."""
    problems: list[str] = []
    graph = inputs.workload.graph
    ads = inputs.ads
    launched_at = recorder.launched_at
    ended_at = recorder.ended_at
    catalog = {ad.ad_id for ad in inputs.workload.ads}
    for msg_id, author, timestamp, call, served in recorder.posts:
        fanout = len(graph.followers(author))
        if len(served) != fanout:
            problems.append(
                f"msg {msg_id}: {len(served)} deliveries, author fan-out {fanout}"
            )
        for user, ids, scores, location in served:
            where = f"msg {msg_id} user {user}"
            if len(ids) > k:
                problems.append(f"{where}: slate of {len(ids)} > k={k}")
            if len(set(ids)) != len(ids):
                problems.append(f"{where}: duplicate ads {ids}")
            if any(a < b for a, b in zip(scores, scores[1:])):
                problems.append(f"{where}: scores increase {scores}")
            for ad_id in ids:
                ad = ads.get(ad_id)
                if ad is None:
                    problems.append(f"{where}: unknown ad {ad_id}")
                    continue
                if ad_id not in catalog and launched_at.get(ad_id, call) >= call:
                    problems.append(f"{where}: ad {ad_id} served before launch")
                if ended_at.get(ad_id, call) < call:
                    problems.append(f"{where}: ad {ad_id} served after its end")
                if not ad.targeting.matches(location, timestamp):
                    problems.append(
                        f"{where}: ad {ad_id} fails its targeting at "
                        f"{location} t={timestamp:.1f}"
                    )
    return problems


def over_budget(budgets: dict[int, float | None], spend: dict[str, float]):
    """Campaigns whose recorded spend exceeds the input budget."""
    over: dict[int, tuple[float, float | None]] = {}
    for key, spent in spend.items():
        ad_id = int(key)
        budget = budgets.get(ad_id)
        if budget is None or spent > budget + 1e-9:
            over[ad_id] = (spent, budget)
    return over


def exact_mismatches(inputs: Inputs, recorder: Recorder, rounds: int):
    """Replay the warm-up and the first ``rounds`` rounds through an
    EXACT-mode engine with the pure-Python ``ta`` searcher and compare
    every slate's ads with what the timed engine served.

    Returns ``(mismatched deliveries, deliveries compared)``.
    """
    exact = EngineClient(
        inputs,
        replace(engine_config("feed-shared"), mode=EngineMode.EXACT, searcher="ta"),
    )
    reference = Recorder(inputs)
    timing = Timing()
    exact.build()
    for rnd in inputs.warmup + inputs.rounds[:rounds]:
        exact.play(rnd, timing, reference)
    mismatches = compared = 0
    for ours, theirs in zip(recorder.posts, reference.posts):
        for (user, ids, _, _), (ref_user, ref_ids, _, _) in zip(ours[4], theirs[4]):
            compared += 1
            if user != ref_user or ids != ref_ids:
                mismatches += 1
    return mismatches, compared


def run_probe(client, rounds: int, timestamp: float) -> list:
    """The pool's budget probe: per timed round, launch the round's capped
    probe campaigns and post the probe message once. Returns the ads."""
    launched = []
    for index in range(rounds):
        for ad in probe_ads(index):
            client.engine.launch_campaign(ad, timestamp)
            launched.append(ad)
        client.engine.post_batch([probe_post(timestamp)])
    return launched


def outcome(workload, inputs, client, recorder, timing, problems):
    """Probe, spend audit and output checks after the timed window.
    Returns (attempted, failed)."""
    attempted = timing.posts
    budgets = {ad_id: ad.budget for ad_id, ad in inputs.ads.items()}
    probe_ids: set[int] = set()
    if workload == "feed-procpool":
        last = inputs.rounds[timing.rounds - 1].posts[-1].timestamp
        probes = run_probe(client, timing.rounds, last)
        attempted += len(probes)
        budgets.update((ad.ad_id, ad.budget) for ad in probes)
        probe_ids = {ad.ad_id for ad in probes}
    over = over_budget(budgets, client.budget_spend())
    failed = sum(1 for ad_id in over if ad_id in probe_ids)
    for ad_id, (spent, budget) in sorted(over.items()):
        if ad_id not in probe_ids:
            problems.append(f"ad {ad_id} spent {spent:.4f} of budget {budget}")
    client.close()
    problems.extend(check_slates(inputs, recorder, client.config.k))
    if workload == "feed-shared":
        mismatches, compared = exact_mismatches(
            inputs, recorder, min(EXACT_ROUNDS, timing.rounds)
        )
        print(
            f"exact check: {mismatches} mismatches in {compared} deliveries",
            file=sys.stderr,
        )
        if mismatches or not compared:
            problems.append(f"{mismatches} slates differ from the EXACT ta run")
    return attempted, failed


def report(problems, attempted, failed, metrics) -> dict:
    for problem in problems[:SHOWN]:
        print(f"check failed: {problem}", file=sys.stderr)
    if len(problems) > SHOWN:
        print(f"... {len(problems) - SHOWN} more", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
