"""Benchmark inputs: a fixed catalog plus a seeded feed stream.

The catalog (users, follow graph, ads, fitted vectorizer) is generated
from ``CATALOG_SEED`` and is the same in every run: it stands for the
deployment. ``--seed`` draws the traffic the deployment serves: the
timed posts, the check-ins, the campaign churn and the click draws. The
warm-up prefix is the catalog's own first posts, so set-up replays the
same work whatever the seed.

All inputs are built before anything is timed. The stream is cut into
rounds of ``ROUND_POSTS`` posts; every call the benchmark makes belongs to
one round, and a run times whole rounds only.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate

from repro.ads.ad import Ad
from repro.datagen.churn import generate_churn
from repro.datagen.topicspace import TopicSpace
from repro.datagen.tweetgen import generate_checkins
from repro.datagen.users import UserRecord
from repro.datagen.workload import Workload, WorkloadConfig, generate_workload
from repro.stream.clock import diurnal_timestamps
from repro.stream.events import Checkin, Post

CATALOG_SEED = 7
USERS = 2000
ADS = 8000
#: Posts of the catalog's own day; the warm-up prefix is taken from them.
CATALOG_POSTS = 2000
DAY_S = 86_400.0
WARMUP_POSTS = 96
ROUND_POSTS = 32
#: Seeded posts after the warm-up: more than the fastest workload serves
#: in a 60-second run on a 2-core host.
STREAM_POSTS = 9000
CHECKINS_PER_USER_PER_DAY = 2.0
#: Campaign churn over the seeded part of the day (feed-incremental).
CHURN_ARRIVALS = 900
CHURN_ENDINGS = 900
#: feed-shared and feed-procpool serve campaigns whose budgets no run
#: can exhaust, so no seed makes the pool's budget fault show in the
#: timed stream; the fault is measured by the seed-independent probe
#: below instead. feed-incremental keeps the default budgets, so budget
#: exhaustion retires ads there.
UNEXHAUSTIBLE_BUDGETS = (5.0e5, 5.0e6)
#: feed-incremental refreshes standing slates in pure Python, several
#: times slower per delivery than shared mode; a sparser follow graph
#: keeps a run long enough in posts to give post_p99_ms ten beyond it.
INCREMENTAL_FOLLOWS = 3

# -- the budget probe (seed-independent) -------------------------------------
#: One author followed by PROBE_FOLLOWERS probe users, who follow nobody
#: else and never post; their ids hash onto both shards of a 2-worker pool.
PROBE_AUTHOR = 1_000_000
PROBE_FOLLOWERS = 12
#: Each probe round launches PROBE_CAMPAIGNS capped campaigns matching
#: only the probe post's word, then posts it once.
PROBE_CAMPAIGNS = 2
PROBE_AD_BASE = 10_000_000
PROBE_BUDGET = 0.05
PROBE_BID = 1.0
PROBE_WORD = "w04999"

CHECKIN, LAUNCH, END, POST = 0, 1, 2, 3
_GOLDEN = (5 ** 0.5 - 1) / 2
_SILVER = 2 ** 0.5 - 1


@dataclass
class Round:
    """One round: its posts plus every other call that falls inside it,
    as ``(timestamp, kind, payload)`` in stream order."""

    posts: list[Post]
    events: list[tuple[float, int, object]]


@dataclass
class Inputs:
    workload: Workload
    warmup: list[Round]
    rounds: list[Round]
    #: Every ad that may be served, launched ones included.
    ads: dict[int, Ad]


def _catalog(churn: bool) -> Workload:
    knobs = (
        {"follows_per_user": INCREMENTAL_FOLLOWS}
        if churn
        else {"budget_range": UNEXHAUSTIBLE_BUDGETS}
    )
    return generate_workload(
        WorkloadConfig(
            num_users=USERS,
            num_ads=ADS,
            num_posts=CATALOG_POSTS,
            seed=CATALOG_SEED,
            **knobs,
        )
    )


def _with_probe_users(workload: Workload) -> Workload:
    """Add the probe author and followers to the users and the graph."""
    template = workload.users[0]
    probes = [
        UserRecord(
            user_id=PROBE_AUTHOR + offset,
            mixture=template.mixture,
            home=template.home,
            city=template.city,
            activity=0.0,
        )
        for offset in range(PROBE_FOLLOWERS + 1)
    ]
    graph = workload.graph
    for user in probes:
        graph.add_user(user.user_id)
    for user in probes[1:]:
        graph.follow(user.user_id, PROBE_AUTHOR)
    return replace(workload, users=workload.users + probes)


def probe_ads(round_index: int) -> list[Ad]:
    """The capped campaigns of one probe round (fixed, seed-independent)."""
    return [
        Ad(
            ad_id=PROBE_AD_BASE + round_index * PROBE_CAMPAIGNS + offset,
            advertiser=f"probe_{round_index}_{offset}",
            text=PROBE_WORD,
            terms={PROBE_WORD: 1.0},
            bid=PROBE_BID,
            budget=PROBE_BUDGET,
        )
        for offset in range(PROBE_CAMPAIGNS)
    ]


def probe_post(timestamp: float) -> Post:
    return Post(
        msg_id=0, author_id=PROBE_AUTHOR, text=f"{PROBE_WORD} " * 3,
        timestamp=timestamp,
    )


def _stratified_authors(users, graph, rng: random.Random) -> list[UserRecord]:
    """STREAM_POSTS authors, drawn in proportion to activity but
    stratified by fan-out. Each round takes one author from every
    1/ROUND_POSTS slice of the activity-weighted fan-out distribution.
    Within a slice, successive rounds step through it by the golden
    ratio from a fixed start, so every round carries nearly the same
    fan-out mix and every run the same authors. The seed orders the posts
    within a round; it also draws their words and times, the check-ins,
    the churn and the clicks."""
    ordered = sorted(
        users, key=lambda user: (graph.fanout(user.user_id), user.user_id)
    )
    total = sum(user.activity for user in ordered)
    cumulative = list(accumulate(user.activity / total for user in ordered))
    last = len(ordered) - 1
    starts = [(slot * _SILVER) % 1.0 for slot in range(ROUND_POSTS)]
    authors: list[UserRecord] = []
    for index in range(-(-STREAM_POSTS // ROUND_POSTS)):
        picks = [
            ordered[
                min(
                    last,
                    bisect_right(
                        cumulative,
                        (slot + (start + index * _GOLDEN) % 1.0) / ROUND_POSTS,
                    ),
                )
            ]
            for slot, start in enumerate(starts)
        ]
        rng.shuffle(picks)
        authors.extend(picks)
    return authors[:STREAM_POSTS]


def _cut(posts: list[Post], others: list[tuple[float, int, object]]) -> list[Round]:
    """Split the merged timeline into rounds of ROUND_POSTS posts; each
    non-post event joins the round of the first post at or after it."""
    timeline = sorted(
        others + [(post.timestamp, POST, post) for post in posts],
        key=lambda item: (item[0], item[1]),
    )
    rounds: list[Round] = []
    current = Round([], [])
    for item in timeline:
        current.events.append(item)
        if item[1] == POST:
            current.posts.append(item[2])
            if len(current.posts) == ROUND_POSTS:
                rounds.append(current)
                current = Round([], [])
    return rounds


def build_inputs(seed: int, *, churn: bool) -> Inputs:
    """The catalog plus the stream for ``seed``.

    ``churn`` selects the feed-incremental set-up: default budgets, a
    sparser follow graph and interleaved campaign launches and endings.
    Otherwise budgets cannot run out within a run and the catalog never
    changes.
    """
    base = _with_probe_users(_catalog(churn))
    stream_users = base.users[:USERS]
    warm_posts = base.posts[:WARMUP_POSTS]
    start = warm_posts[-1].timestamp
    warm_checkins = [
        (checkin.timestamp, CHECKIN, checkin)
        for checkin in base.checkins
        if checkin.timestamp <= start
    ]
    warmup = _cut(list(warm_posts), warm_checkins)

    # The seeded day starts just after the last warm-up post.
    origin = start + 1e-3
    span = DAY_S - start
    rng = random.Random(f"perfbench-stream-{seed}")
    authors = _stratified_authors(stream_users, base.graph, rng)
    times = diurnal_timestamps(rng, STREAM_POSTS / span, span, amplitude=0.5)
    while len(times) < STREAM_POSTS:
        times.append(rng.uniform(0.0, span))
    times = sorted(times)[:STREAM_POSTS]
    posts: list[Post] = []
    post_topics = {
        post.msg_id: base.post_topics[post.msg_id] for post in warm_posts
    }
    words_mean = base.config.mean_words_per_post
    for index, (author, offset) in enumerate(zip(authors, times)):
        topic = TopicSpace.sample_topic(author.mixture, rng)
        length = max(4, round(rng.gauss(words_mean, words_mean / 3.0)))
        words = base.topic_space.sample_words(topic, length, rng)
        msg_id = WARMUP_POSTS + index
        post_topics[msg_id] = topic
        posts.append(
            Post(
                msg_id=msg_id,
                author_id=author.user_id,
                text=" ".join(words),
                timestamp=origin + offset,
            )
        )
    others: list[tuple[float, int, object]] = [
        (origin + c.timestamp, CHECKIN,
         Checkin(c.user_id, c.point, origin + c.timestamp))
        for c in generate_checkins(
            stream_users,
            rng,
            duration_s=span,
            mean_per_user=CHECKINS_PER_USER_PER_DAY * span / DAY_S,
        )
    ]
    ads = {ad.ad_id: ad for ad in base.ads}
    if churn:
        schedule = generate_churn(
            base.topic_space,
            sorted(ads),
            random.Random(f"perfbench-churn-{seed}"),
            arrivals=CHURN_ARRIVALS,
            endings=CHURN_ENDINGS,
            duration_s=span,
        )
        for arrival in schedule.arrivals:
            ads[arrival.ad.ad_id] = arrival.ad
            others.append((origin + arrival.timestamp, LAUNCH, arrival.ad))
        for ending in schedule.endings:
            others.append((origin + ending.timestamp, END, ending.ad_id))
    workload = replace(
        base,
        posts=list(warm_posts) + posts,
        post_topics=post_topics,
        checkins=[],
    )
    return Inputs(
        workload=workload,
        warmup=warmup,
        rounds=_cut(posts, others),
        ads=ads,
    )
