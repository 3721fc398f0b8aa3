"""The closed-loop client: one engine or pool, one caller, whole rounds.

Every call into the program is timed on its own; the benchmark's work
between calls (click draws, recording outputs) is not. A post's latency
is the duration of the call that carried it: ``AdEngine.post`` for the
single engine, the ``post_batch`` call of its round for the pool.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from time import perf_counter

from repro.cluster.procpool import ProcessShardedEngine
from repro.core.config import EngineConfig, EngineMode
from repro.core.engine import AdEngine
from repro.errors import EvaluationError
from repro.stream.clicks import ClickSimulator

from inputs import CHECKIN, END, LAUNCH, POST, Inputs, Round

WORKERS = 2


def engine_config(workload: str) -> EngineConfig:
    if workload == "feed-incremental":
        return EngineConfig(
            mode=EngineMode.INCREMENTAL,
            searcher="vector",
            personalize="linucb",
            ctr_feedback=True,
        )
    return EngineConfig(mode=EngineMode.SHARED, searcher="vector")


@dataclass
class Timing:
    """What one stretch of rounds cost inside the program."""

    program_s: float = 0.0
    post_s: list[float] = field(default_factory=list)
    round_post_s: list[float] = field(default_factory=list)
    posts: int = 0
    deliveries: int = 0
    rounds: int = 0


class Recorder:
    """Every served slate plus what the client knew when it was served:
    the follower's latest location and the churn applied so far."""

    def __init__(self, inputs: Inputs) -> None:
        self.location = {
            user.user_id: user.home for user in inputs.workload.users
        }
        self.call = 0
        self.launched_at: dict[int, int] = {}
        self.ended_at: dict[int, int] = {}
        #: (msg_id, author_id, timestamp, call, [(user, ids, scores, loc)])
        self.posts: list[tuple] = []
        self._digest = hashlib.sha256()
        self.marks: list[str] = []

    def checkin(self, checkin) -> None:
        self.location[checkin.user_id] = checkin.point
        self.call += 1

    def launch(self, ad) -> None:
        self.launched_at[ad.ad_id] = self.call
        self.call += 1

    def end(self, ad_id: int) -> None:
        self.ended_at.setdefault(ad_id, self.call)
        self.call += 1

    def post(self, post, deliveries) -> None:
        location = self.location
        served = []
        update = self._digest.update
        update(f"m{post.msg_id}".encode())
        for delivery in deliveries:
            ids = tuple(scored.ad_id for scored in delivery.slate)
            scores = tuple(scored.score for scored in delivery.slate)
            served.append(
                (delivery.user_id, ids, scores, location[delivery.user_id])
            )
            update(f"u{delivery.user_id}:{ids}:{scores}".encode())
        self.posts.append(
            (post.msg_id, post.author_id, post.timestamp, self.call, served)
        )
        self.call += 1

    def mark(self) -> None:
        """Remember the digest of everything served so far."""
        self.marks.append(self._digest.hexdigest())

    def digest(self) -> str:
        return self._digest.hexdigest()


class Clicker:
    """Ground-truth-graded clicks on served slates (feed-incremental)."""

    def __init__(self, inputs: Inputs, seed: int) -> None:
        self._truth = inputs.workload.ground_truth
        self._sim = ClickSimulator(random.Random(f"perfbench-clicks-{seed}"))

    def clicks(self, result):
        truth = self._truth
        events = []
        for delivery in result.deliveries:
            if not delivery.slate:
                continue

            def grade(ad_id, user=delivery.user_id):
                try:
                    return truth.grade(ad_id, result.msg_id, user, result.timestamp)
                except EvaluationError:
                    return 0.0  # launched mid-stream: unknown to the truth

            events.extend(self._sim.click_events(delivery, grade))
        return events


class EngineClient:
    """feed-shared and feed-incremental: one ``AdEngine``, one call per
    post, check-in, launch, ending and click, in stream order."""

    def __init__(self, inputs: Inputs, config: EngineConfig, clicker=None):
        self.inputs = inputs
        self.config = config
        self.clicker = clicker
        self.engine: AdEngine | None = None

    def build(self) -> float:
        """Construct the engine; returns the seconds it took."""
        workload = self.inputs.workload
        started = perf_counter()
        engine = AdEngine(
            workload.build_corpus(),
            workload.graph,
            workload.vectorizer,
            tokenizer=workload.tokenizer,
            config=self.config,
        )
        for user in workload.users:
            engine.register_user(user.user_id, user.home)
        elapsed = perf_counter() - started
        self.engine = engine
        return elapsed

    def play(self, rnd: Round, timing: Timing, recorder: Recorder) -> None:
        engine = self.engine
        clicker = self.clicker
        round_post = 0.0
        for timestamp, kind, payload in rnd.events:
            if kind == POST:
                started = perf_counter()
                result = engine.post(
                    payload.author_id, payload.text, payload.timestamp,
                    msg_id=payload.msg_id,
                )
                elapsed = perf_counter() - started
                timing.post_s.append(elapsed)
                round_post += elapsed
                timing.program_s += elapsed
                timing.posts += 1
                timing.deliveries += result.num_deliveries
                recorder.post(payload, result.deliveries)
                if clicker is not None:
                    for click in clicker.clicks(result):
                        started = perf_counter()
                        engine.record_click(
                            click.ad_id, user_id=click.user_id,
                            slot_index=click.slot_index,
                        )
                        timing.program_s += perf_counter() - started
            elif kind == CHECKIN:
                started = perf_counter()
                engine.checkin(payload.user_id, payload.point, timestamp)
                timing.program_s += perf_counter() - started
                recorder.checkin(payload)
            elif kind == LAUNCH:
                started = perf_counter()
                engine.launch_campaign(payload, timestamp)
                timing.program_s += perf_counter() - started
                recorder.launch(payload)
            elif kind == END:
                started = perf_counter()
                engine.end_campaign(payload, timestamp)
                timing.program_s += perf_counter() - started
                recorder.end(payload)
        timing.round_post_s.append(round_post)
        timing.rounds += 1

    def budget_spend(self) -> dict[str, float]:
        from repro.io.checkpoint import engine_state_dict

        return engine_state_dict(self.engine)["budgets"]

    def close(self) -> None:
        self.engine = None


class PoolClient:
    """feed-procpool: a ``ProcessShardedEngine`` with two workers. A
    round's check-ins go first, then its posts in one ``post_batch``."""

    def __init__(self, inputs: Inputs, config: EngineConfig, tracer=None):
        self.inputs = inputs
        self.config = config
        self.tracer = tracer
        self.engine: ProcessShardedEngine | None = None

    def build(self) -> float:
        started = perf_counter()
        self.engine = ProcessShardedEngine(
            self.inputs.workload, WORKERS, config=self.config,
            tracer=self.tracer,
        )
        return perf_counter() - started

    def play(self, rnd: Round, timing: Timing, recorder: Recorder) -> None:
        pool = self.engine
        for timestamp, kind, payload in rnd.events:
            if kind == CHECKIN:
                started = perf_counter()
                pool.checkin(payload.user_id, payload.point, timestamp)
                timing.program_s += perf_counter() - started
                recorder.checkin(payload)
        started = perf_counter()
        results = pool.post_batch(rnd.posts)
        elapsed = perf_counter() - started
        timing.program_s += elapsed
        timing.round_post_s.append(elapsed)
        timing.post_s.extend([elapsed] * len(rnd.posts))
        timing.posts += len(rnd.posts)
        timing.rounds += 1
        for post, shard_results in zip(rnd.posts, results):
            deliveries = [
                delivery
                for result in shard_results
                for delivery in result.deliveries
            ]
            timing.deliveries += len(deliveries)
            recorder.post(post, deliveries)

    def budget_spend(self) -> dict[str, float]:
        return self.engine.state_dict()["budgets"]

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None


def make_client(workload: str, inputs: Inputs, seed: int, *, tracer=None):
    config = engine_config(workload)
    if workload == "feed-procpool":
        return PoolClient(inputs, config, tracer=tracer)
    clicker = Clicker(inputs, seed) if workload == "feed-incremental" else None
    return EngineClient(inputs, config, clicker)


def set_up(client, inputs: Inputs, recorder: Recorder) -> float:
    """Build, then serve the warm-up prefix; returns the seconds spent
    inside the program (construction plus the warm-up calls)."""
    timing = Timing()
    built = client.build()
    for rnd in inputs.warmup:
        client.play(rnd, timing, recorder)
    return built + timing.program_s


def serve(client, rounds, recorder: Recorder, *, seconds=None, min_posts=0,
          count=None, mark_after: int | None = None) -> Timing:
    """Serve whole rounds: until ``seconds`` of wall time have passed and
    at least ``min_posts`` posts were served, or exactly ``count`` rounds.
    ``mark_after`` rounds in, the recorder remembers its digest."""
    timing = Timing()
    limit = len(rounds) if count is None else min(count, len(rounds))
    started = perf_counter()
    for index in range(limit):
        if (
            seconds is not None
            and timing.posts >= min_posts
            and perf_counter() - started >= seconds
        ):
            break
        client.play(rounds[index], timing, recorder)
        if mark_after is not None and index + 1 == mark_after:
            recorder.mark()
    return timing
