"""Per-layer attribution for the traced run.

The traced run wraps the public calls of each layer with :class:`SpanClock`
spans. Spans nest: a span's self time is its duration minus the time of
the spans it encloses, so the self times of all layers plus the time no
span covers add up to the time spent inside the program's calls.

Wrappers go on the objects of one engine or pool where the program calls
a method through an instance attribute, and on the class otherwise (only
in the traced process, and removed with :meth:`SpanClock.restore`).
"""

from __future__ import annotations

from time import perf_counter

_ABSENT = object()


class SpanClock:
    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: name -> duration of the first call ever made (survives reset()).
        self.firsts: dict[str, float] = {}
        #: name -> growth of a counter attribute of the called object.
        self.tallies: dict[str, int] = {}
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.totals = {}
        self.tallies = {}

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def total(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_time(self) -> float:
        return sum(record[2] for record in self.totals.values())

    def wrap(self, name, fn, *, rename=None, tally=None):
        """``fn`` timed as span ``name``; ``rename(result)`` may file the
        call under another name once its result is known. ``tally`` names
        a counter attribute of the first argument whose growth is summed."""
        stack = self._stack
        firsts = self.firsts

        def spanned(*args, **kwargs):
            if tally is not None:
                before = getattr(args[0], tally)
            stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
            label = name if rename is None else rename(result)
            record = self.totals.get(label)
            if record is None:
                record = self.totals[label] = [0, 0.0, 0.0]
            record[0] += 1
            record[1] += elapsed
            record[2] += elapsed - child
            if label not in firsts:
                firsts[label] = elapsed
            if tally is not None:
                grown = getattr(args[0], tally) - before
                self.tallies[label] = self.tallies.get(label, 0) + grown
            return result

        return spanned

    def patch(self, owner, attr: str, name: str, *, rename=None, tally=None) -> None:
        """Replace ``owner.attr`` (on an instance or a class) by a span."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            saved = original
        else:
            original = getattr(owner, attr)
            saved = owner.__dict__.get(attr, _ABSENT)
        self._restore.append((owner, attr, saved))
        setattr(owner, attr, self.wrap(name, original, rename=rename, tally=tally))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._restore:
            owner, attr, saved = self._restore.pop()
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)


# -- where the spans go ------------------------------------------------------


def instrument_engine_classes(clock: SpanClock) -> None:
    """Spans on classes the engine reaches through many objects. Install
    before the engine is built, so the first static sync is seen."""
    from repro.core.scoring import StaticRowCache
    from repro.profiles.context import FeedContext
    from repro.profiles.profile import UserProfile

    clock.patch(StaticRowCache, "sync", "core.static_sync")
    clock.patch(FeedContext, "add", "profiles.context_add")
    clock.patch(UserProfile, "update", "profiles.update")


def _folded(folded: bool) -> str:
    return "learn.fold" if folded else "learn.sync_check"


def instrument_engine(clock: SpanClock, engine) -> None:
    """Spans on one ``AdEngine``'s stages, learner and churn calls."""
    pipeline = engine.pipeline
    clock.patch(pipeline.vectorize_stage, "vectorize", "text.vectorize")
    clock.patch(pipeline.candidate_stage, "candidates_for", "index.probe")
    stage = pipeline.personalize_stage
    learner = engine.services.learner
    if learner is not None:
        # The LinUCB wrapper and its base stage are timed apart.
        clock.patch(stage, "personalize", "learn.stage")
        clock.patch(stage.base, "personalize", "core.personalize")
        clock.patch(learner, "rerank", "learn.rerank")
        clock.patch(learner, "observe_slate", "learn.observe")
        clock.patch(learner, "maybe_sync", "learn.sync_check", rename=_folded)
    else:
        clock.patch(stage, "personalize", "core.personalize")
    clock.patch(pipeline.charge_stage, "charge", "ads.charge")
    clock.patch(pipeline.feedback_stage, "observe_impressions", "ads.feedback")
    clock.patch(pipeline, "deliver_batch", "core.fanout")
    clock.patch(engine, "launch_campaign", "index.mutation")
    clock.patch(engine, "end_campaign", "index.mutation")
    clock.patch(engine, "record_click", "learn.click")


def instrument_pool(clock: SpanClock, pool) -> None:
    """Router-side spans of a ``ProcessShardedEngine``. Install after the
    workers have started, so that only the router is patched."""
    from repro.cluster.rpc import Channel
    from repro.core.pipeline import TextVectorizeStage

    clock.patch(TextVectorizeStage, "vectorize", "text.vectorize")
    clock.patch(Channel, "send", "cluster.send", tally="bytes_sent")
    clock.patch(Channel, "recv", "cluster.collect", tally="bytes_received")
    clock.patch(pool, "post_batch", "cluster.router")
