"""Closed-loop feed-replay benchmark.

    python3 perfbench/run.py --workload feed-shared --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("feed-shared", "feed-incremental", "feed-procpool")
#: Set-up (construction plus warm-up) is repeated and its median reported.
SETUP_REPEATS = 5
#: A run serves at least this many posts, so post_p99_ms has ten beyond it.
MIN_POSTS = 1000
#: The traced run serves a fixed number of rounds, so its counters repeat
#: exactly for a seed: this many per requested second.
TRACE_ROUNDS_PER_S = {
    "feed-shared": 4.0,
    "feed-incremental": 2.5,
    "feed-procpool": 4.0,
}


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    rank = math.ceil(round(share * len(values), 9))
    return sorted(values)[max(rank, 1) - 1]


def peak_rss_mb(client) -> float:
    """This process's high-water RSS plus, for the pool, each worker's."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    engine = client.engine
    for shard in range(getattr(engine, "num_shards", 0)):
        with open(f"/proc/{engine.worker_pid(shard)}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
    return total_kib / 1024.0


def end_to_end(args, inputs) -> dict:
    from checks import outcome, report
    from drive import Recorder, make_client, serve, set_up

    setups = []
    client = None
    for _ in range(SETUP_REPEATS):
        if client is not None:
            client.close()
        client = make_client(args.workload, inputs, args.seed)
        recorder = Recorder(inputs)
        setups.append(set_up(client, inputs, recorder))
    gc.collect()
    timing = serve(
        client, inputs.rounds, recorder,
        seconds=args.seconds, min_posts=MIN_POSTS,
    )
    rss = peak_rss_mb(client)
    problems: list[str] = []
    attempted, failed = outcome(
        args.workload, inputs, client, recorder, timing, problems
    )
    metrics = {
        "deliveries_per_s": (timing.deliveries / timing.program_s, "deliveries/s"),
        "post_p50_ms": (statistics.median(timing.post_s) * 1e3, "ms"),
        "post_p99_ms": (percentile(timing.post_s, 0.99) * 1e3, "ms"),
        "batch_p50_ms": (statistics.median(timing.round_post_s) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    print(
        f"{args.workload} seed {args.seed}: {timing.rounds} rounds, "
        f"{timing.posts} posts, {timing.deliveries} deliveries, "
        f"{timing.program_s:.2f} s in the program; set-ups "
        + ", ".join(f"{value:.3f}" for value in setups),
        file=sys.stderr,
    )
    return report(problems, attempted, failed, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {SRC}; run from a checkout root",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    from inputs import build_inputs

    inputs = build_inputs(args.seed, churn=args.workload == "feed-incremental")
    if args.trace:
        from traced import per_layer

        rounds = max(1, round(TRACE_ROUNDS_PER_S[args.workload] * args.seconds))
        report = per_layer(args, inputs, rounds)
    else:
        report = end_to_end(args, inputs)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
