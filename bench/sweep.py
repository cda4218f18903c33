"""One-off fanin size sweep: the fanin world with 400, 800 and 1600 clients
(1/4, 1/2 and 1x the ROADMAP's N=1600 baseline shape; the fanin workload
uses 800), untraced, to show how simulator cost grows with load.

    python3 bench/sweep.py

Prints one markdown row per size with the median run time of three runs at
the default seed, scaled to the reference host speed as in run.py. Every run
is checked as in run.py. It is not a benchmark workload and no check runs
it; its output is recorded in BASELINE.md. The target it gives a start to:
run time at N=1600 within 4.5x of run time at N=400.
"""

from __future__ import annotations

import statistics

import run
import worlds

SIZES = (400, 800, 1600)
REPEATS = 3


def main() -> None:
    run.use_repo_src()
    print("| clients | run_s (median) | events | sim_ticks | events_per_s | run_s / run_s at 400 |")
    print("|---|---|---|---|---|---|")
    base = None
    for clients in SIZES:
        doc = worlds.fanin(run.DEFAULT_SEED, clients=clients)
        verify = run.Verifier(doc, worlds.check_fanin, None)
        runs = []
        for _ in range(REPEATS):
            result, problems = run.measured(doc, None, verify)
            if problems:
                raise SystemExit(f"fanin with {clients} clients: {problems[:3]}")
            runs.append(result)
        run_s = statistics.median(r.run_s * r.scale for r in runs)
        base = base or run_s
        first = runs[0]
        print(f"| {clients} | {run_s:.3f} | {first.events} | {first.ticks} | {first.events / run_s:.0f} | {run_s / base:.2f} |")


if __name__ == "__main__":
    main()
