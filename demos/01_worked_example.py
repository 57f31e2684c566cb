"""Walk the seven-state worked example from raw events to transition rates.

Six responses observed at times {1, 5, 6, 8, 12, 17} over a window of 17
define seven states: one per distinct response time plus the silent state
that never responds. The script prints the resulting distance matrix,
proves the strong triangle inequality for every triple by comparing the
matrix with its subdominant ultrametric, and builds the symmetric rate matrix
the relaxation dynamics run on.
"""

import numpy as np

from ultradiffusion.generator import build_generator, check_rate_ultrametricity
from ultradiffusion.traces import EventTrace
from ultradiffusion.ultrametric import build_from_trace, verify_ultrametric

EVENTS = [1.0, 5.0, 6.0, 8.0, 12.0, 17.0]
HORIZON = 17.0
MU = 0.1


def banner(title: str) -> None:
    print(f"\n=== {title} ===")


def print_matrix(names, matrix, fmt) -> None:
    width = max(max(len(n) for n in names) + 2, 9)
    print(" " * width + "".join(f"{n:>{width}}" for n in names))
    for name, row in zip(names, matrix):
        print(f"{name:>{width}}" + "".join(f"{fmt(v):>{width}}" for v in row))


def main() -> None:
    trace = EventTrace(story_id="worked", events=np.array(EVENTS), horizon=HORIZON)
    print(f"story {trace.story_id!r}: {trace.count} events at {EVENTS}, window {HORIZON:g}")

    banner("Ultrametric distance matrix")
    space = build_from_trace(trace)
    names = [f"X_{int(a)}" for a in space.labels]
    print("states are labeled by remaining time a = T - t; X_17 never responds")
    print_matrix(names, space.dist, lambda v: str(int(v)))
    print(f"\n{trace.count} events at {space.size - 1} distinct times "
          "(simultaneous events would share one state)")
    print("the distance between two states is the window minus the later label,")
    print(f"e.g. d(X_11, X_5) = {space.dist[3, 1]:.0f}")

    banner("Strong triangle inequality")
    report = verify_ultrametric(space)
    n = space.labels.size
    verdict = "all pass" if report.ok else report.message
    print(f"{n} states, every triple checked against the subdominant ultrametric: {verdict}")

    banner(f"Transition rates at mu = {MU}")
    gen = build_generator(space, MU)
    print("off-diagonal rate between states: exp(-mu * distance)")
    print_matrix(names, gen.rates, lambda v: f"{v:.4f}")
    print(f"\nlargest |row sum|: {np.max(np.abs(gen.rates.sum(axis=1))):.3e} "
          "(rows sum to zero, probability is conserved)")
    rate_report = check_rate_ultrametricity(gen)
    print("rate matrix satisfies the two-level property:",
          "yes" if rate_report.ok else rate_report.message)


if __name__ == "__main__":
    main()
