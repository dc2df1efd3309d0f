"""Multiple join queries over three streams sharing one cache.

Appendix C of the paper sketches the generalization from one binary join
to "multiple binary join queries over multiple probabilistic streams":
a tuple's expected benefit becomes the *sum* of its expected benefits
against every partner stream it has a query with.

Scenario: three market data feeds (two exchanges A and C, one
consolidated tape B) with drifting price levels; an arbitrage monitor
runs the queries A⋈B and B⋈C.  Tape tuples (B) are twice as valuable to
cache -- they serve both queries -- and HEEB's summed-benefit scoring
discovers that automatically.

Run:  python examples/multi_query.py
"""

from __future__ import annotations

import numpy as np

from repro.core.lifetime import LExp, alpha_for_mean_lifetime
from repro.policies import (
    GenericJoinHeeb,
    HeebPolicy,
    ProbPolicy,
    RandPolicy,
    ScheduledPolicy,
)
from repro.sim.multi_join import MultiJoinSimulator, solve_opt_offline_multi
from repro.streams import LinearTrendStream, bounded_normal

CACHE_SIZE = 12
LENGTH = 2000
QUERIES = [("A", "B"), ("B", "C")]


def main() -> None:
    models = {
        "A": LinearTrendStream(bounded_normal(10, 1.0), speed=1.0, lag=1),
        "B": LinearTrendStream(bounded_normal(12, 1.5), speed=1.0),
        "C": LinearTrendStream(bounded_normal(15, 2.0), speed=1.0, lag=2),
    }
    streams = {
        name: model.sample_path(LENGTH, np.random.default_rng(i))
        for i, (name, model) in enumerate(models.items())
    }

    alpha = alpha_for_mean_lifetime(4.0)
    policies = {
        "HEEB (summed benefits)": HeebPolicy(GenericJoinHeeb(LExp(alpha), horizon=80)),
        "PROB": ProbPolicy(),
        "RAND": RandPolicy(seed=0),
    }

    print(
        f"3 streams, queries {QUERIES}, shared cache of {CACHE_SIZE} tuples, "
        f"{LENGTH} steps\n"
    )
    results = {}
    occupancy = {}
    for name, policy in policies.items():
        sim = MultiJoinSimulator(
            CACHE_SIZE, policy, queries=QUERIES, warmup=4 * CACHE_SIZE,
            models=models,
        )
        run = sim.run(streams)
        results[name] = run.results_after_warmup
        occupancy[name] = {
            s: float(run.occupancy_by_stream[s][LENGTH // 2 :].mean())
            for s in "ABC"
        }

    solution = solve_opt_offline_multi(streams, QUERIES, CACHE_SIZE)
    opt_run = MultiJoinSimulator(
        CACHE_SIZE,
        ScheduledPolicy(solution),
        queries=QUERIES,
        warmup=4 * CACHE_SIZE,
    ).run(streams)
    results["OPT-OFFLINE (oracle)"] = opt_run.results_after_warmup

    width = max(len(n) for n in results)
    for name, count in sorted(results.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<{width}}  {count:>6}")

    print("\nmean cached tuples per stream (steady state):")
    for name, occ in occupancy.items():
        shares = "  ".join(f"{s}:{occ[s]:.1f}" for s in "ABC")
        print(f"  {name:<{width}}  {shares}")

    heeb_occ = occupancy["HEEB (summed benefits)"]
    print(
        "\nHEEB holds the hub stream B hardest "
        f"(B:{heeb_occ['B']:.1f} vs A:{heeb_occ['A']:.1f}, "
        f"C:{heeb_occ['C']:.1f}): a B tuple serves two queries, so its "
        "summed expected benefit doubles."
    )


if __name__ == "__main__":
    main()
