"""Extension bench: multiple binary join queries over three streams.

Not a paper figure -- this exercises the Appendix-C generalization: three
trending streams, queries A⋈B and B⋈C, one shared cache.  HEEB sums
per-partner benefits and should approach OPT-offline while PROB/RAND
trail, mirroring the two-stream TOWER shape.
"""

from __future__ import annotations

import numpy as np

from repro.core.lifetime import LExp, alpha_for_mean_lifetime
from repro.experiments.report import format_table
from repro.policies import (
    GenericJoinHeeb,
    HeebPolicy,
    ProbPolicy,
    RandPolicy,
    ScheduledPolicy,
)
from repro.sim.multi_join import MultiJoinSimulator, solve_opt_offline_multi
from repro.streams import LinearTrendStream, bounded_normal

LENGTH = 800
CACHE = 12
N_RUNS = 3
QUERIES = [("A", "B"), ("B", "C")]


def _run_all():
    models = {
        "A": LinearTrendStream(bounded_normal(10, 1.0), speed=1.0, lag=1),
        "B": LinearTrendStream(bounded_normal(12, 1.5), speed=1.0),
        "C": LinearTrendStream(bounded_normal(15, 2.0), speed=1.0, lag=2),
    }
    alpha = alpha_for_mean_lifetime(4.0)
    totals: dict[str, float] = {}
    b_share = 0.0
    for run in range(N_RUNS):
        streams = {
            name: model.sample_path(
                LENGTH, np.random.default_rng(run * 10 + i)
            )
            for i, (name, model) in enumerate(models.items())
        }
        sol = solve_opt_offline_multi(streams, QUERIES, CACHE)
        opt_run = MultiJoinSimulator(
            CACHE, ScheduledPolicy(sol), queries=QUERIES,
            warmup=4 * CACHE,
        ).run(streams)
        totals["OPT-OFFLINE"] = (
            totals.get("OPT-OFFLINE", 0.0) + opt_run.results_after_warmup
        )
        for name, policy in (
            ("HEEB", HeebPolicy(GenericJoinHeeb(LExp(alpha), horizon=80))),
            ("PROB", ProbPolicy()),
            ("RAND", RandPolicy(seed=run)),
        ):
            result = MultiJoinSimulator(
                CACHE, policy, queries=QUERIES, warmup=4 * CACHE,
                models=models,
            ).run(streams)
            totals[name] = totals.get(name, 0.0) + result.results_after_warmup
            if name == "HEEB":
                occ = result.occupancy_by_stream
                steady = {
                    s: occ[s][LENGTH // 2 :].mean() for s in "ABC"
                }
                b_share += steady["B"] / max(sum(steady.values()), 1e-9)
    return {k: v / N_RUNS for k, v in totals.items()}, b_share / N_RUNS


def test_ext_multi_join(benchmark, emit):
    (totals, b_share) = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    emit(
        "Extension: 3-stream multi-query join "
        f"(cache={CACHE}, length={LENGTH}, runs={N_RUNS}; "
        f"HEEB's hub-stream share = {b_share:.2f})",
        format_table({k: {"results": v} for k, v in totals.items()},
                     row_label="policy"),
    )
    assert totals["OPT-OFFLINE"] >= totals["HEEB"] - 1e-9
    assert totals["HEEB"] >= 0.9 * totals["OPT-OFFLINE"]
    assert totals["HEEB"] > totals["RAND"] > totals["PROB"]
    # The hub stream (two queries) gets more than a third of the cache.
    assert b_share > 0.45
