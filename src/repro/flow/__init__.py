"""Min-cost-flow algorithms: FlowExpect (Section 3) and OPT-offline [8]."""

from .brute_force import (
    brute_force_adaptive_expectation,
    brute_force_offline_benefit,
    brute_force_predetermined_expectation,
)
from .fastpath import (
    FlowExpectFastPath,
    LookaheadTemplate,
    flowexpect_decide_fast,
    solve_unit_flow,
)
from .flowexpect import FlowExpectDecision, flowexpect_decide
from .graph import LookaheadGraph, build_lookahead_graph, expected_match_prob
from .opt_offline import OfflineSolution, match_times, solve_opt_offline
from .prob_table import ProbTable
from .solver import COST_SCALE, solve_min_cost_flow

__all__ = [
    "COST_SCALE",
    "FlowExpectDecision",
    "FlowExpectFastPath",
    "LookaheadGraph",
    "LookaheadTemplate",
    "OfflineSolution",
    "ProbTable",
    "brute_force_adaptive_expectation",
    "brute_force_offline_benefit",
    "brute_force_predetermined_expectation",
    "build_lookahead_graph",
    "expected_match_prob",
    "flowexpect_decide",
    "flowexpect_decide_fast",
    "match_times",
    "solve_min_cost_flow",
    "solve_opt_offline",
    "solve_unit_flow",
]
