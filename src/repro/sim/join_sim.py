"""Two-stream equijoin simulator under the MAX-subset metric.

Implements the joining problem of Section 2: at every step each stream
produces one tuple; new arrivals join against cached tuples of the other
stream; then the replacement policy chooses which tuples to discard so the
cache stays within its capacity.  The performance metric is the number of
result tuples produced (after an optional warm-up period, per Section
6.2), which is what every algorithm in the paper tries to maximize in
expectation.

The binary join is the 2-stream topology ``R⋈S`` of the one join
simulator, :class:`~repro.sim.multi_join.MultiJoinSimulator`, and
:class:`JoinSimulator` is its constructor.  Sliding windows (Section 7)
and band joins are the shared simulator's.

Accounting choices (constant across policies, hence shape-preserving):

* a new R and a new S tuple arriving at the same step do **not** join
  each other (Section 3.1 ignores same-step joins because they happen
  regardless of replacement decisions);
* "−" tuples (``value is None``) join nothing and are not cacheable.
"""

from __future__ import annotations

from typing import Sequence

from ..obs.recorder import NULL_RECORDER, Recorder
from ..policies.base import ReplacementPolicy, WindowOracle
from ..streams.base import StreamModel, Value
from .multi_join import JoinRunResult, MultiJoinSimulator
from .step import RS_QUERIES

__all__ = ["JoinRunResult", "JoinSimulator"]


class JoinSimulator(MultiJoinSimulator):
    """The one join simulator over the binary join ``R⋈S``.

    Takes the parameters of :class:`~repro.sim.multi_join.MultiJoinSimulator`
    with the topology fixed to ``R⋈S``: ``r_model`` / ``s_model`` are
    the models of streams R and S, and :meth:`run` takes the two value
    sequences.
    """

    def __init__(
        self,
        cache_size: int,
        policy: ReplacementPolicy,
        warmup: int = 0,
        window: int | None = None,
        band: int = 0,
        r_model: StreamModel | None = None,
        s_model: StreamModel | None = None,
        window_oracle: WindowOracle | None = None,
        recorder: Recorder = NULL_RECORDER,
    ):
        """Bind the ``R⋈S`` run parameters (see class docs)."""
        super().__init__(
            cache_size,
            policy,
            RS_QUERIES,
            warmup=warmup,
            window=window,
            band=band,
            models={"R": r_model, "S": s_model},
            window_oracle=window_oracle,
            recorder=recorder,
        )

    def run(  # type: ignore[override]
        self, r_values: Sequence[Value], s_values: Sequence[Value]
    ) -> JoinRunResult:
        """Simulate the join over the R and S value sequences."""
        return super().run({"R": r_values, "S": s_values})
