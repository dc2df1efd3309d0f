"""Stream process models: the statistical substrate of the framework.

Section 2 of the paper models each input stream ``S`` as a discrete-time
stochastic process ``{X_t | t = 0, 1, ...}`` over a discrete value domain.
Every algorithm in the framework (ECB computation, HEEB, FlowExpect) only
interacts with a stream through two capabilities:

1. *generation* -- drawing sample paths for simulation, and
2. *prediction* -- the conditional distribution ``Pr{X_t = v | history}``
   of a future value given everything observed so far (written
   ``x̄_{t0}`` in the paper).

:class:`StreamModel` captures exactly this contract.  Models for which the
per-step variables are mutually independent (offline, stationary, linear
trend with i.i.d. noise) advertise :attr:`StreamModel.is_independent` so
that callers may use the time- and value-incremental optimizations of
Section 4.4, which are only valid under independence.

Values are integers; ``None`` encodes the paper's "−" symbol: a tuple that
joins with nothing (used in the hand-constructed example of Section 3.4).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .noise import DiscreteDistribution

__all__ = ["History", "StreamModel", "Value"]

#: A join-attribute value: an integer, or ``None`` for the paper's "−".
Value = Optional[int]


@dataclass(frozen=True)
class History:
    """The observed prefix of a stream, as far as prediction needs it.

    The paper conditions all probabilities on ``x̄_{t0}``, the full history
    up to the current time ``t0``.  For every model in this library the
    history enters predictions only through (a) the time of the latest
    observation and (b) the latest observed value (all models are either
    independent or first-order Markov).  We therefore record just those two
    facts; models that need more can subclass.

    Attributes
    ----------
    now:
        Time of the most recent observation.
    last_value:
        The value observed at ``now`` (may be ``None`` for a "−" tuple).
    """

    now: int
    last_value: Value = None


class StreamModel(abc.ABC):
    """Abstract base for stochastic stream models.

    Subclasses must implement :meth:`sample_path` and :meth:`cond_dist`.
    """

    #: True when ``X_t`` is independent of the observed history, i.e. the
    #: per-step random variables are mutually independent.  Enables the
    #: incremental HEEB computations of Section 4.4.
    is_independent: bool = False

    @abc.abstractmethod
    def sample_path(
        self, length: int, rng: np.random.Generator
    ) -> list[Value]:
        """Draw one realization of the process for times ``0 .. length-1``."""

    @abc.abstractmethod
    def cond_dist(
        self, t: int, history: History | None = None
    ) -> DiscreteDistribution:
        """Conditional distribution of ``X_t`` given the observed history.

        Parameters
        ----------
        t:
            The future time step being predicted.  Must satisfy
            ``t > history.now`` when a history is given.
        history:
            Observed prefix; ignored by independent models.
        """

    def prob(self, t: int, value: Value, history: History | None = None) -> float:
        """Convenience: ``Pr{X_t = value | history}``.

        A ``None`` value never matches anything, so its probability of
        joining is zero by definition.
        """
        if value is None:
            return 0.0
        return self.cond_dist(t, history).pmf(value)

    def support(
        self, t: int, history: History | None = None
    ) -> list[tuple[int, float]]:
        """Joinable values at time ``t`` with their probabilities.

        The probabilities may sum to less than one: the remainder is the
        probability of producing a "−" tuple that joins with nothing.  The
        default implementation assumes no "−" mass and materializes the
        conditional distribution; models that can emit "−" override this.
        """
        return list(self.cond_dist(t, history).items())

    def frame(self, t: int) -> Optional[int]:
        """Offset ``c(t)`` that makes the predictions one shifted shape.

        An integer means ``prob(t, v)`` is exactly ``g(v − c(t))`` for
        one fixed ``g``, and ``support(t)`` is ``g``'s support shifted by
        ``c(t)`` with the same probabilities in the same order, at every
        time and under any history.  FlowExpect's
        :class:`~repro.flow.prob_table.ProbTable` then keys its memos on
        these offsets instead of on times.  A model has a frame at every
        time or at none; the default ``None`` means none.
        """
        return None

    def sample_future(
        self,
        t0: int,
        horizon: int,
        rng: np.random.Generator,
        history: History | None = None,
    ) -> list[Value]:
        """Sample one future trajectory ``X_{t0+1}, ..., X_{t0+horizon}``.

        Used for Monte-Carlo validation of analytic probability
        computations.  The default draws each step independently from
        :meth:`support` (valid for independent models); Markov models
        override with sequential sampling from the anchored state.
        """
        if not self.is_independent:
            raise NotImplementedError(
                "Markov models must override sample_future"
            )
        path: list[Value] = []
        for dt in range(1, horizon + 1):
            spec = self.support(t0 + dt, history)
            u = rng.random()
            acc = 0.0
            drawn: Value = None
            for v, p in spec:
                acc += p
                if u < acc:
                    drawn = v
                    break
            path.append(drawn)
        return path

    def check_time(self, t: int, history: History | None) -> None:
        """Validate that ``t`` lies strictly in the future of the history."""
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        if history is not None and t <= history.now:
            raise ValueError(
                f"cond_dist asked for t={t} but history extends to "
                f"{history.now}; prediction must target the future"
            )


def as_history(values: Sequence[Value], now: int) -> History:
    """Build a :class:`History` from an observed value sequence.

    ``values[now]`` is the most recent observation.
    """
    if now < 0 or now >= len(values):
        raise ValueError(f"now={now} out of range for {len(values)} values")
    return History(now=now, last_value=values[now])
