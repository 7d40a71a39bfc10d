"""The trusted server of the server-based architecture."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.aggregators.base import GradientFilter
from repro.exceptions import InvalidParameterError, ProtocolViolationError
from repro.observability import Telemetry, TelemetryLike, ensure_telemetry
from repro.optimization.projections import ConvexSet
from repro.optimization.step_sizes import StepSizeSchedule
from repro.system.messages import SERVER_ID, EstimateBroadcast, GradientMessage
from repro.utils.validation import check_vector

#: Builds a gradient filter for current system parameters ``(n, f)``. The
#: server re-invokes the factory after eliminating silent agents, because
#: elimination shrinks both ``n`` and ``f`` (the paper's Step S1), and the
#: partially-synchronous server re-invokes it per round for partial
#: aggregation over the ``k ≤ n`` gradients that met the deadline.
FilterFactory = Callable[[int, int], GradientFilter]


def fixed_filter_factory(gradient_filter: GradientFilter) -> FilterFactory:
    """A :data:`FilterFactory` anchored to one concrete filter instance.

    Returns the given instance while the fault budget is unchanged (the
    common case, including partial aggregation at the same ``f``);
    rebuilds the same *class* with the reduced budget after an
    elimination, falling back to the instance for filters that do not
    take a plain ``f=`` constructor.
    """

    def factory(n_now: int, f_now: int) -> GradientFilter:
        if f_now == gradient_filter.f:
            return gradient_filter
        try:
            return type(gradient_filter)(f=f_now)
        except TypeError:
            return gradient_filter

    return factory


class DGDServer:
    """Runs the filtered distributed gradient-descent update rule.

    Each iteration ``t``:

    - **S1** broadcast the estimate ``x^t`` and collect one gradient per
      agent; a silent agent is provably faulty (synchrony) and is
      eliminated, decrementing both ``n`` and ``f``;
    - **S2** apply the gradient filter and update
      ``x^{t+1} = [x^t − η_t · GradFilter(g_1..g_n)]_W``.

    Parameters
    ----------
    filter_factory:
        Builds the gradient filter for given ``(n, f)``; called once up
        front and again after every elimination.
    step_sizes:
        The schedule ``η_t``.
    projection:
        The compact convex set ``W``.
    x0:
        Initial estimate (arbitrary, per the paper); projected into ``W``.
    n, f:
        Initial system size and fault bound.
    telemetry:
        Optional :class:`~repro.observability.Telemetry` handle (defaults
        to the shared no-op). When enabled, the server times every filter
        application (``"filter"`` span), logs silence eliminations, and
        emits one ``"round"`` record per :meth:`step` with the filter's
        kept/eliminated agent sets (for filters exposing
        ``kept_indices``), the received gradient-norm spread, and the
        step size.
    """

    def __init__(
        self,
        filter_factory: FilterFactory,
        step_sizes: StepSizeSchedule,
        projection: ConvexSet,
        x0,
        n: int,
        f: int,
        telemetry: TelemetryLike = None,
    ):
        if n <= 0:
            raise InvalidParameterError(f"n must be positive, got {n}")
        if f < 0 or f >= n:
            raise InvalidParameterError(f"f must satisfy 0 <= f < n, got f={f}, n={n}")
        self._filter_factory = filter_factory
        self._step_sizes = step_sizes
        self._projection = projection
        self._estimate = projection.project(check_vector(x0, name="x0"))
        self._n = int(n)
        self._f = int(f)
        self._round = 0
        self._active = set(range(n))
        self._filter = filter_factory(self._n, self._f)
        self._eliminated: List[int] = []
        self._last_direction: Optional[np.ndarray] = None
        self._telemetry = ensure_telemetry(telemetry)

    @classmethod
    def with_fixed_filter(
        cls,
        gradient_filter: GradientFilter,
        step_sizes: StepSizeSchedule,
        projection: ConvexSet,
        x0,
        n: int,
        f: int,
        telemetry: TelemetryLike = None,
    ) -> "DGDServer":
        """Build a server around one concrete filter instance.

        After an elimination the same *class* of filter is rebuilt with the
        reduced fault budget, except for stateless single-instance filters
        where reuse is safe; the factory recreates via ``type(filter)(f=...)``
        when possible and falls back to the given instance otherwise.
        """
        return cls(
            fixed_filter_factory(gradient_filter),
            step_sizes,
            projection,
            x0,
            n,
            f,
            telemetry=telemetry,
        )

    @property
    def estimate(self) -> np.ndarray:
        """Current estimate ``x^t``."""
        return self._estimate.copy()

    @property
    def round_index(self) -> int:
        return self._round

    @property
    def n(self) -> int:
        """Current number of active agents (post-elimination)."""
        return self._n

    @property
    def f(self) -> int:
        """Current fault budget (post-elimination)."""
        return self._f

    @property
    def active_agents(self) -> List[int]:
        return sorted(self._active)

    @property
    def eliminated_agents(self) -> List[int]:
        return list(self._eliminated)

    @property
    def gradient_filter(self) -> GradientFilter:
        return self._filter

    @property
    def last_direction(self) -> Optional[np.ndarray]:
        """The most recent filtered direction (diagnostics)."""
        return None if self._last_direction is None else self._last_direction.copy()

    def make_broadcast(self) -> EstimateBroadcast:
        """The round's estimate broadcast message."""
        return EstimateBroadcast(
            sender=SERVER_ID, round_index=self._round, estimate=self._estimate
        )

    def eliminate_silent(self, responders: Sequence[int]) -> List[int]:
        """Eliminate active agents that sent nothing this round.

        Returns the newly eliminated ids. Silence is proof of faultiness in
        a synchronous system, so each elimination decrements ``f``; if more
        agents are silent than the remaining fault budget allows, the
        synchrony assumption itself is violated and the simulator raises
        :class:`ProtocolViolationError` (this indicates a mis-configured
        experiment, e.g. honest crash faults beyond ``f``).
        """
        silent = sorted(self._active - set(int(i) for i in responders))
        if not silent:
            return []
        if len(silent) > self._f:
            raise ProtocolViolationError(
                f"{len(silent)} agents silent but fault budget is {self._f}; "
                "synchrony guarantees honest agents always respond"
            )
        for agent_id in silent:
            self._active.remove(agent_id)
            self._eliminated.append(agent_id)
        self._n -= len(silent)
        self._f -= len(silent)
        self._filter = self._filter_factory(self._n, self._f)
        if self._telemetry:
            self._telemetry.emit(
                "silence_elimination",
                round=self._round,
                agents=silent,
                n=self._n,
                f=self._f,
            )
        return silent

    def step(self, messages: Sequence[GradientMessage]) -> np.ndarray:
        """Run one full iteration from the received gradient messages.

        Performs elimination (S1) then the filtered update (S2) and
        advances the round counter. Returns the new estimate. Malformed
        payloads are ordinary Byzantine outliers here, left to
        ``GradientFilter.sanitize``.
        """
        for message in messages:
            if message.round_index != self._round:
                raise ProtocolViolationError(
                    f"message from agent {message.sender} carries round "
                    f"{message.round_index}, server is in round {self._round}"
                )
            if message.sender not in self._active:
                raise ProtocolViolationError(
                    f"message from inactive agent {message.sender}"
                )
        by_sender: Dict[int, GradientMessage] = {}
        for message in messages:
            if message.sender in by_sender:
                raise ProtocolViolationError(
                    f"duplicate gradient from agent {message.sender} in round {self._round}"
                )
            by_sender[message.sender] = message
        self.eliminate_silent(list(by_sender))
        ordered = [by_sender[agent_id] for agent_id in sorted(by_sender)]
        return self._filtered_update(ordered, self._filter)

    def _filtered_update(
        self, ordered: Sequence[GradientMessage], gradient_filter: GradientFilter
    ) -> np.ndarray:
        """Apply one filtered update from an ordered message list (S2).

        Shared by the synchronous :meth:`step` and the partially-
        synchronous :class:`~repro.system.healing.ResilientDGDServer`, so
        the two runtimes are numerically one code path.
        """
        gradients = np.stack([message.gradient for message in ordered])
        with self._telemetry.span("filter"):
            direction = gradient_filter(gradients)
        self._last_direction = np.asarray(direction, dtype=float)
        eta = self._step_sizes(self._round)
        self._estimate = self._projection.project(self._estimate - eta * self._last_direction)
        if self._telemetry:
            record_filter_round(
                self._telemetry, self._round, gradient_filter, gradients, eta,
                self._estimate, agent_ids=[message.sender for message in ordered],
            )
        self._round += 1
        return self.estimate


def record_filter_round(
    telemetry: Telemetry,
    round_index: int,
    gradient_filter: GradientFilter,
    gradients: np.ndarray,
    step_size: float,
    estimate: np.ndarray,
    agent_ids: Optional[Sequence[int]] = None,
) -> None:
    """Emit one round's filter record, as a round of one run; the server
    and the peer-to-peer engine both call it (telemetry-enabled path only).

    Norms are taken on the sanitized matrix — what the filter actually
    scored — and ``kept_indices`` (CGE and friends) is re-derived the
    same way, so the record reconstructs the filter's decision exactly.
    ``agent_ids`` maps gradient rows to agents (row ``i`` is agent ``i``
    by default).
    """
    matrix = gradient_filter.sanitize(gradients)
    kept = None
    if hasattr(gradient_filter, "kept_indices"):
        kept = gradient_filter.kept_indices(matrix)
        if agent_ids is not None:
            kept = np.asarray(agent_ids)[kept]
        kept = kept[None]
    telemetry.record_round(
        round_index=round_index,
        filter_name=getattr(gradient_filter, "name", type(gradient_filter).__name__),
        step_size=step_size,
        gradient_norms=np.linalg.norm(matrix, axis=1)[None],
        agent_ids=agent_ids,
        kept_ids=kept,
        estimate=estimate[None],
    )
