"""End-to-end execution of the server-based filtered DGD protocol.

:func:`run_dgd` wires together cost functions, honest agents, the rushing
adversary, a network and the server, and records a full :class:`Trace` of
the execution for the analysis and experiment layers. One round loop
drives either network and server pair through the same round-level calls
(``network.broadcast``, ``network.gather``, ``server.step``): the
synchronous pair when nothing can fail, the partially-synchronous network
and the self-healing server under a fault model or a checkpoint path.
:func:`~repro.system.batch.run_dgd_batch` shares the run's validation and
set-up helpers; the peer-to-peer and decentralized engines share its input
checks (:func:`_check_run_inputs`) and defaults
(:func:`_schedule_projection_start`).
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.aggregators.base import GradientFilter
from repro.aggregators.registry import make_filter
from repro.attacks.base import ByzantineBehavior
from repro.exceptions import CacheIntegrityError, InvalidParameterError
from repro.observability import TelemetryLike, ensure_telemetry
from repro.optimization.cost_functions import CostFunction
from repro.optimization.projections import BoxSet, ConvexSet
from repro.optimization.step_sizes import StepSizeSchedule, suggest_diminishing
from repro.system.adversary import Adversary
from repro.system.agents import Agent, CrashAgent, HonestAgent
from repro.system.healing import ResilientDGDServer
from repro.system.messages import SERVER_ID, GradientMessage
from repro.system.netfaults import NetworkFaultModel, PartiallySynchronousNetwork
from repro.system.network import SynchronousNetwork
from repro.system.server import DGDServer, fixed_filter_factory
from repro.utils.atomicio import read_json_checked, write_json_atomic
from repro.utils.rng import SeedLike, ensure_rng, spawn_rngs
from repro.utils.validation import check_vector


@dataclass(frozen=True)
class DGDConfig:
    """Declarative configuration of one DGD execution.

    Attributes
    ----------
    iterations:
        Number of rounds ``T``, a non-negative integer (``0`` records
        ``x0`` only).
    gradient_filter:
        A :class:`GradientFilter` instance or a registry name.
    faulty_ids:
        Agents under adversarial control (must number at most ``f``).
    f:
        Fault bound announced to the server; defaults to ``len(faulty_ids)``.
    x0:
        Initial estimate; defaults to the origin.
    step_sizes:
        Schedule; defaults to a curvature-adapted diminishing schedule
        matched to the filter's output scale.
    projection:
        The compact set ``W``; defaults to the centered box of half-width
        1000 that every engine uses.
    seed:
        Master seed from which agent/adversary streams derive.
    record_messages:
        Keep the network's delivery log (memory-heavy for long runs).
    log_capacity:
        Maximum delivery records the network retains when
        ``record_messages`` is set; requesting the log after eviction
        warns rather than silently returning a truncated history.
    crash_rounds:
        Optional map ``agent_id → round`` of *crash faults*: the agent
        follows the protocol until that round, then goes permanently
        silent. Crash faults are (benign) Byzantine faults, so each crashed
        agent counts against ``f``; the server detects the silence and
        eliminates the agent.
    fault_model:
        Optional :class:`~repro.system.netfaults.NetworkFaultModel`. When
        set (even to a null model), the execution runs on the
        partially-synchronous network and the self-healing
        :class:`~repro.system.healing.ResilientDGDServer`, whose healing
        rules the model determines; a null model reproduces the
        synchronous execution bit-for-bit.
    checkpoint_path:
        Optional path for atomic, checksummed mid-run checkpoints (the
        :mod:`repro.utils.atomicio` discipline). When the file already
        holds a checkpoint of this same configuration, the run *resumes*
        from it and reproduces the uninterrupted trajectory bit-for-bit.
        Implies the partially-synchronous engine.
    checkpoint_every:
        Checkpoint cadence in rounds (a final checkpoint is always
        written on completion).
    """

    iterations: int = 500
    gradient_filter: Union[GradientFilter, str] = "cge"
    faulty_ids: Sequence[int] = ()
    f: Optional[int] = None
    x0: Optional[Sequence[float]] = None
    step_sizes: Optional[StepSizeSchedule] = None
    projection: Optional[ConvexSet] = None
    seed: SeedLike = 0
    record_messages: bool = False
    log_capacity: int = 10_000
    crash_rounds: Optional[Dict[int, int]] = None
    fault_model: Optional[NetworkFaultModel] = None
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 25

    def resolved_f(self) -> int:
        crash_count = len(self.crash_rounds or {})
        if self.f is not None:
            return int(self.f)
        return len(tuple(self.faulty_ids)) + crash_count


@dataclass
class Trace:
    """Recorded execution of one DGD run.

    Attributes
    ----------
    estimates:
        ``(T + 1, d)`` array: ``estimates[t]`` is ``x^t`` (row 0 is the
        initial estimate).
    directions:
        ``(T, d)`` array of post-filter directions.
    honest_ids:
        The honest agents of the execution.
    faulty_ids:
        The Byzantine agents of the execution.
    eliminated:
        Agents the server eliminated for silence (subset of faulty).
    wall_time:
        Execution wall-clock seconds.
    messages_delivered / bytes_delivered:
        Network accounting totals (useful traffic only).
    messages_dropped / bytes_dropped:
        Traffic the network absorbed without delivering.
    """

    estimates: np.ndarray
    directions: np.ndarray
    honest_ids: List[int]
    faulty_ids: List[int]
    eliminated: List[int]
    wall_time: float
    messages_delivered: int
    bytes_delivered: int
    filter_name: str
    crash_ids: List[int] = field(default_factory=list)
    messages_dropped: int = 0
    bytes_dropped: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return self.estimates.shape[0] - 1

    @property
    def dimension(self) -> int:
        return self.estimates.shape[1]

    @property
    def final_estimate(self) -> np.ndarray:
        return self.estimates[-1].copy()

    def distances_to(self, point) -> np.ndarray:
        """``||x^t − point||`` for every recorded round."""
        point = check_vector(point, dimension=self.dimension, name="point")
        return np.linalg.norm(self.estimates - point, axis=1)

    def losses(self, costs: Sequence[CostFunction], ids: Optional[Sequence[int]] = None) -> np.ndarray:
        """Aggregate loss ``Σ_{i ∈ ids} Q_i(x^t)`` per round (honest loss by default)."""
        selected = self.honest_ids if ids is None else list(ids)
        values = np.zeros(self.estimates.shape[0])
        for index in selected:
            cost = costs[index]
            values += np.array([cost.value(x) for x in self.estimates])
        return values


def apply_config_overrides(config: DGDConfig, overrides: Dict) -> DGDConfig:
    """Apply keyword overrides to a :class:`DGDConfig`.

    Uses :func:`dataclasses.replace` (robust to ``slots=True`` and future
    validation hooks, unlike rebuilding from ``__dict__``) and rejects
    unknown keys with a clear error instead of a generic ``TypeError``.
    """
    if not overrides:
        return config
    known = {f.name for f in fields(DGDConfig)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise InvalidParameterError(
            f"unknown DGDConfig override(s) {', '.join(map(repr, unknown))}; "
            f"valid fields: {', '.join(sorted(known))}"
        )
    return replace(config, **overrides)


#: Half-width of the default projection set ``W``, a centered box, in every
#: engine.
_BOX_HALF_WIDTH = 1000.0


def _default_schedule(
    costs: Sequence[CostFunction], gradient_filter: Optional[GradientFilter]
) -> StepSizeSchedule:
    """Curvature-adapted schedule matched to the filter's output scale.

    CGE (in its paper form) and plain summation output a *sum* of
    gradients; everything else in the registry, and ``None`` (a plain
    mean), outputs a mean-scale vector.
    """
    from repro.aggregators.cge import ComparativeGradientElimination
    from repro.aggregators.mean import TrimmedSum

    sum_scaled = isinstance(gradient_filter, TrimmedSum) or (
        isinstance(gradient_filter, ComparativeGradientElimination)
        and gradient_filter.mode == "sum"
    )
    return suggest_diminishing(costs, aggregation="sum" if sum_scaled else "mean")


def _check_run_inputs(costs, behavior, iterations, faulty_ids):
    """The input checks every DGD engine shares.

    ``run_dgd``, ``run_dgd_batch``, ``run_peer_to_peer_dgd`` and
    ``run_decentralized_dgd`` all start here, so one bad input gets one
    error whichever engine runs it. Returns ``(costs, dimension,
    faulty_ids)``: the costs as a list and the faulty ids sorted and
    de-duplicated.
    """
    if (
        isinstance(iterations, bool)
        or not isinstance(iterations, (int, np.integer))
        or iterations < 0
    ):
        raise InvalidParameterError(
            f"iterations must be a non-negative integer, got {iterations!r}"
        )
    costs = list(costs)
    n = len(costs)
    if n == 0:
        raise InvalidParameterError("at least one agent required")
    dimension = costs[0].dimension
    for index, cost in enumerate(costs):
        if cost.dimension != dimension:
            raise InvalidParameterError(
                f"cost {index} has dimension {cost.dimension}, expected {dimension}"
            )
    faulty_ids = sorted(set(int(i) for i in faulty_ids))
    if any(i < 0 or i >= n for i in faulty_ids):
        raise InvalidParameterError(f"faulty_ids must lie in [0, {n}), got {faulty_ids}")
    if faulty_ids and behavior is None:
        raise InvalidParameterError("faulty agents configured but no behavior given")
    return costs, dimension, faulty_ids


def _validate_run(costs, behavior, config: DGDConfig):
    """The server engines' checks: the shared ones, then crash rounds, ``f``
    and the filter; ``run_dgd`` and ``run_dgd_batch`` call it.

    Returns ``(costs, dimension, faulty_ids, crash_rounds, f, gradient_filter)``.
    """
    costs, dimension, faulty_ids = _check_run_inputs(
        costs, behavior, config.iterations, config.faulty_ids
    )
    n = len(costs)
    crash_rounds = {int(k): int(v) for k, v in (config.crash_rounds or {}).items()}
    if any(i < 0 or i >= n for i in crash_rounds):
        raise InvalidParameterError("crash_rounds agent ids out of range")
    if set(crash_rounds) & set(faulty_ids):
        raise InvalidParameterError(
            "an agent cannot be both adversarial (faulty_ids) and crash-faulty"
        )
    f = config.resolved_f()
    if len(faulty_ids) + len(crash_rounds) > f:
        raise InvalidParameterError(
            f"{len(faulty_ids) + len(crash_rounds)} faulty agents exceed the "
            f"announced bound f={f}"
        )

    gradient_filter = config.gradient_filter
    if isinstance(gradient_filter, str):
        gradient_filter = make_filter(gradient_filter, f=f)
    return costs, dimension, faulty_ids, crash_rounds, f, gradient_filter


def _schedule_projection_start(
    costs, dimension: int, gradient_filter, step_sizes=None, projection=None, x0=None
):
    """A run's step sizes, projection set ``W`` and start ``x0``, defaults
    filled in; every engine calls it from its entry point.

    The default schedule takes its scale from ``gradient_filter``
    (``None``, the decentralized engine's state mix, is mean-scale).
    The warnings name the engine's caller.
    """
    step_sizes = step_sizes or _default_schedule(costs, gradient_filter)
    if not step_sizes.satisfies_robbins_monro:
        warnings.warn(
            "step-size schedule violates the Robbins-Monro conditions; the "
            "convergence theorem does not apply",
            stacklevel=3,
        )
    projection = projection or BoxSet.centered(dimension, _BOX_HALF_WIDTH)
    if not projection.is_compact:
        warnings.warn(
            "projection set is not compact; the convergence theorem requires "
            "a compact convex W",
            stacklevel=3,
        )
    x0 = np.zeros(dimension) if x0 is None else check_vector(x0, dimension=dimension, name="x0")
    return step_sizes, projection, x0


def run_dgd(
    costs: Sequence[CostFunction],
    behavior: Optional[ByzantineBehavior] = None,
    config: Optional[DGDConfig] = None,
    telemetry: TelemetryLike = None,
    round_hook: Optional[Callable[[int, DGDServer], None]] = None,
    **config_overrides,
) -> Trace:
    """Execute the server-based filtered DGD protocol.

    One round loop runs on one network and server pair: with no
    ``fault_model`` and no ``checkpoint_path``, the synchronous network and
    :class:`DGDServer` (no queue, liveness or checkpoint work); otherwise
    the partially-synchronous network under the model (a null one when
    only a checkpoint path is set) and :class:`ResilientDGDServer`, which
    checkpoint, resume and fill ``extra`` with the ``resilience`` and
    ``traffic`` summaries and ``resumed_from_round``.

    Parameters
    ----------
    costs:
        All ``n`` agents' cost functions. Faulty agents' entries are their
        *true* costs, which behaviours like gradient-reverse corrupt.
    behavior:
        Byzantine strategy; required when ``config.faulty_ids`` is
        non-empty.
    config:
        Execution configuration; keyword overrides are applied on top
        (e.g. ``run_dgd(costs, atk, iterations=100)``).
    telemetry:
        Optional :class:`~repro.observability.Telemetry` handle (or a
        JSONL path). Disabled by default; when enabled, the execution
        emits ``"run"``/``"round"``/``"filter"`` timing spans and one
        per-round record of the filter's kept/eliminated agents, gradient
        norm spread, and step size. The numerical execution is identical
        either way.
    round_hook:
        Optional callable ``(round_index, server)`` invoked after every
        completed round — the chaos tests use it to kill a checkpointed
        run mid-flight.

    Returns
    -------
    Trace
        The recorded execution.
    """
    if config is None:
        config = DGDConfig()
    config = apply_config_overrides(config, config_overrides)
    costs, dimension, faulty_ids, crash_rounds, f, gradient_filter = _validate_run(
        costs, behavior, config
    )
    n = len(costs)

    master = ensure_rng(config.seed)
    # The second stream is not read. Spawning both keeps each seed's
    # adversary stream fixed; run_dgd_batch derives it the same way.
    adversary_rng, _ = spawn_rngs(master, 2)
    step_sizes, projection, x0 = _schedule_projection_start(
        costs, dimension, gradient_filter, config.step_sizes, config.projection, config.x0
    )

    # "honest" here means neither adversarial nor crash-faulty; crash agents
    # follow the protocol until their crash round but count against f.
    honest_ids = [i for i in range(n) if i not in faulty_ids and i not in crash_rounds]
    agents: Dict[int, Agent] = {i: HonestAgent(i, costs[i]) for i in honest_ids}
    for i, crash_round in crash_rounds.items():
        agents[i] = CrashAgent(i, costs[i], crash_round=crash_round)
    adversary = (
        Adversary(
            behavior,
            faulty_ids,
            costs={i: costs[i] for i in faulty_ids},
            seed=adversary_rng,
        )
        if faulty_ids
        else None
    )
    tel = ensure_telemetry(telemetry)
    if tel:
        tel.annotate(byzantine_ids=faulty_ids + sorted(crash_rounds))

    filter_name = getattr(gradient_filter, "name", type(gradient_filter).__name__)
    factory = fixed_filter_factory(gradient_filter)
    healing = config.fault_model is not None or config.checkpoint_path is not None
    if healing:
        model = config.fault_model if config.fault_model is not None else NetworkFaultModel()
        network = PartiallySynchronousNetwork(model, log_capacity=config.log_capacity)
        server = ResilientDGDServer(
            factory, step_sizes, projection, x0, n=n, f=f, telemetry=tel, fault_model=model
        )
    else:
        network = SynchronousNetwork(log_capacity=config.log_capacity)
        server = DGDServer(factory, step_sizes, projection, x0, n=n, f=f, telemetry=tel)

    iterations = config.iterations
    estimates = np.empty((iterations + 1, dimension))
    directions = np.empty((iterations, dimension))
    estimates[0] = server.estimate

    start_round = 0
    # The hex rows of the trajectory already written to a checkpoint.
    estimate_rows: List[List[str]] = []
    direction_rows: List[List[str]] = []
    if config.checkpoint_path:
        if config.checkpoint_every <= 0:
            raise InvalidParameterError(
                f"checkpoint_every must be positive, got {config.checkpoint_every}"
            )
        fingerprint = _checkpoint_fingerprint(
            config, n, f, dimension, faulty_ids, crash_rounds, filter_name,
            model, adversary,
        )
        saved = _load_checkpoint(config.checkpoint_path, fingerprint, iterations)
        if saved is not None:
            server.restore(saved["server"])
            network.restore_state(saved["network"])
            if adversary is not None and saved["adversary_rng"] is not None:
                adversary._rng.bit_generator.state = saved["adversary_rng"]
            for agent_id, crashed in saved["agents"].items():
                agent = agents.get(int(agent_id))
                if isinstance(agent, CrashAgent):
                    agent._crashed = bool(crashed)
            start_round = int(saved["round"])
            estimate_rows = saved["estimates"]
            direction_rows = saved["directions"]
            estimates[: start_round + 1] = _unhex_matrix(estimate_rows)
            if start_round:
                directions[:start_round] = _unhex_matrix(direction_rows)
            if tel:
                tel.emit("resume", round=start_round, path=config.checkpoint_path)

    start = time.perf_counter()
    with tel.span("run"):
        for t in range(start_round, iterations):
            with tel.span("round"):
                broadcast = server.make_broadcast()
                active = server.active_agents
                delivered = network.broadcast(broadcast, active, t)
                honest_replies: List[GradientMessage] = []
                for agent_id in active:
                    agent = agents.get(agent_id)
                    # The adversary's copies: delivered to it and never
                    # answered by an agent.
                    if agent is None:
                        continue
                    for message in delivered.get(agent_id, ()):
                        reply = agent.on_estimate(message)
                        if reply is not None:
                            honest_replies.append(reply)
                # Canonical reply order: the adversary's view (and hence
                # its forgeries) must not depend on delivery shuffling.
                honest_replies.sort(key=lambda m: (m.round_index, m.sender))
                forged: List[GradientMessage] = []
                if adversary is not None:
                    active_faulty = sorted(set(active) & set(faulty_ids))
                    if active_faulty:
                        forged = adversary.forge_messages(
                            broadcast, honest_replies, active_faulty=active_faulty
                        )
                server.step(network.gather(honest_replies + forged, SERVER_ID, t))
                estimates[t + 1] = server.estimate
                directions[t] = server.last_direction
            if round_hook is not None:
                round_hook(t, server)
            if config.checkpoint_path and (
                (t + 1) % config.checkpoint_every == 0 or t + 1 == iterations
            ):
                _write_checkpoint(
                    config.checkpoint_path,
                    fingerprint,
                    t + 1,
                    server,
                    network,
                    adversary,
                    agents,
                    _extend_hex_rows(estimate_rows, estimates, t + 2),
                    _extend_hex_rows(direction_rows, directions, t + 1),
                )
    elapsed = time.perf_counter() - start

    extra: Dict[str, object] = {}
    if healing:
        extra["resilience"] = server.resilience_summary()
        extra["traffic"] = network.traffic_summary()
        extra["resumed_from_round"] = start_round
    if config.record_messages:
        extra["network_log"] = network.log
    return Trace(
        estimates=estimates,
        directions=directions,
        honest_ids=honest_ids,
        faulty_ids=faulty_ids,
        eliminated=server.eliminated_agents,
        wall_time=elapsed,
        messages_delivered=network.messages_delivered,
        bytes_delivered=network.bytes_delivered,
        filter_name=filter_name,
        crash_ids=sorted(crash_rounds),
        messages_dropped=network.messages_dropped,
        bytes_dropped=network.bytes_dropped,
        extra=extra,
    )


#: Checkpoint document version; bumped when the schema changes shape.
_CHECKPOINT_VERSION = 2


def _extend_hex_rows(rows: List[List[str]], matrix: np.ndarray, stop: int) -> List[List[str]]:
    """Append the exact hex encodings of ``matrix[len(rows):stop]`` to ``rows``.

    Checkpoints carry the whole trajectory prefix; keeping the rows
    already encoded means each checkpoint hexes only the rounds since the
    last one.
    """
    for row in np.asarray(matrix[len(rows):stop], dtype=float):
        rows.append([float(v).hex() for v in row])
    return rows


def _unhex_matrix(rows: List[List[str]]) -> np.ndarray:
    return np.array([[float.fromhex(v) for v in row] for row in rows])


def _checkpoint_fingerprint(
    config: DGDConfig,
    n: int,
    f: int,
    dimension: int,
    faulty_ids: Sequence[int],
    crash_rounds: Dict[int, int],
    filter_name: str,
    model: NetworkFaultModel,
    adversary: Optional[Adversary],
) -> Dict:
    """Identity of a run for checkpoint-compatibility purposes.

    Everything that shapes the trajectory is included: the fault model's
    profiles (which also fix its healing rules) and ``reorder`` flag and
    the attack, besides the instance, seed, filter and faulty placement.
    Iteration count is deliberately excluded: resuming a 30-round
    checkpoint into a 60-round run is legitimate (and tested).
    """
    return {
        "n": int(n),
        "f": int(f),
        "d": int(dimension),
        "seed": repr(config.seed),
        "filter": filter_name,
        "faulty_ids": [int(i) for i in faulty_ids],
        "crash_rounds": {str(k): int(v) for k, v in sorted(crash_rounds.items())},
        "fault_seed": None if config.fault_model is None else config.fault_model.seed,
        "fault_profiles": {
            str(agent_id): asdict(profile)
            for agent_id, profile in sorted(model.profiles.items())
        },
        "reorder": bool(model.reorder),
        "behavior": None if adversary is None else type(adversary.behavior).__name__,
    }


def _write_checkpoint(
    path: str,
    fingerprint: Dict,
    completed_rounds: int,
    server: ResilientDGDServer,
    network: PartiallySynchronousNetwork,
    adversary: Optional[Adversary],
    agents: Dict[int, Agent],
    estimate_rows: List[List[str]],
    direction_rows: List[List[str]],
) -> None:
    """Write the run state after ``completed_rounds`` rounds.

    ``estimate_rows`` and ``direction_rows`` are the hex-encoded
    trajectory prefix, ``completed_rounds + 1`` and ``completed_rounds``
    rows long.
    """
    adversary_state = None
    if adversary is not None:
        adversary_state = adversary._rng.bit_generator.state
    payload = {
        "version": _CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "round": int(completed_rounds),
        "server": server.checkpoint(),
        "network": network.state(),
        "adversary_rng": adversary_state,
        "agents": {
            str(agent_id): agent.crashed
            for agent_id, agent in agents.items()
            if isinstance(agent, CrashAgent)
        },
        "estimates": estimate_rows,
        "directions": direction_rows,
    }
    write_json_atomic(path, payload)


def _load_checkpoint(path: str, fingerprint: Dict, iterations: int) -> Optional[Dict]:
    """Read and vet a checkpoint; ``None`` means "start fresh"."""
    if not os.path.exists(path):
        return None
    try:
        payload = read_json_checked(path, require_checksum=True)
    except CacheIntegrityError as exc:
        warnings.warn(
            f"ignoring corrupt checkpoint {path}: {exc}", stacklevel=3
        )
        return None
    if payload.get("version") != _CHECKPOINT_VERSION:
        warnings.warn(
            f"ignoring checkpoint {path} with version "
            f"{payload.get('version')!r} (expected {_CHECKPOINT_VERSION})",
            stacklevel=3,
        )
        return None
    if payload.get("fingerprint") != fingerprint:
        warnings.warn(
            f"ignoring checkpoint {path}: it belongs to a different "
            "configuration",
            stacklevel=3,
        )
        return None
    if payload["round"] > iterations:
        warnings.warn(
            f"ignoring checkpoint {path}: it is {payload['round']} rounds "
            f"deep but the run only has {iterations}",
            stacklevel=3,
        )
        return None
    return payload
