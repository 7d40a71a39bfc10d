"""Reference implementations of the functions that assemble round records.

Frozen copies of the three places that assembled ``"round"`` records one
run at a time:

- ``Telemetry.record_round``, which took one run's gradient norms, kept
  set and estimate and built its record with a Python median, set algebra
  and one ``np.linalg.norm`` call (``ReferenceTelemetry.record_round``);
- ``server.record_filter_round``, which the server and peer-to-peer call
  (``reference_record_filter_round``);
- ``batch._emit_round_records``, which called ``record_round`` once per run
  slice (``reference_emit_round_records``), and the batch engine's round
  loop that called it *after* each round's ``round`` span had closed
  (``reference_run_dgd_batch``).

Everything else (the handle's emission and roll-ups, the filters, the
forgers and the round loops of the other engines) is the production code.
``tests/test_telemetry_reference.py`` requires the production code to emit
the same records byte for byte. Keep this module unchanged when the record
assembly changes.
"""

from __future__ import annotations

import time
import warnings
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.aggregators.base import GradientFilter
from repro.exceptions import InvalidParameterError
from repro.observability import Telemetry, TelemetryLike, ensure_telemetry
from repro.optimization.cost_functions import CostFunction
from repro.optimization.projections import numpy_batch_projector
from repro.system.batch import (
    _forged_matrix,
    _vectorized_forger,
    batch_unsupported_reason,
)
from repro.system.runner import (
    DGDConfig,
    Trace,
    _schedule_projection_start,
    _validate_run,
    apply_config_overrides,
    run_dgd,
)
from repro.utils.rng import SeedLike, ensure_rng, spawn_rngs


def _id_list(ids: Iterable) -> List[int]:
    return [int(i) for i in ids]


class ReferenceTelemetry(Telemetry):
    """A live handle whose ``record_round`` is the frozen one-run version."""

    def record_round(
        self,
        *,
        round_index: int,
        filter_name: str,
        step_size: float,
        gradient_norms,
        agent_ids: Optional[Sequence[int]] = None,
        kept_ids: Optional[Sequence[int]] = None,
        estimate=None,
        run: Optional[int] = None,
        seed=None,
    ) -> Dict:
        norms = np.asarray(gradient_norms, dtype=float)
        present = _id_list(
            agent_ids if agent_ids is not None else range(norms.shape[0])
        )
        record: Dict = {
            "round": int(round_index),
            "filter": str(filter_name),
            "step_size": float(step_size),
            "grad_norm_min": float(norms.min()),
            "grad_norm_median": float(np.median(norms)),
            "grad_norm_max": float(norms.max()),
        }
        if kept_ids is not None:
            kept = _id_list(kept_ids)
            eliminated = sorted(set(present) - set(kept))
            byz_present = self._byzantine & set(present)
            eliminated_byzantine = len(self._byzantine & set(eliminated))
            surviving_byzantine = len(byz_present) - eliminated_byzantine
            record.update(
                kept=kept,
                eliminated=eliminated,
                eliminated_byzantine=eliminated_byzantine,
                surviving_byzantine=surviving_byzantine,
            )
            self._elim_tp += eliminated_byzantine
            self._elim_fp += len(eliminated) - eliminated_byzantine
            self._elim_fn += surviving_byzantine
        if estimate is not None and self._reference is not None:
            record["distance_to_ref"] = float(
                np.linalg.norm(np.asarray(estimate, dtype=float) - self._reference)
            )
        if run is not None:
            record["run"] = int(run)
        if seed is not None:
            record["seed"] = int(seed) if isinstance(seed, (int, np.integer)) else str(seed)
        self._rounds += 1
        return self.emit("round", **record)


def reference_record_filter_round(
    telemetry: Telemetry,
    round_index: int,
    gradient_filter: GradientFilter,
    gradients: np.ndarray,
    step_size: float,
    estimate: np.ndarray,
    agent_ids: Optional[Sequence[int]] = None,
) -> None:
    matrix = gradient_filter.sanitize(gradients)
    kept = None
    if hasattr(gradient_filter, "kept_indices"):
        kept = gradient_filter.kept_indices(matrix)
        if agent_ids is not None:
            kept = [agent_ids[r] for r in kept]
    telemetry.record_round(
        round_index=round_index,
        filter_name=getattr(gradient_filter, "name", type(gradient_filter).__name__),
        step_size=step_size,
        gradient_norms=np.linalg.norm(matrix, axis=1),
        agent_ids=agent_ids,
        kept_ids=kept,
        estimate=estimate,
    )


def _json_seed(seed: SeedLike):
    return int(seed) if isinstance(seed, (int, np.integer)) else str(seed)


def reference_emit_round_records(
    tel,
    gradient_filter: GradientFilter,
    filter_name: str,
    M: np.ndarray,
    X: np.ndarray,
    eta: float,
    t: int,
    seeds: Sequence[SeedLike],
) -> None:
    norms = np.linalg.norm(M, axis=2)
    kept = None
    if hasattr(gradient_filter, "_kept_indices_batch"):
        kept = gradient_filter._kept_indices_batch(M)
    for k in range(M.shape[0]):
        tel.record_round(
            round_index=t,
            filter_name=filter_name,
            step_size=eta,
            gradient_norms=norms[k],
            kept_ids=None if kept is None else kept[k],
            estimate=X[k],
            run=k,
            seed=_json_seed(seeds[k]),
        )


def reference_run_dgd_batch(
    costs: Sequence[CostFunction],
    behavior=None,
    config: Optional[DGDConfig] = None,
    seeds: Optional[Sequence[SeedLike]] = None,
    telemetry: TelemetryLike = None,
    **config_overrides,
) -> List[Trace]:
    """The batch engine's round loop, emitting its records after each
    round span. The fallback path calls :func:`run_dgd`; a caller swaps
    its ``record_filter_round`` for :func:`reference_record_filter_round`."""
    if config is None:
        config = DGDConfig()
    config = apply_config_overrides(config, config_overrides)
    seeds = [config.seed] if seeds is None else list(seeds)
    if not seeds:
        raise InvalidParameterError("seeds must contain at least one entry")

    costs, dimension, faulty_ids, _, _, gradient_filter = _validate_run(
        costs, behavior, config
    )
    n = len(costs)

    tel = ensure_telemetry(telemetry)
    reason = batch_unsupported_reason(costs, behavior, config, gradient_filter)
    if reason is not None:
        traces = []
        caught: List[warnings.WarningMessage] = []
        try:
            with warnings.catch_warnings(record=True) as caught:
                for k, seed in enumerate(seeds):
                    if tel:
                        tel.emit("run_start", run=k, seed=_json_seed(seed), reason=reason)
                    traces.append(
                        run_dgd(
                            costs,
                            behavior,
                            apply_config_overrides(config, {"seed": seed}),
                            telemetry=tel,
                        )
                    )
        finally:
            for message, category in dict.fromkeys(
                (str(w.message), w.category) for w in caught
            ):
                warnings.warn(message, category, stacklevel=2)
        return traces

    K = len(seeds)
    T = config.iterations
    honest_ids = [i for i in range(n) if i not in faulty_ids]

    adversary_rngs = []
    for seed in seeds:
        adversary_rng, _ = spawn_rngs(ensure_rng(seed), 2)
        adversary_rngs.append(adversary_rng)

    step_sizes, projection, x0 = _schedule_projection_start(
        costs, dimension, gradient_filter, config.step_sizes, config.projection, config.x0
    )
    project_batch = numpy_batch_projector(projection)
    x0 = projection.project(x0)

    P = np.stack([cost.P for cost in costs])
    q = np.stack([cost.q for cost in costs])

    if n < gradient_filter.minimum_inputs():
        raise InvalidParameterError(
            f"{type(gradient_filter).__name__} with f={gradient_filter.f} "
            f"requires at least {gradient_filter.minimum_inputs()} gradients, "
            f"got {n}"
        )

    faulty_idx = np.asarray(faulty_ids, dtype=int)
    forge = (
        _vectorized_forger(behavior, faulty_ids, honest_ids, costs, adversary_rngs)
        if faulty_ids
        else None
    )

    estimates = np.empty((K, T + 1, dimension))
    directions = np.empty((K, T, dimension))

    filter_name = getattr(gradient_filter, "name", type(gradient_filter).__name__)
    if tel:
        tel.annotate(byzantine_ids=faulty_ids)

    start = time.perf_counter()
    with tel.span("run"):
        X = np.broadcast_to(x0, (K, dimension)).copy()
        estimates[:, 0] = X
        for t in range(T):
            with tel.span("round"):
                G = (P[None] @ X[:, None, :, None])[..., 0] + q[None]
                if forge is not None:
                    M = _forged_matrix(G, forge(t, X, G), faulty_idx)
                else:
                    M = G
                M = GradientFilter.sanitize(M)
                D = gradient_filter.aggregate_batch(M, presanitized=True)
                directions[:, t] = D
                eta = step_sizes(t)
                X = project_batch(X - eta * D)
                estimates[:, t + 1] = X
            if tel:
                reference_emit_round_records(
                    tel, gradient_filter, filter_name, M, X, eta, t, seeds
                )
    elapsed = time.perf_counter() - start

    message_bytes = 16 + 8 * dimension
    messages_delivered = 2 * n * T
    traces = []
    for k in range(K):
        traces.append(
            Trace(
                estimates=estimates[k].copy(),
                directions=directions[k].copy(),
                honest_ids=list(honest_ids),
                faulty_ids=list(faulty_ids),
                eliminated=[],
                wall_time=elapsed / K,
                messages_delivered=messages_delivered,
                bytes_delivered=messages_delivered * message_bytes,
                filter_name=filter_name,
                crash_ids=[],
                extra={"batch": {"size": K, "wall_time": elapsed}},
            )
        )
    return traces
