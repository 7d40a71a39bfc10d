"""E16 — CGE under a degraded (partially-synchronous) network.

The paper's convergence guarantee is proved under perfect synchrony. This
experiment measures how far DGD+CGE drifts from the honest minimizer when
that assumption erodes in two independent directions:

- the **delay bound** ``B``: every link may hold a message up to ``B``
  rounds (the self-healing server compensates with bounded-staleness
  gradient reuse and partial aggregation);
- the **straggler fraction**: some honest agents periodically miss their
  round deadline outright.

Each grid cell runs the same 2f-redundant regression instance and the same
gradient-reverse adversary as the fault-free baseline (the ``B=0``,
``0 stragglers`` corner, which is bit-identical to the synchronous engine);
the reported error is ``dist(x_H, x_out)``, directly comparable across the
grid. Every fault draw is a pure function of the fault seed, so the whole
table is exactly reproducible.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.metrics import final_error
from repro.analysis.reporting import ExperimentResult
from repro.attacks.registry import make_attack
from repro.problems.linear_regression import make_redundant_regression
from repro.system.netfaults import FaultProfile, NetworkFaultModel
from repro.system.runner import run_dgd
from repro.utils.rng import SeedLike


def run_degraded_network(
    n: int = 6,
    d: int = 2,
    f: int = 1,
    delay_bounds: Sequence[int] = (0, 1, 2, 4),
    straggler_counts: Sequence[int] = (0, 1, 2),
    delay_prob: float = 0.3,
    straggle_every: int = 3,
    iterations: int = 400,
    noise_std: float = 0.0,
    seed: SeedLike = 11,
    fault_seed: int = 7,
) -> ExperimentResult:
    """CGE final error across the delay-bound × straggler-count grid."""
    instance = make_redundant_regression(n=n, d=d, f=f, noise_std=noise_std, seed=seed)
    faulty = tuple(range(f))
    honest = [i for i in range(n) if i not in faulty]
    x_H = instance.honest_minimizer(honest)
    result = ExperimentResult(
        experiment_id="E16",
        title=(
            f"DGD+CGE error under partial synchrony "
            f"(n={n}, f={f}, d={d}, T={iterations}, gradient-reverse attack)"
        ),
        headers=[
            "delay bound B", "stragglers", "dist(x_H, x_out)",
            "stale reuses", "stalled rounds", "dropped msgs",
        ],
    )
    for bound in delay_bounds:
        for stragglers in straggler_counts:
            if stragglers > len(honest):
                continue
            profiles = {}
            if bound > 0:
                base = FaultProfile(delay_prob=delay_prob, max_delay=bound)
                profiles.update({i: base for i in range(n)})
            # Stragglers are drawn from the highest-id agents — all honest,
            # so the attack and the degradation stress different agents.
            for agent_id in range(n - stragglers, n):
                existing = profiles.get(agent_id, FaultProfile())
                profiles[agent_id] = FaultProfile(
                    drop_prob=existing.drop_prob,
                    delay_prob=existing.delay_prob,
                    max_delay=existing.max_delay,
                    straggle_every=straggle_every,
                    straggle_delay=max(bound, 1),
                )
            model = (
                NetworkFaultModel(profiles=profiles, seed=int(fault_seed))
                if profiles
                else None
            )
            trace = run_dgd(
                instance.costs,
                make_attack("gradient-reverse"),
                gradient_filter="cge",
                faulty_ids=faulty,
                iterations=iterations,
                seed=seed,
                fault_model=model,
            )
            resilience = trace.extra.get("resilience", {})
            result.rows.append(
                [
                    bound,
                    stragglers,
                    final_error(trace, x_H),
                    resilience.get("stale_reuses", 0),
                    resilience.get("stalled_rounds", 0),
                    trace.messages_dropped,
                ]
            )
    result.notes.append(
        "the B=0 / 0-straggler corner runs the synchronous engine; every "
        "degraded cell runs the self-healing runtime under the rules its "
        "fault model implies (staleness bound 2B, no silence elimination), "
        "so no honest agent is ever eliminated"
    )
    return result
