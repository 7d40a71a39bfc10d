"""E17 — topology vs. redundancy: decentralized filtering on sparse graphs.

The paper's 2f-redundancy condition is global: the server sees all ``n``
gradients, so one bound ``f`` covers the whole system. On a sparse
communication graph the condition fractures into *per-neighborhood*
budgets — agent ``i`` filters only over its closed neighborhood, so what
must hold is ``deg_i >= 2 f_i`` with ``f_i`` the Byzantine count among
``i``'s own neighbors. This experiment sweeps the

    topology x connectivity x fault-count x network-fault-model

grid through :func:`repro.system.decentralized.run_decentralized_dgd` and
reports, per cell, how many agents satisfy their local redundancy bound
alongside the worst honest distance to the common minimizer — making the
trade visible: a denser graph buys feasibility (and faster mixing), a
sparser one loses agents to infeasible neighborhoods first and to slow
consensus second.

Every cell is an independent, seeded, deterministic configuration, so
execution rides :meth:`repro.experiments.sweep.SweepEngine.map_cached`
exactly like the adversary tournament, one single-seed task per cell:
cells are cached under a ``"topology-cell"`` namespace (disjoint from
``"regression-dgd"`` and ``"tournament-match"`` keys), corrupt entries
are discarded and recomputed, and a re-run over a warm cache is pure
cache hits.

Problem instances have *full local rank*: every agent's quadratic cost is
minimized at the same ``x* = (1, ..., 1)``, so local 2f-redundancy holds
by construction wherever the degree bound does, and the reference point
of every distance column is exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import ExperimentResult
from repro.exceptions import InvalidParameterError, ReproError
from repro.experiments.sweep import SweepEngine, _config_hash

__all__ = [
    "DEFAULT_VARIANTS",
    "FAULT_MODELS",
    "run_topology_resilience",
]

#: (topology name, generator params) pairs — the connectivity axis.
DEFAULT_VARIANTS: Tuple[Tuple[str, Dict], ...] = (
    ("ring", {"hops": 1}),
    ("ring", {"hops": 2}),
    ("random-regular", {"degree": 4}),
    ("random-regular", {"degree": 6}),
    ("torus", {}),
    ("complete", {}),
)

#: Named network-fault models (the ``LinkFaultProfile`` of every edge).
FAULT_MODELS: Dict[str, Optional[Dict]] = {
    "clean": None,
    "drops": {"drop_prob": 0.1},
    "chaos": {
        "drop_prob": 0.05,
        "delay_prob": 0.1,
        "max_delay": 2,
        "corrupt_prob": 0.01,
    },
}


def _spread_faulty(n: int, f: int) -> List[int]:
    """``f`` Byzantine ids spread evenly around the id space.

    Even spacing is the *interesting* placement for per-neighborhood
    accounting: clustered ids concentrate ``f_i`` in a few neighborhoods
    and trivially break feasibility there, while spreading makes the
    topology's degree the binding constraint.
    """
    if f <= 0:
        return []
    return sorted({int(round(i * n / f)) % n for i in range(f)})


def _cell_cache_payload(task: Dict) -> Dict:
    """The configuration a cell's cache key is derived from.

    Namespaced ``"topology-cell"`` so E17 cells can share a cache
    directory with regression-grid and tournament entries without
    collision. Covers everything the result is a function of — the
    topology variant, the instance, the fault placement, and the full
    resolved fault-model profile.
    """
    return {
        "kind": "topology-cell",
        "version": 1,
        "topology": task["topology"],
        "params": {str(k): v for k, v in task["params"].items()},
        "n": task["n"],
        "d": task["d"],
        "aggregation": task["aggregation"],
        "iterations": task["iterations"],
        "faulty": list(task["faulty"]),
        "fault_model": task["fault_model"],
        "profile": task["profile"],
        "instance_seed": task["instance_seed"],
        "topology_seed": task["topology_seed"],
        "seed": task["seeds"][0],
        "fault_seed": task["fault_seed"],
    }


def _valid_topology_payload(payload) -> bool:
    """Shape guard for cached E17 cells (beyond the checksum)."""
    return (
        isinstance(payload, dict)
        and isinstance(payload.get("max_honest_dist"), (int, float))
        and isinstance(payload.get("feasible_agents"), int)
        and isinstance(payload.get("counters"), dict)
    )


def full_local_rank_costs(n: int, d: int, instance_seed: int):
    """``n`` quadratic costs sharing the exact minimizer ``x* = 1``.

    Each agent holds ``||A_i x - A_i x*||^2`` with a seeded Gaussian
    ``(2d, d)`` matrix ``A_i`` — full column rank almost surely, so
    *every* subset of agents is minimized exactly at ``x*`` and local
    2f-redundancy holds wherever the degree bound does.
    """
    from repro.optimization.cost_functions import LeastSquaresCost

    rng = np.random.default_rng([int(instance_seed), int(n), int(d)])
    x_star = np.ones(d)
    costs = []
    for _ in range(n):
        A = rng.normal(size=(2 * d, d)) / np.sqrt(2 * d)
        costs.append(LeastSquaresCost(A, A @ x_star))
    return costs, x_star


def _run_topology_cell(task: Dict) -> List[Dict]:
    """Execute one (variant, f, fault-model) cell — picklable pool worker.

    A one-seed task of :meth:`~repro.experiments.sweep.SweepEngine.map_cached`,
    which serves cached cells before dispatch and stores what this
    returns. Feasibility is *measured*, not enforced: a cell whose
    neighborhoods violate ``deg_i >= 2 f_i`` still runs (graceful
    degradation is the subject), with the violating-agent count reported.
    """
    from repro.attacks.registry import make_attack
    from repro.system.decentralized import run_decentralized_dgd
    from repro.system.netfaults import LinkFaultModel, LinkFaultProfile
    from repro.system.topology import make_topology

    try:
        topology = make_topology(
            task["topology"], task["n"], seed=task["topology_seed"],
            **task["params"],
        )
        costs, x_star = full_local_rank_costs(
            task["n"], task["d"], task["instance_seed"]
        )
        faulty = list(task["faulty"])
        budgets = topology.resolve_budgets(None, faulty)
        feasible = int(np.count_nonzero(topology.feasible_agents(budgets)))
        link_faults = None
        if task["profile"] is not None:
            link_faults = LinkFaultModel(
                default_profile=LinkFaultProfile(**task["profile"]),
                seed=task["fault_seed"],
            )
        result = run_decentralized_dgd(
            costs,
            topology,
            aggregation=task["aggregation"],
            faulty_ids=faulty,
            behavior=make_attack("gradient-reverse") if faulty else None,
            iterations=task["iterations"],
            seed=task["seeds"][0],
            link_faults=link_faults,
            validate_feasibility=False,
        )
        distances = result.distances_to(x_star)[result.honest_ids]
        return [{
            "max_honest_dist": float(np.max(distances)),
            "mean_honest_dist": float(np.mean(distances)),
            "feasible_agents": feasible,
            "min_degree": int(topology.min_degree),
            "counters": {k: int(v) for k, v in result.counters.items()},
        }]
    except (InvalidParameterError, ReproError) as exc:
        # The failure is a property of the configuration (e.g. a generator
        # bound): reported, and never stored, so a later fix takes effect.
        return [{"error": f"{type(exc).__name__}: {exc}"}]


def run_topology_resilience(
    variants: Sequence[Tuple[str, Dict]] = DEFAULT_VARIANTS,
    fault_counts: Sequence[int] = (0, 2),
    fault_models: Sequence[str] = ("clean", "chaos"),
    n: int = 24,
    d: int = 2,
    aggregation: str = "cwtm",
    iterations: int = 250,
    instance_seed: int = 11,
    topology_seed: int = 0,
    seed: int = 1,
    fault_seed: int = 3,
    engine: Optional[SweepEngine] = None,
    cache_dir: Optional[str] = None,
    parallel: bool = False,
) -> ExperimentResult:
    """Sweep topology x connectivity x f x fault model; render the table.

    Pass a configured ``engine`` (or just ``cache_dir``) to reuse a cell
    cache across runs — an unchanged grid over a warm cache recomputes
    nothing.
    """
    unknown = [name for name in fault_models if name not in FAULT_MODELS]
    if unknown:
        raise InvalidParameterError(
            f"unknown fault model(s) {', '.join(map(repr, unknown))}; "
            f"available: {', '.join(sorted(FAULT_MODELS))}"
        )
    if engine is None:
        engine = SweepEngine(parallel=parallel, cache_dir=cache_dir)
    tasks = []
    for topology_name, params in variants:
        for f in fault_counts:
            for model_name in fault_models:
                tasks.append({
                    "topology": topology_name,
                    "params": dict(params),
                    "n": int(n),
                    "d": int(d),
                    "aggregation": aggregation,
                    "iterations": int(iterations),
                    "faulty": _spread_faulty(n, f),
                    "fault_model": model_name,
                    "profile": FAULT_MODELS[model_name],
                    "instance_seed": int(instance_seed),
                    "topology_seed": int(topology_seed),
                    "seeds": [int(seed)],
                    "fault_seed": int(fault_seed),
                })
    keys = [[_config_hash(_cell_cache_payload(task))] for task in tasks]
    cells = [
        payloads[0] for payloads in engine.map_cached(
            _run_topology_cell, tasks, keys, _valid_topology_payload
        )
    ]

    result = ExperimentResult(
        experiment_id="E17",
        title=(
            f"decentralized {aggregation} across topologies "
            f"(n={n}, d={d}, T={iterations}, gradient-reverse attack, "
            f"spread Byzantine placement)"
        ),
        headers=[
            "topology", "f", "faults", "deg_min", "2f-feasible",
            "max honest dist", "dropped", "corrupted", "quarantined",
        ],
    )
    cached = failed = 0
    for task, cell in zip(tasks, cells):
        label = task["topology"]
        if task["params"]:
            label += "(" + ",".join(
                f"{k}={v}" for k, v in sorted(task["params"].items())
            ) + ")"
        if "error" in cell:
            failed += 1
            result.rows.append([
                label, len(task["faulty"]), task["fault_model"],
                "-", "-", cell["error"], "-", "-", "-",
            ])
            continue
        cached += int(cell.get("cached", False))
        counters = cell["counters"]
        result.rows.append([
            label,
            len(task["faulty"]),
            task["fault_model"],
            cell["min_degree"],
            f"{cell['feasible_agents']}/{n}",
            cell["max_honest_dist"],
            counters.get("dropped_edges", 0),
            counters.get("corrupted_edges", 0),
            counters.get("quarantined", 0),
        ])
    result.notes.append(
        "2f-feasible counts agents with deg_i >= 2 f_i for the actual "
        "Byzantine placement; infeasible neighborhoods still run "
        "(mean fallback) — their error is the graceful-degradation cost"
    )
    result.notes.append(
        f"{len(cells)} cells ({cached} from cache, {failed} failed); "
        "cells are cached under the 'topology-cell' namespace"
    )
    return result
