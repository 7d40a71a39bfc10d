"""Workload ``decentralized_n1024``: sparse decentralized DGD at n=1024.

Each pass runs three configs through ``run_decentralized_dgd`` (n=1024,
d=8, full-local-rank quadratics, 20 spread Byzantine agents):

- ``a``: random-regular degree 8, CWTM, gradient-reverse, chaotic links
  (drop 0.05, delay 0.1 up to 2 rounds, corrupt 0.01) — the committed
  ``scale_decentralized_rr8_n1024`` scenario;
- ``b``: ring with hops 2, CGE, ALIE, chaotic links plus one
  ``PartitionWindow`` and three ``ChurnWindow``s;
- ``c``: config ``a`` without link faults, which takes the engine's
  perfect-synchrony fast path and so bypasses the link-fault and
  liveness layers (a change to those layers should not move it).

Every draw is a pure function of the seeds below, so all passes of one
run repeat the same work; the benchmark seed picks the graph, the cost
instance, the Byzantine placement and the fault schedule.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from common import (
    LayerTracer,
    WorkloadResult,
    coverage,
    latency_metrics,
    layer_table,
    machine_lines,
    overhead,
    timed_passes,
)

N, D, ITERATIONS = 1024, 8, 100
BYZANTINE = 20
CONFIGS = ("a", "b", "c")
#: Output check: worst honest distance to the common minimizer after
#: ITERATIONS rounds (the start is ||0 - 1|| = 2.83 away). Measured
#: worst cases are below 0.06; the bound leaves room for other seeds.
MAX_HONEST_DISTANCE = 0.25


def _inputs(seed: int) -> Dict:
    from repro.attacks.adaptive import ALittleIsEnough
    from repro.attacks.simple import GradientReverse
    from repro.experiments.topology_resilience import full_local_rank_costs
    from repro.system.netfaults import (
        ChurnWindow,
        LinkFaultModel,
        LinkFaultProfile,
        PartitionWindow,
    )

    rng = np.random.default_rng([seed, 1024])
    topo_seed, cost_seed, fault_seed, run_seed = (
        int(v) for v in rng.integers(0, 2**31 - 1, size=4)
    )
    spacing = N // BYZANTINE - 1  # 52 hops between Byzantine agents
    offset = int(rng.integers(0, N - spacing * (BYZANTINE - 1)))
    faulty = list(range(offset, N, spacing))[:BYZANTINE]
    costs, x_star = full_local_rank_costs(N, D, instance_seed=cost_seed)
    chaotic = LinkFaultProfile(
        drop_prob=0.05, delay_prob=0.1, max_delay=2, corrupt_prob=0.01
    )
    cut = int(rng.integers(0, N // 2))
    churned = sorted(int(a) for a in rng.choice(
        [i for i in range(N) if i not in faulty], size=3, replace=False))
    partitioned = LinkFaultModel(
        default_profile=chaotic,
        partitions=(PartitionWindow(
            start=ITERATIONS // 4, end=ITERATIONS // 4 + 5,
            groups=(tuple(range(cut, cut + N // 2)),)),),
        churn=tuple(ChurnWindow(agent=a, down_round=ITERATIONS // 3,
                                up_round=ITERATIONS // 3 + 4)
                    for a in churned),
        seed=fault_seed,
    )
    return {
        "topo_seed": topo_seed,
        "run_seed": run_seed,
        "faulty": faulty,
        "costs": costs,
        "x_star": x_star,
        "configs": {
            "a": dict(topology="rr8", aggregation="cwtm",
                      behavior=GradientReverse(strength=2.0),
                      link_faults=LinkFaultModel(default_profile=chaotic,
                                                 seed=fault_seed)),
            "b": dict(topology="ring", aggregation="cge",
                      behavior=ALittleIsEnough(), link_faults=partitioned),
            "c": dict(topology="rr8", aggregation="cwtm",
                      behavior=GradientReverse(strength=2.0),
                      link_faults=None),
        },
    }


def _topologies(topo_seed: int) -> Dict:
    from repro.system.topology import make_topology

    return {
        "rr8": make_topology("random-regular", N, seed=topo_seed, degree=8),
        "ring": make_topology("ring", N, seed=topo_seed, hops=2),
    }


def setup(seed: int) -> Dict:
    """Imports, instance and topology build, and one short warm-up run
    per config (lazy first-use work such as ALIE's ``scipy.stats``)."""
    state = _inputs(seed)
    state["topologies"] = _topologies(state["topo_seed"])
    for name in CONFIGS:
        _run(state, name, iterations=3)
    return state


def _run(state: Dict, name: str, iterations: int = ITERATIONS):
    # Looked up on the module at each call, so the traced run sees the
    # wrapped engine.
    import repro.system.decentralized as engine

    config = state["configs"][name]
    return engine.run_decentralized_dgd(
        state["costs"],
        state["topologies"][config["topology"]],
        aggregation=config["aggregation"],
        faulty_ids=state["faulty"],
        behavior=config["behavior"],
        iterations=iterations,
        seed=state["run_seed"],
        link_faults=config["link_faults"],
    )


def _install(tracer: LayerTracer) -> None:
    """Wrap the engine and the layers it calls, as bound in its module."""
    import repro.system.decentralized as engine
    from repro.attacks.base import ByzantineBehavior
    from repro.system.healing import NeighborhoodLiveness
    from repro.system.netfaults import LinkFaultModel

    def count_draws(counts, args, kwargs, result):
        round_index, senders = args[1], args[2]
        counts["edges_drawn"] += len(senders)
        dropped, delay = result["dropped"], result["delay"]
        counts["edges_dropped"] += int(dropped.sum())
        # In flight since before round 0: neither delivered nor dropped.
        counts["edges_prestart"] += int((~dropped & (delay > round_index)).sum())

    def count_delivered(counts, args, kwargs, result):
        counts["edges_delivered"] += int(args[2].sum())

    def count_elements(counts, args, kwargs, result):
        counts["mix_elements"] += int(np.asarray(args[0]).size)

    tracer.patch(engine, "run_decentralized_dgd", "decentralized")
    tracer.patch(LinkFaultModel, "draw_link_faults", "netfaults.link_draw",
                 count_draws)
    tracer.patch(engine, "corrupt_payload_rows", "netfaults.corrupt")
    tracer.patch(NeighborhoodLiveness, "observe", "healing.liveness",
                 count_delivered)
    tracer.patch(engine, "partition_trimmed_mean", "aggregators.mix",
                 count_elements)
    tracer.patch(engine, "cge_kept_indices_batch", "aggregators.mix",
                 count_elements)
    tracer.patch(ByzantineBehavior, "__call__", "attacks.forge")
    # The engine builds its row projector once per run; wrap the built one.
    tracer.replace(engine, "numpy_batch_projector", lambda make: (
        lambda constraint: tracer.wrap("projections.project",
                                       make(constraint))))


def _phase(state: Dict, seconds: float, tracer=None) -> Dict:
    def describe(name, result):
        config = state["configs"][name]
        nbr_valid = state["topologies"][config["topology"]].neighbor_matrix()[1]
        return {
            "distance": result.max_honest_distance_to(state["x_star"]),
            "faulted": config["link_faults"] is not None,
            "edges": int(np.count_nonzero(nbr_valid)),
            "dropped": int(result.counters["dropped_edges"]),
            "quarantined": int(result.counters["quarantined"]),
        }

    return timed_passes(CONFIGS, lambda name: _run(state, name), describe,
                        seconds, tracer)


def measure(state: Dict, seconds: float, trace: bool) -> Dict:
    if not trace:
        return {"timed": _phase(state, seconds)}
    untraced = _phase(state, seconds / 2)
    tracer = LayerTracer()
    _install(tracer)
    try:
        # Rebuild the graphs under the tracer to time the build layer.
        state["topologies"] = _traced_topologies(tracer, state["topo_seed"])
        traced = _phase(state, seconds / 2, tracer)
    finally:
        tracer.restore()
    return {"timed": untraced, "traced": traced}


def _traced_topologies(tracer: LayerTracer, topo_seed: int) -> Dict:
    """``make_topology`` plus the cached ``neighbor_matrix`` build, timed."""
    from repro.system.topology import make_topology

    def build(name, **params):
        topology = make_topology(name, N, seed=topo_seed, **params)
        topology.neighbor_matrix()
        return topology

    timed_build = tracer.wrap("topology.build", build)
    return {
        "rr8": timed_build("random-regular", degree=8),
        "ring": timed_build("ring", hops=2),
    }


# ----------------------------------------------------------------------
# parent side: metrics, checks and the traced report
# ----------------------------------------------------------------------

#: per-layer metric -> (unit, the end-to-end metric it should move)
LAYERS = {
    "topology.build_s": ("s", "setup_s"),
    "decentralized.self_s": ("s", "throughput_per_s"),
    "netfaults.link_draw_s": ("s", "throughput_per_s (configs a, b; not c)"),
    "netfaults.edges_drawn": ("count", "throughput_per_s (configs a, b; not c)"),
    "netfaults.corrupt_s": ("s", "throughput_per_s"),
    "healing.liveness_s": ("s", "throughput_per_s (configs a, b; not c)"),
    "aggregators.mix_s": ("s", "throughput_per_s"),
    "aggregators.mix_calls": ("count", "throughput_per_s"),
    "aggregators.mix_elements": ("count", "throughput_per_s"),
    "attacks.forge_s": ("s", "throughput_per_s"),
    "projections.project_s": ("s", "throughput_per_s"),
    "decentralized.edges_delivered": ("count", "counts, not timings"),
    "decentralized.edges_dropped": ("count", "counts, not timings"),
    "decentralized.edges_predicted": ("count", "counts, not timings"),
}


def _end_to_end(phase: Dict, key: str = "ref_wall") -> Dict[str, float]:
    walls = [run[key] for run in phase["runs"]]
    finite = [wall for wall in walls if wall != float("inf")]
    return {
        "throughput_per_s": N * ITERATIONS * len(finite) / sum(finite)
        if finite else 0.0,
        **latency_metrics(walls),
    }


def summarize(payload: Dict, result: WorkloadResult, trace: bool) -> None:
    timed = payload["timed"]
    runs = timed["runs"] + (payload["traced"]["runs"] if trace else [])
    result.attempted = len(runs)
    bad = [r for r in runs if "error" in r
           or not r["distance"] <= MAX_HONEST_DISTANCE]
    result.failed = len(bad)
    worst = max((r.get("distance", float("inf")) for r in runs), default=0.0)
    result.check(
        "final honest distance",
        not bad,
        f"worst {worst:.4g} over {len(runs)} runs, bound "
        f"{MAX_HONEST_DISTANCE}" + (f"; first failure: {bad[0]}" if bad else ""),
    )
    result.end_to_end.update(_end_to_end(timed))
    result.named.append(("agent_rounds_per_s",
                         result.end_to_end["throughput_per_s"],
                         "agent-rounds/s"))
    for name in CONFIGS:
        walls = [r["ref_wall"] for r in timed["runs"] if r["name"] == name
                 and "error" not in r]
        result.named.append((f"config_{name}_agent_rounds_per_s",
                             N * ITERATIONS * len(walls) / sum(walls)
                             if walls else 0.0, "agent-rounds/s"))
    result.named += machine_lines(timed, _end_to_end(timed, "wall"),
                                  "agent-rounds/s")
    if trace:
        _traced_report(payload, result)


def _traced_report(payload: Dict, result: WorkloadResult) -> None:
    traced = payload["traced"]
    self_s = traced["tracer"]["self_s"]
    calls, counts = traced["tracer"]["calls"], traced["tracer"]["counts"]
    faulted = [r for r in traced["runs"] if "error" not in r and r["faulted"]]
    predicted = sum(r["edges"] for r in faulted) * ITERATIONS
    dropped = sum(r["dropped"] for r in faulted)
    quarantined = sum(r["quarantined"] for r in faulted)
    delivered = counts.get("edges_delivered", 0)
    prestart = counts.get("edges_prestart", 0)
    layers = {
        "topology.build_s": self_s.get("topology.build", 0.0),
        "decentralized.self_s": self_s.get("decentralized", 0.0),
        "netfaults.link_draw_s": self_s.get("netfaults.link_draw", 0.0),
        "netfaults.edges_drawn": counts.get("edges_drawn", 0),
        "netfaults.corrupt_s": self_s.get("netfaults.corrupt", 0.0),
        "healing.liveness_s": self_s.get("healing.liveness", 0.0),
        "aggregators.mix_s": self_s.get("aggregators.mix", 0.0),
        "aggregators.mix_calls": calls.get("aggregators.mix", 0),
        "aggregators.mix_elements": counts.get("mix_elements", 0),
        "attacks.forge_s": self_s.get("attacks.forge", 0.0),
        "projections.project_s": self_s.get("projections.project", 0.0),
        "decentralized.edges_delivered": delivered,
        "decentralized.edges_dropped": dropped,
        "decentralized.edges_predicted": predicted,
    }
    result.per_layer.update(layers)
    result.report.append(f"traced passes: {len(traced['runs']) // 3} "
                         f"({len(traced['runs'])} runs, T={ITERATIONS})")
    result.report.extend(layer_table(layers, LAYERS))
    # Every directed edge is drawn once per round, and each draw ends
    # delivered, dropped, quarantined (non-finite payload) or still in
    # flight from before round 0.
    accounted = delivered + dropped + quarantined + prestart
    match = accounted == predicted and counts.get("edges_dropped") == dropped
    result.report.append(
        f"prediction edges sum(deg_i)*T = {predicted}; measured delivered "
        f"{delivered} + dropped {dropped} + quarantined {quarantined} + in "
        f"flight before round 0 {prestart} = {accounted} -> "
        + ("ok" if match else "MISMATCH"))
    result.check("edge-count prediction", match,
                 f"predicted {predicted}, accounted {accounted}")
    covered = sum(v for k, v in self_s.items() if k != "topology.build")
    coverage(result, covered, traced["seconds"],
             self_s.get("decentralized", 0.0))
    overhead(result, _end_to_end(payload["timed"]), _end_to_end(traced))
