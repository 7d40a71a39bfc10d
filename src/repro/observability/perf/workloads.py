"""Default bench registry: every figure/table workload plus a smoke subset.

Importing this module populates the :mod:`bench_harness` registry with one
spec per ``benchmarks/bench_*.py`` file — the bench scripts themselves run
*through* these specs (``benchmarks/conftest.py`` resolves by name), so
pytest, ``repro bench run`` and ``repro bench gate`` all execute the exact
same workload definition and emit the same ``BENCH_<name>.json`` schema.

Tags partition the registry:

- ``paper`` — the figure/table/ablation reconstructions (heavyweight;
  run via ``pytest benchmarks/`` or ``repro bench run --tag paper``);
- ``engine`` — the multi-mode throughput workload whose speedup ratio is
  the batch engine's reason to exist;
- ``smoke`` — sub-second workloads exercising the hot paths (single-run
  DGD, the batch engine, the aggregation kernels), fast enough for CI to
  ``repro bench gate`` on every push.

Quality ``metrics`` (gated tightly) are seeded, deterministic scalars —
final errors against the honest minimizer. Wall-clock-derived quantities
(speedup ratios, runs/sec) go into non-gated ``observations``.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from repro.observability.perf.bench_harness import register_bench

# ----------------------------------------------------------------------
# Paper figure/table workloads (one per benchmarks/bench_*.py)
# ----------------------------------------------------------------------


def _series_last(result, name: str) -> float:
    return float(np.asarray(result.series[name], dtype=float)[-1])


def _table1_metrics(result) -> Dict[str, float]:
    errors = {
        (row[0], row[1]): float(row[3])
        for row in result.rows
        if row[0] != "fault-free"
    }
    return {
        "cge_gradient_reverse_error": errors[("cge", "gradient-reverse")],
        "cge_random_error": errors[("cge", "random")],
        "average_gradient_reverse_error": errors[("average", "gradient-reverse")],
    }


def _fault_sweep_metrics(result) -> Dict[str, float]:
    return {
        "cge_error_at_max_f": _series_last(result, "cge error vs f"),
        "average_error_at_max_f": _series_last(result, "average error vs f"),
    }


@register_bench(
    "table1_final_error",
    workload={"experiment": "E1", "n": 6, "d": 2, "f": 1, "iterations": 500},
    tags=("paper", "table"),
    metrics=_table1_metrics,
    description="Table 1: final error of filtered DGD under attack",
)
def _bench_table1(tel):
    from repro.experiments import run_table1

    return run_table1()


@register_bench(
    "fig2_trajectories",
    workload={"experiment": "E2", "iterations": 500},
    tags=("paper", "figure"),
    description="Figure 2: loss/distance trajectories per filter and attack",
)
def _bench_fig2(tel):
    from repro.experiments import run_trajectories

    return run_trajectories()


@register_bench(
    "fig3_early_iterations",
    workload={"experiment": "E3", "early_window": 80},
    tags=("paper", "figure"),
    description="Figure 3: early-iteration window of the trajectories",
)
def _bench_fig3(tel):
    from repro.experiments import run_trajectories

    return run_trajectories(early_window=80)


@register_bench(
    "fig4_redundancy_violation",
    workload={"experiment": "E5"},
    tags=("paper", "figure"),
    description="Figure 4: error growth as noise breaks 2f-redundancy",
)
def _bench_fig4(tel):
    from repro.experiments import run_noise_sweep

    return run_noise_sweep()


@register_bench(
    "fig5_fault_sweep",
    workload={"experiment": "E6"},
    tags=("paper", "figure"),
    metrics=_fault_sweep_metrics,
    description="Figure 5: final error vs fault count, alpha condition",
)
def _bench_fig5(tel):
    from repro.experiments import run_fault_sweep

    return run_fault_sweep()


@register_bench(
    "fig6_aggregator_scaling",
    workload={
        "experiment": "E9",
        "agent_counts": [10, 25, 50, 100],
        "dimensions": [2, 100],
        "repeats": 3,
    },
    tags=("paper", "figure"),
    description="Figure 6: aggregation wall-time vs n and d",
)
def _bench_fig6(tel):
    from repro.experiments import run_aggregator_scaling

    # Forwarding the harness handle puts one span per (filter, n, d) cell
    # into the bench's phase attribution.
    return run_aggregator_scaling(
        agent_counts=(10, 25, 50, 100), dimensions=(2, 100), repeats=3,
        telemetry=tel,
    )


@register_bench(
    "fig7_heterogeneity",
    workload={"experiment": "E14"},
    tags=("paper", "figure"),
    description="Figure 7: accuracy vs data-correlation heterogeneity",
)
def _bench_fig7(tel):
    from repro.experiments import run_heterogeneity_sweep

    return run_heterogeneity_sweep()


@register_bench(
    "table2_exact_algorithm",
    workload={"experiment": "E4"},
    tags=("paper", "table"),
    description="Table 2: the exact subset-enumeration algorithm",
)
def _bench_table2(tel):
    from repro.experiments import run_exact_algorithm_table

    return run_exact_algorithm_table()


@register_bench(
    "table3_learning",
    workload={"experiment": "E7"},
    tags=("paper", "table"),
    description="Table 3: distributed learning evaluation",
)
def _bench_table3(tel):
    from repro.experiments import run_learning_eval

    return run_learning_eval()


@register_bench(
    "table4_peer_to_peer",
    workload={"experiment": "E8"},
    tags=("paper", "table"),
    description="Table 4: peer-to-peer vs server equivalence",
)
def _bench_table4(tel):
    from repro.experiments import run_peer_vs_server

    return run_peer_vs_server()


@register_bench(
    "table5_robustness_matrix",
    workload={"experiment": "E10", "parallel": True},
    tags=("paper", "table"),
    description="Table 5: filter x attack robustness matrix",
)
def _bench_table5(tel):
    from repro.experiments import run_robustness_matrix

    return run_robustness_matrix(parallel=True)


@register_bench(
    "table6_replication",
    workload={"experiment": "E11"},
    tags=("paper", "table"),
    description="Table 6: redundancy by replication design",
)
def _bench_table6(tel):
    from repro.experiments import run_replication_design

    return run_replication_design()


@register_bench(
    "table7_cwtm_dimension",
    workload={"experiment": "E12"},
    tags=("paper", "table"),
    description="Table 7: CWTM condition vs problem dimension",
)
def _bench_table7(tel):
    from repro.experiments import run_cwtm_dimension_sweep

    return run_cwtm_dimension_sweep()


@register_bench(
    "table8_worst_case",
    workload={"experiment": "E13"},
    tags=("paper", "table"),
    description="Table 8: empirical worst-case certification",
)
def _bench_table8(tel):
    from repro.experiments import run_worst_case_certification

    return run_worst_case_certification()


@register_bench(
    "table9_communication",
    workload={"experiment": "E15"},
    tags=("paper", "table"),
    description="Table 9: communication cost per algorithm family",
)
def _bench_table9(tel):
    from repro.experiments import run_communication_costs

    return run_communication_costs()


@register_bench(
    "ablation_cge_sum_vs_mean",
    workload={"experiment": "A1"},
    tags=("paper", "ablation"),
    description="Ablation: CGE sum vs mean aggregation",
)
def _bench_ablation_a1(tel):
    from repro.experiments import run_cge_sum_vs_mean

    return run_cge_sum_vs_mean()


@register_bench(
    "ablation_step_sizes",
    workload={"experiment": "A2"},
    tags=("paper", "ablation"),
    description="Ablation: step-size schedules",
)
def _bench_ablation_a2(tel):
    from repro.experiments import run_step_size_ablation

    return run_step_size_ablation()


@register_bench(
    "ablation_projection",
    workload={"experiment": "A3"},
    tags=("paper", "ablation"),
    description="Ablation: size of the compact constraint set W",
)
def _bench_ablation_a3(tel):
    from repro.experiments import run_projection_ablation

    return run_projection_ablation()


@register_bench(
    "ablation_stochastic",
    workload={"experiment": "A4"},
    tags=("paper", "ablation"),
    description="Ablation: stochastic DGD step sizes",
)
def _bench_ablation_a4(tel):
    from repro.experiments import run_stochastic_step_sizes

    return run_stochastic_step_sizes()


@register_bench(
    "degraded_network",
    workload={"experiment": "E16", "iterations": 200},
    tags=("paper", "extension"),
    description="E16: CGE under the partially-synchronous fault model",
)
def _bench_degraded_network(tel):
    from repro.experiments import run_degraded_network

    return run_degraded_network(iterations=200)


# ----------------------------------------------------------------------
# Engine throughput (sequential vs batch vs pooled)
# ----------------------------------------------------------------------

_ENGINE_WORKLOAD = {
    "n": 6,
    "d": 2,
    "f": 1,
    "iterations": 300,
    "num_seeds": 50,
    "master_seed": 20200803,
    "pooled_filters": ["cge", "cwtm", "median", "average"],
    "pooled_attacks": ["gradient-reverse", "zero"],
}


@register_bench(
    "engine",
    workload=_ENGINE_WORKLOAD,
    tags=("engine",),
    observations=lambda report: report,
    description="Replicate-run throughput: sequential vs batch vs pooled",
)
def _bench_engine(tel):
    """Three-mode throughput measurement of the execution engines.

    The sequential/batch/pooled modes each run under their own telemetry
    span, so the emitted ``BENCH_engine.json`` carries per-phase timings;
    the batch-vs-sequential spot-check (bit-identical estimates) runs
    inside the workload so any caller — pytest or CLI — fails loudly if
    the speedup is bought with different numbers.
    """
    from repro.attacks.registry import make_attack
    from repro.experiments.sweep import (
        RegressionGrid,
        SweepEngine,
        derive_run_seeds,
    )
    from repro.problems.linear_regression import make_redundant_regression
    from repro.system.batch import run_dgd_batch
    from repro.system.runner import DGDConfig, run_dgd

    w = _ENGINE_WORKLOAD
    instance = make_redundant_regression(
        n=w["n"], d=w["d"], f=w["f"], noise_std=0.0, seed=w["master_seed"]
    )
    config = DGDConfig(
        iterations=w["iterations"], gradient_filter="cge", faulty_ids=(0,),
        f=w["f"],
    )
    behavior = make_attack("gradient-reverse")
    seeds = derive_run_seeds(w["master_seed"], w["num_seeds"])

    with tel.span("sequential"):
        start = time.perf_counter()
        sequential_traces = [
            run_dgd(instance.costs, behavior, config, seed=seed)
            for seed in seeds
        ]
        sequential_elapsed = time.perf_counter() - start

    with tel.span("batch"):
        batch_traces = run_dgd_batch(
            instance.costs, behavior, config, seeds=seeds
        )
    batch_elapsed = batch_traces[0].extra["batch"]["wall_time"]

    # Spot-check the speedup is not bought with different numbers.
    for a, b in zip(sequential_traces, batch_traces):
        assert np.array_equal(a.estimates, b.estimates)

    grid = RegressionGrid(
        filters=tuple(w["pooled_filters"]),
        attacks=tuple(w["pooled_attacks"]),
        fault_counts=(w["f"],),
        num_seeds=w["num_seeds"],
        master_seed=w["master_seed"],
        n=w["n"],
        d=w["d"],
        iterations=w["iterations"],
    )
    engine = SweepEngine(parallel=True)
    with tel.span("pooled"):
        start = time.perf_counter()
        cells = engine.run_regression_grid(grid)
        pooled_elapsed = time.perf_counter() - start
    assert not any(cell.failed for cell in cells)

    return {
        "pooled_grid_cells": len(cells),
        "runs_per_sec": {
            "sequential": w["num_seeds"] / sequential_elapsed,
            "batch": w["num_seeds"] / batch_elapsed,
            "pooled": len(cells) / pooled_elapsed,
        },
        "speedup": {
            "batch_vs_sequential": sequential_elapsed / batch_elapsed,
            "pooled_vs_sequential": (
                (len(cells) / pooled_elapsed)
                / (w["num_seeds"] / sequential_elapsed)
            ),
        },
    }


# ----------------------------------------------------------------------
# Smoke subset (sub-second; CI gates these on every push)
# ----------------------------------------------------------------------


def _smoke_instance(n=6, d=2, f=1, seed=7):
    from repro.problems.linear_regression import make_redundant_regression

    instance = make_redundant_regression(n=n, d=d, f=f, noise_std=0.0, seed=seed)
    honest = [i for i in range(n) if i >= f]
    return instance, instance.honest_minimizer(honest)


@register_bench(
    "smoke_dgd_round",
    workload={"n": 6, "d": 2, "f": 1, "iterations": 120, "filter": "cge",
              "attack": "gradient-reverse", "seed": 7},
    tags=("smoke",),
    metrics=lambda out: {"final_error": out["final_error"]},
    description="Smoke: one filtered-DGD run on the paper's E1 instance",
)
def _bench_smoke_dgd(tel):
    from repro.attacks.registry import make_attack
    from repro.system.runner import run_dgd

    instance, x_H = _smoke_instance()
    tel.annotate(byzantine_ids=(0,), reference_point=x_H)
    trace = run_dgd(
        instance.costs,
        make_attack("gradient-reverse"),
        gradient_filter="cge",
        faulty_ids=(0,),
        f=1,
        iterations=120,
        seed=7,
        telemetry=tel,
    )
    return {
        "final_error": float(np.linalg.norm(trace.final_estimate - x_H)),
        "trace": trace,
    }


@register_bench(
    "smoke_batch_engine",
    workload={"n": 6, "d": 2, "f": 1, "iterations": 80, "num_seeds": 16,
              "filter": "cge", "attack": "gradient-reverse",
              "master_seed": 7},
    tags=("smoke",),
    metrics=lambda out: {"mean_final_error": out["mean_final_error"]},
    description="Smoke: the vectorized batch engine across 16 seeds",
)
def _bench_smoke_batch(tel):
    from repro.attacks.registry import make_attack
    from repro.experiments.sweep import derive_run_seeds
    from repro.system.batch import run_dgd_batch

    instance, x_H = _smoke_instance()
    tel.annotate(byzantine_ids=(0,), reference_point=x_H)
    traces = run_dgd_batch(
        instance.costs,
        make_attack("gradient-reverse"),
        seeds=derive_run_seeds(7, 16),
        gradient_filter="cge",
        faulty_ids=(0,),
        f=1,
        iterations=80,
        telemetry=tel,
    )
    errors = [np.linalg.norm(t.final_estimate - x_H) for t in traces]
    return {"mean_final_error": float(np.mean(errors)), "traces": traces}


@register_bench(
    "smoke_heavy_tail",
    workload={"n": 6, "d": 2, "f": 1, "noise_std": 0.02, "iterations": 500,
              "seed": 7, "filters": ["geomed", "gmom"],
              "attack": "gradient-reverse",
              "grid": {"filters": ["cge"], "attacks": ["alie"], "num_seeds": 8,
                       "iterations": 300}},
    tags=("smoke",),
    metrics=lambda out: {
        key: out[key]
        for key in ("geomed_final_error", "gmom_final_error",
                    "alie_mean_final_error")
    },
    description="Smoke: the costliest serve_mix jobs, geomed and gmom run "
                "jobs and a cge/alie grid group",
)
def _bench_smoke_heavy_tail(tel):
    from repro.analysis.metrics import final_error
    from repro.attacks.registry import make_attack
    from repro.experiments.common import regression_setup
    from repro.experiments.sweep import RegressionGrid, SweepEngine
    from repro.system.batch import run_dgd_batch

    # Two run jobs at the service's run defaults, at seed 7.
    instance, faulty, x_H = regression_setup(6, 2, 1, 0.02, 7)
    out = {}
    for filter_name in ("geomed", "gmom"):
        with tel.span(filter_name):
            (trace,) = run_dgd_batch(
                instance.costs,
                make_attack("gradient-reverse"),
                gradient_filter=filter_name,
                faulty_ids=faulty,
                iterations=500,
                seeds=[7],
            )
        out[f"{filter_name}_final_error"] = float(final_error(trace, x_H))
    # One (filter, attack, f) group of the default grid: K = 8, T = 300.
    grid = RegressionGrid(filters=("cge",), attacks=("alie",), num_seeds=8)
    with tel.span("alie_grid_group"):
        cells = SweepEngine(parallel=False).run_regression_grid(grid)
    out["alie_mean_final_error"] = float(np.mean([c.final_error for c in cells]))
    return out


_TOURNAMENT_SMOKE_WORKLOAD = {
    "filters": ["cge", "cwtm", "average"],
    "attacks": ["gradient-reverse", "alie", "zero"],
    "rounds": 1,
    "num_seeds": 2,
    "n": 8,
    "d": 2,
    "f": 1,
    "iterations": 80,
    "master_seed": 20200803,
}


@register_bench(
    "tournament_smoke",
    workload=_TOURNAMENT_SMOKE_WORKLOAD,
    tags=("smoke", "tournament"),
    metrics=lambda out: {
        "cwtm_elo": out["cwtm_elo"],
        "mean_final_error": out["mean_final_error"],
        "failed_matches": out["failed_matches"],
    },
    description="Smoke: a 3x3x2-seed adversary tournament end-to-end",
)
def _bench_tournament_smoke(tel):
    """One tiny tournament through the full engine/scoring/Elo stack.

    Every future perf PR inherits a standing adversarial workload: the
    cross-product scheduling, match scoring, per-seed Elo batches, and
    leaderboard assembly all run; the ``cwtm_elo`` and
    ``mean_final_error`` quality metrics gate against drift in the
    scoring pipeline itself.
    """
    from repro.experiments.sweep import SweepEngine
    from repro.experiments.tournament import (
        AttackSpec,
        TournamentConfig,
        run_tournament,
    )

    config = TournamentConfig(
        name="bench-smoke",
        filters=("cge", "cwtm", "average"),
        attacks=(
            AttackSpec.with_params("gradient-reverse", "gradient-reverse"),
            AttackSpec.with_params("alie", "alie", params={"z": 1.5}),
            AttackSpec.with_params("zero", "zero"),
        ),
        rounds=1,
        num_seeds=2,
        n=8,
        iterations=80,
    )
    with tel.span("tournament"):
        payload = run_tournament(config, SweepEngine(parallel=False))
    ratings = {
        row["player"]: row["rating_mean"]
        for row in payload["leaderboard"]["all"]
    }
    scored = [
        m
        for round_doc in payload["rounds"]
        for m in round_doc["matches"]
        if "final_error" in m
    ]
    return {
        "cwtm_elo": float(ratings["cwtm"]),
        "mean_final_error": float(
            np.mean([m["final_error"] for m in scored])
        ),
        "failed_matches": float(payload["counts"]["failed"]),
        "payload": payload,
    }


# ----------------------------------------------------------------------
# Large-n / large-d kernel scaling
# ----------------------------------------------------------------------

#: Batch size chosen so one (K, n, d) float64 tensor stays near 128 MB.
_SCALE_BUDGET_ELEMS = 2**24


def _scale_batch_size(n: int, d: int) -> int:
    return max(1, min(8, _SCALE_BUDGET_ELEMS // (n * d)))


def _make_scale_bench(kind: str, n: int, d: int) -> None:
    """Register one ``scale_{kind}_n{n}_d{d}`` aggregation-kernel bench.

    The workload is a seeded random ``(K, n, d)`` tensor pushed through the
    batched kernel; the quality metric is the (deterministic) norm of the
    first aggregate row, so a kernel rewrite that changes the numbers trips
    the gate even when it is faster. CWTM benches additionally time the
    reference full-sort kernel and record the partition-vs-sort ratio in
    the (ungated) observations — the regression story for the
    ``partition_trimmed_mean`` rewrite lives in those fields.
    """
    f = n // 8
    K = _scale_batch_size(n, d)
    name = f"scale_{kind}_n{n}_d{d}"
    # CI gates the two shapes that bracket the interesting range: the
    # break-even small shape and the shape the kernel rewrite targets.
    tags = ["scale", kind]
    if (n, d) in ((256, 64), (1024, 256)):
        tags.append("scale_smoke")

    def runner(tel, kind=kind, n=n, d=d, f=f, K=K):
        from repro.aggregators import kernels

        tensor = np.random.default_rng(n * 1000003 + d).normal(size=(K, n, d))
        out: Dict[str, float] = {}
        if kind == "cge":
            with tel.span("cge"):
                agg = kernels.cge_aggregate_batch(tensor, f)
        elif kind == "mean":
            with tel.span("mean"):
                agg = tensor.mean(axis=1)
        else:  # cwtm: race the optimized kernel against the reference sort
            with tel.span("partition"):
                start = time.perf_counter()
                agg = kernels.partition_trimmed_mean(tensor, f)
                out["partition_seconds"] = time.perf_counter() - start
            with tel.span("full_sort"):
                start = time.perf_counter()
                reference = kernels.sort_trimmed_mean(tensor, f)
                out["full_sort_seconds"] = time.perf_counter() - start
            assert np.allclose(agg, reference)
            out["partition_speedup"] = (
                out["full_sort_seconds"] / out["partition_seconds"]
            )
        out["aggregate_norm"] = float(np.linalg.norm(agg[0]))
        return out

    register_bench(
        name,
        workload={"kind": kind, "n": n, "d": d, "f": f, "runs": K},
        tags=tuple(tags),
        metrics=lambda out: {"aggregate_norm": out["aggregate_norm"]},
        observations=lambda out: {
            k: v for k, v in out.items() if k != "aggregate_norm"
        },
        description=f"Scaling: batched {kind} kernel at n={n}, d={d} (K={K})",
    )(runner)


for _kind in ("cge", "cwtm", "mean"):
    for _n in (256, 1024, 4096):
        for _d in (64, 256, 1024):
            _make_scale_bench(_kind, _n, _d)


# ----------------------------------------------------------------------
# Decentralized DGD at scale (the batched per-neighborhood gather path)
# ----------------------------------------------------------------------


def _make_decentralized_scale_bench(label: str, topology_name: str,
                                    params: Dict) -> None:
    """Register one ``scale_decentralized_<label>`` bench at n=1024.

    The workload is the acceptance scenario of the decentralized engine:
    1024 agents with full-local-rank quadratics (shared exact minimizer),
    20 spread Byzantine agents running gradient-reverse, and combined
    link faults (drops + delays + corruption). The gated quality metric
    is the worst honest distance to the minimizer — deterministic in the
    seeds, so a mixing/filtering rewrite that changes trajectories trips
    the gate even when it is faster.
    """
    n, d, iterations = 1024, 8, 60

    def runner(tel, topology_name=topology_name, params=params):
        from repro.attacks.simple import GradientReverse
        from repro.experiments.topology_resilience import (
            full_local_rank_costs,
        )
        from repro.system.decentralized import run_decentralized_dgd
        from repro.system.netfaults import LinkFaultModel, LinkFaultProfile
        from repro.system.topology import make_topology

        topology = make_topology(topology_name, n, seed=0, **params)
        costs, x_star = full_local_rank_costs(n, d, instance_seed=11)
        faulty = list(range(5, n, 52))
        link_faults = LinkFaultModel(
            default_profile=LinkFaultProfile(
                drop_prob=0.05, delay_prob=0.1, max_delay=2,
                corrupt_prob=0.01,
            ),
            seed=3,
        )
        with tel.span("decentralized_dgd"):
            result = run_decentralized_dgd(
                costs,
                topology,
                aggregation="cwtm",
                faulty_ids=faulty,
                behavior=GradientReverse(strength=2.0),
                iterations=iterations,
                seed=1,
                link_faults=link_faults,
            )
        distances = result.distances_to(x_star)[result.honest_ids]
        return {
            "max_honest_dist": float(np.max(distances)),
            "rounds_per_sec": iterations / max(result.wall_time, 1e-9),
            **{k: float(v) for k, v in result.counters.items()},
        }

    register_bench(
        f"scale_decentralized_{label}",
        workload={"topology": topology_name, **params, "n": n, "d": d,
                  "f_count": 20, "iterations": iterations,
                  "aggregation": "cwtm", "faults": "drops+delay+corrupt"},
        tags=("scale", "decentralized", "decentralized_smoke"),
        metrics=lambda out: {"max_honest_dist": out["max_honest_dist"]},
        observations=lambda out: {
            k: v for k, v in out.items() if k != "max_honest_dist"
        },
        description=(
            f"Scaling: decentralized CWTM on {topology_name} "
            f"(n={n}, d={d}, 20 Byzantine, chaotic links)"
        ),
    )(runner)


for _label, _topology, _params in (
    ("ring_n1024", "ring", {"hops": 2}),
    ("rr8_n1024", "random-regular", {"degree": 8}),
):
    _make_decentralized_scale_bench(_label, _topology, _params)


@register_bench(
    "smoke_aggregators",
    workload={"filters": ["cge", "cwtm", "median"], "agent_counts": [10, 25],
              "dimensions": [2, 16], "repeats": 3, "seed": 13},
    tags=("smoke",),
    description="Smoke: aggregation kernels on small gradient batches",
)
def _bench_smoke_aggregators(tel):
    from repro.experiments import run_aggregator_scaling

    return run_aggregator_scaling(
        filters=("cge", "cwtm", "median"),
        agent_counts=(10, 25),
        dimensions=(2, 16),
        repeats=3,
        telemetry=tel,
    )
