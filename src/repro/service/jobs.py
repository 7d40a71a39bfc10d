"""Job specs, durable job records, and the on-disk job store.

A *job* is one unit of client-submitted work: a single filtered-DGD
execution (``run``), a full (filter × attack × f × seed) grid (``sweep``),
or a registered benchmark (``bench``). Specs are validated at admission —
unknown parameters, unregistered filter/attack/bench names, and ill-typed
values are rejected with a structured error before anything is enqueued,
so a malformed job can never reach a worker.

Durability follows the cache discipline of :mod:`repro.utils.atomicio`:
every state transition rewrites the job's ``job.json`` manifest atomically
with a checksum, so a server killed at any instant leaves every manifest
either in its old state or its new state — never torn. On restart,
:meth:`JobStore.load_all` recovers the full job table and jobs that were
``queued``/``running`` at the kill are re-enqueued; a resumed ``sweep``
job recomputes only the cells its shared cell cache does not already hold
(:meth:`repro.experiments.sweep.SweepEngine.resume` is the substrate).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exceptions import InvalidParameterError, ReproError
from repro.experiments.common import check_regression_setup
from repro.experiments.sweep import RegressionGrid
from repro.utils.atomicio import read_json_dict_checked, write_json_atomic
from repro.utils.validation import require_int, require_number

__all__ = [
    "JOB_KINDS",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobSpec",
    "JobRecord",
    "JobStore",
    "validate_job_spec",
    "grid_from_params",
]

#: Supported job kinds.
JOB_KINDS = ("run", "sweep", "bench")
#: Every state a job can be in.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Parameters a ``sweep`` job may set: the grid's fields and the
#: telemetry switch.
_SWEEP_KEYS = {f.name for f in dataclasses.fields(RegressionGrid)} | {"telemetry"}
#: Parameters a ``run`` job may set, with the defaults the executor uses.
RUN_DEFAULTS = {
    "n": 6, "d": 2, "f": 1, "noise_std": 0.02, "filter": "cge",
    "attack": "gradient-reverse", "iterations": 500, "seed": 0,
}
#: Parameters a ``bench`` job may set.
_BENCH_KEYS = {"name", "repeats"}


@dataclass(frozen=True)
class JobSpec:
    """A validated, immutable description of one submitted job."""

    kind: str
    params: Dict
    client: str = "anonymous"
    priority: int = 0

    def to_payload(self) -> Dict:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "client": self.client,
            "priority": self.priority,
        }

    def spec_hash(self) -> str:
        """Stable digest of the spec (used in job ids and dedup hints)."""
        canonical = json.dumps(self.to_payload(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _validate_sweep_params(params: Dict) -> None:
    if "telemetry" in params and not isinstance(params["telemetry"], bool):
        raise InvalidParameterError("job parameter 'telemetry' must be a bool")
    grid_from_params(params)  # the grid checks every value


def _validate_run_params(params: Dict) -> None:
    from repro.aggregators.registry import available_filters, make_filter
    from repro.attacks.registry import buildable_attacks

    for key, minimum in (("n", 2), ("d", 1), ("iterations", 1), ("f", 0),
                         ("seed", None)):
        if key in params:
            require_int(key, params[key], minimum)
    if "noise_std" in params:
        require_number("noise_std", params["noise_std"])
    if "filter" in params and params["filter"] not in available_filters():
        raise InvalidParameterError(
            f"unknown filter {params['filter']!r}; "
            f"available: {', '.join(available_filters())}"
        )
    if "attack" in params and params["attack"] not in buildable_attacks():
        raise InvalidParameterError(
            f"unknown attack {params['attack']!r}; "
            f"available: {', '.join(buildable_attacks())}"
        )
    resolved = {**RUN_DEFAULTS, **params}
    check_regression_setup(
        resolved["n"], resolved["d"], resolved["f"], resolved["noise_std"]
    )
    # The run fails in round 0 when its filter needs more gradients than
    # there are agents (Bulyan needs 4f + 3). Sweep cells that cannot run
    # are reported one by one instead.
    needed = make_filter(resolved["filter"], f=resolved["f"]).minimum_inputs()
    if needed > resolved["n"]:
        raise InvalidParameterError(
            f"filter {resolved['filter']!r} with f={resolved['f']} needs at "
            f"least {needed} gradients, but the instance has n={resolved['n']}"
        )


def _validate_bench_params(params: Dict) -> None:
    from repro.observability.perf import get_bench, load_default_workloads

    if "name" not in params:
        raise InvalidParameterError("bench jobs require a 'name' parameter")
    load_default_workloads()
    get_bench(params["name"])  # raises with the known-name list
    if "repeats" in params:
        require_int("repeats", params["repeats"], 1)


def validate_job_spec(payload: Dict) -> JobSpec:
    """Validate one submission payload into a :class:`JobSpec`.

    Raises :class:`~repro.exceptions.InvalidParameterError` — mapped to an
    HTTP 400 by the server — on an unknown kind, unknown parameter keys,
    ill-typed values, unregistered filter/attack/bench names, or a run or
    sweep whose regression instance (or sweep ``x0``) cannot exist.
    """
    if not isinstance(payload, dict):
        raise InvalidParameterError("job submission must be a JSON object")
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise InvalidParameterError(
            f"unknown job kind {kind!r}; available: {', '.join(JOB_KINDS)}"
        )
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise InvalidParameterError("job 'params' must be a JSON object")
    params = dict(params)
    allowed = {"run": set(RUN_DEFAULTS), "sweep": _SWEEP_KEYS, "bench": _BENCH_KEYS}[kind]
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise InvalidParameterError(
            f"unknown {kind}-job parameter(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
    {"run": _validate_run_params, "sweep": _validate_sweep_params,
     "bench": _validate_bench_params}[kind](params)
    client = payload.get("client", "anonymous")
    if not isinstance(client, str) or not client:
        raise InvalidParameterError("job 'client' must be a non-empty string")
    priority = payload.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise InvalidParameterError(
            f"job 'priority' must be an integer, got {priority!r}"
        )
    return JobSpec(kind=kind, params=params, client=client, priority=priority)


def grid_from_params(params: Dict) -> RegressionGrid:
    """Materialize a ``sweep`` job's parameters into a ``RegressionGrid``.

    The JSON rules live here: name and fault-count lists become tuples,
    and the ``telemetry`` switch is dropped. The grid checks the values
    itself, raising :class:`~repro.exceptions.InvalidParameterError` on a
    bad one, and stores ``noise_std`` and ``x0`` as floats.
    """
    fields = {k: v for k, v in params.items() if k != "telemetry"}
    for key in ("filters", "attacks", "fault_counts"):
        if isinstance(fields.get(key), list):
            fields[key] = tuple(fields[key])
    return RegressionGrid(**fields)


@dataclass
class JobRecord:
    """One job's full lifecycle state, as persisted in its manifest."""

    job_id: str
    seq: int
    spec: JobSpec
    state: str = "queued"
    attempts: int = 0
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    summary: Dict = field(default_factory=dict)
    trace_id: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_payload(self) -> Dict:
        return {
            "version": 1,
            "job_id": self.job_id,
            "seq": self.seq,
            "spec": self.spec.to_payload(),
            "state": self.state,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "summary": self.summary,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "JobRecord":
        spec_doc = payload["spec"]
        spec = JobSpec(
            kind=spec_doc["kind"],
            params=dict(spec_doc.get("params", {})),
            client=spec_doc.get("client", "anonymous"),
            priority=int(spec_doc.get("priority", 0)),
        )
        state = payload.get("state", "queued")
        if state not in JOB_STATES:
            raise ReproError(f"job manifest carries unknown state {state!r}")
        return cls(
            job_id=payload["job_id"],
            seq=int(payload["seq"]),
            spec=spec,
            state=state,
            attempts=int(payload.get("attempts", 0)),
            submitted_at=float(payload.get("submitted_at", 0.0)),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            error=payload.get("error"),
            summary=dict(payload.get("summary", {})),
            trace_id=payload.get("trace_id"),
        )


class JobStore:
    """Durable job table under ``<state_dir>/jobs/``.

    Layout, one directory per job::

        jobs/<job_id>/job.json      # checksummed atomic manifest
        jobs/<job_id>/events.jsonl  # the job's streaming event/telemetry log
        jobs/<job_id>/result.json   # checksummed result document (terminal)

    Manifests are the recovery substrate: every transition is persisted
    *before* it takes externally visible effect, so a ``kill -9`` at any
    point leaves a table from which :meth:`load_all` reconstructs exactly
    which jobs still need work.
    """

    def __init__(self, root: str):
        self.root = root
        self.jobs_dir = os.path.join(root, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)

    # -- paths ---------------------------------------------------------

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, job_id)

    def manifest_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "job.json")

    def events_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "events.jsonl")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "result.json")

    def telemetry_dir(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "telemetry")

    # -- lifecycle -----------------------------------------------------

    def next_seq(self) -> int:
        highest = 0
        for name in os.listdir(self.jobs_dir):
            if name.startswith("j") and "-" in name:
                try:
                    highest = max(highest, int(name[1:].split("-", 1)[0]))
                except ValueError:
                    continue
        return highest + 1

    def create(self, spec: JobSpec, seq: Optional[int] = None) -> JobRecord:
        """Allocate a new job id, persist its manifest, return the record.

        Every job is born with a deterministic trace id derived from its
        id and spec hash (the seed/cache-key discipline of
        :mod:`repro.observability.tracing`), so the cross-process span
        tree of a recovered job links up exactly like a fresh one's.
        """
        from repro.observability.tracing import derive_trace_id

        if seq is None:
            seq = self.next_seq()
        job_id = f"j{seq:05d}-{spec.spec_hash()[:8]}"
        record = JobRecord(
            job_id=job_id,
            seq=seq,
            spec=spec,
            submitted_at=time.time(),
            trace_id=derive_trace_id("job", job_id, spec.spec_hash()),
        )
        os.makedirs(self.job_dir(job_id), exist_ok=True)
        self.save(record)
        return record

    def save(self, record: JobRecord) -> None:
        os.makedirs(self.job_dir(record.job_id), exist_ok=True)
        write_json_atomic(self.manifest_path(record.job_id), record.to_payload())

    def load(self, job_id: str) -> JobRecord:
        return JobRecord.from_payload(
            read_json_dict_checked(self.manifest_path(job_id))
        )

    def load_all(self) -> List[JobRecord]:
        """Every recoverable job record, in submission (seq) order.

        A manifest a killed writer managed to corrupt despite the atomic
        path (e.g. filesystem damage) is skipped, not fatal: the service
        must come back up with whatever part of the table survived.
        """
        records = []
        for name in sorted(os.listdir(self.jobs_dir)):
            path = self.manifest_path(name)
            if not os.path.exists(path):
                continue
            try:
                records.append(self.load(name))
            except (ReproError, KeyError, ValueError, OSError):
                continue
        records.sort(key=lambda record: record.seq)
        return records

    def write_result(self, job_id: str, payload: Dict) -> str:
        return write_json_atomic(self.result_path(job_id), payload)

    def load_result(self, job_id: str) -> Dict:
        return read_json_dict_checked(self.result_path(job_id))

    # -- garbage collection --------------------------------------------

    def prune(self, ttl: float, now: Optional[float] = None) -> List[str]:
        """Delete terminal jobs whose age exceeds ``ttl`` seconds.

        Age is measured from ``finished_at`` (falling back to
        ``submitted_at`` for manifests that predate the field). Only jobs
        in a :data:`TERMINAL_STATES` state are candidates — queued and
        running jobs are never touched, however old, and a manifest that
        cannot be parsed is left alone rather than guessed at. The whole
        job directory (manifest, events, result, telemetry) is removed.

        Returns the pruned job ids in submission order.
        """
        if ttl < 0:
            raise InvalidParameterError(f"prune ttl must be >= 0, got {ttl}")
        if now is None:
            now = time.time()
        pruned = []
        for record in self.load_all():
            if not record.terminal:
                continue
            stamp = record.finished_at or record.submitted_at
            if now - stamp < ttl:
                continue
            shutil.rmtree(self.job_dir(record.job_id), ignore_errors=True)
            pruned.append(record.job_id)
        return pruned
