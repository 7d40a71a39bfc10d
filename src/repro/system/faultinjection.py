"""Deterministic infrastructure fault injection (chaos testing harness).

The paper's algorithms tolerate ``f`` Byzantine *agents*; the execution
harness that sweeps them must tolerate the faults *infrastructure*
exhibits: a pool worker that raises, a worker process that dies outright,
a task that hangs, a cache file truncated by a killed writer or corrupted
in place. This module provides composable, picklable failure policies that
wrap any worker callable — so the resilience machinery in
:class:`repro.experiments.sweep.SweepEngine` can be driven through every
failure mode **deterministically** and the surviving numerics asserted
bit-identical to a fault-free run (``tests/test_fault_injection.py``,
``tests/test_sweep_resilience.py``).

Design constraints, and how they are met:

- **Cross-process determinism.** Pool workers live in separate processes,
  so a plain instance attribute cannot count calls globally.
  :class:`CallCounter` claims monotonically increasing indices through
  ``O_CREAT | O_EXCL`` marker files in a shared directory — atomic on
  every POSIX filesystem — giving all policies one global call ordering
  regardless of how chunks are scheduled.
- **Picklability.** Policies are frozen dataclasses and
  :class:`FaultyWorker` holds only picklable state, so a faulty worker
  travels through a :class:`~concurrent.futures.ProcessPoolExecutor`
  exactly like a healthy one.
- **Composability.** A :class:`FaultyWorker` applies an arbitrary list of
  policies in order before delegating to the wrapped callable; each policy
  sees the global call index and the item, so call-indexed and
  item-matched faults combine freely.

Nothing in this module is imported by production code paths; it exists so
the test layer can prove the production paths survive it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InjectedFault, InvalidParameterError

__all__ = [
    "CallCounter",
    "FaultPolicy",
    "FailEveryNth",
    "FailOnCalls",
    "FailMatching",
    "HangOnCalls",
    "CrashOnCalls",
    "RandomFaults",
    "FaultyWorker",
    "TransientlyUnpicklable",
    "corrupt_json_file",
    "corrupt_cache_entry",
    "deterministic_draw",
    "deterministic_draw_array",
    "deterministic_draw_rows",
    "deterministic_choice",
    "draw_key_hashes",
    "KeyedDraws",
]


def deterministic_draw(seed: int, *key) -> float:
    """A uniform draw in ``[0, 1)`` that is a pure function of ``(seed, key)``.

    SHA-256 over the stringified key, mapped to the unit interval. This is
    the determinism discipline every fault schedule in this module (and the
    network fault model in :mod:`repro.system.netfaults`) follows: a chaos
    run is exactly replayable from its seed, and — unlike a stateful
    ``Generator`` — a resumed run replays the *same* draws without having
    to persist any stream position in a checkpoint.
    """
    return _unit_draw(":".join(str(part) for part in (seed, *key)))


def _unit_draw(material: str) -> float:
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _choose(low: int, high: int, material: str) -> int:
    if high < low:
        raise InvalidParameterError(f"empty choice range [{low}, {high}]")
    span = high - low + 1
    return low + int(_unit_draw(material) * span) % span


_SM64_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array (wrapping arithmetic)."""
    z = x + _SM64_GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _SM64_MIX1
    z = (z ^ (z >> np.uint64(27))) * _SM64_MIX2
    return z ^ (z >> np.uint64(31))


def deterministic_draw_array(seed: int, *keys) -> np.ndarray:
    """Vectorized uniform draws in ``[0, 1)``, pure functions of ``(seed, keys)``.

    The array sibling of :func:`deterministic_draw` for schedules that need
    thousands of draws per round (one per graph edge): each key may be an
    integer or an integer array; the keys broadcast together and the result
    has the broadcast shape. Built on splitmix64-style uint64 mixing in
    numpy, so drawing for 10k edges costs a handful of array ops instead of
    10k SHA-256 hashes.

    This is a *distinct* primitive from :func:`deterministic_draw` — the
    two do not produce matching streams for matching keys. Both share the
    property that matters: every draw is a stateless pure function of its
    coordinates, so replay and resume need no RNG stream position.
    """
    if not keys:
        raise InvalidParameterError("deterministic_draw_array needs at least one key")
    with np.errstate(over="ignore"):
        arrays = [
            np.asarray(k, dtype=np.int64).astype(np.uint64) for k in keys
        ]
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
        state = _splitmix64(
            np.full(shape, np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF))
        )
        for index, key in enumerate(arrays):
            salted = key + np.uint64(index + 1) * _SM64_GOLDEN
            state = _splitmix64(state ^ _splitmix64(salted))
    return (state >> np.uint64(11)).astype(np.float64) * (1.0 / 2**53)


def draw_key_hashes(first_position: int, *keys) -> np.ndarray:
    """The terms :func:`deterministic_draw_array` folds in for array keys.

    ``deterministic_draw_array`` folds its keys left to right, and the term
    a key contributes depends only on the key and its position. A schedule
    that draws over the same keys (say, the directed edges of a graph)
    every round can therefore hash them once: this returns the
    ``(len(keys), *shape)`` uint64 terms of ``keys`` placed at key
    positions ``first_position, first_position + 1, ...``. Finish the
    draws with :func:`deterministic_draw_rows`.
    """
    with np.errstate(over="ignore"):
        arrays = np.broadcast_arrays(
            *(np.asarray(k, dtype=np.int64).astype(np.uint64) for k in keys)
        )
        return np.stack([
            _splitmix64(key + np.uint64(first_position + index + 1) * _SM64_GOLDEN)
            for index, key in enumerate(arrays)
        ])


def deterministic_draw_rows(seed: int, prefixes, key_hashes: np.ndarray) -> np.ndarray:
    """``deterministic_draw_array`` for many scalar prefixes over hashed keys.

    ``prefixes`` is an ``(R, m)`` table of integer keys and ``key_hashes``
    is ``draw_key_hashes(m, *keys)``. Row ``j`` of the result equals
    ``deterministic_draw_array(seed, *prefixes[j], *keys)`` bit for bit:
    the prefixes fold into ``R`` scalar states, and each hashed key costs
    one splitmix64 pass over all ``R`` rows at once.
    """
    prefixes = np.asarray(prefixes, dtype=np.int64).astype(np.uint64)
    with np.errstate(over="ignore"):
        state = _splitmix64(
            np.full(prefixes.shape[0], np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF))
        )
        for index in range(prefixes.shape[1]):
            salted = prefixes[:, index] + np.uint64(index + 1) * _SM64_GOLDEN
            state = _splitmix64(state ^ _splitmix64(salted))
        state = state.reshape(state.shape + (1,) * (key_hashes.ndim - 1))
        for term in key_hashes:
            state = _splitmix64(state ^ term)
    return (state >> np.uint64(11)).astype(np.float64) * (1.0 / 2**53)


def deterministic_choice(seed: int, low: int, high: int, *key) -> int:
    """A deterministic integer draw in ``[low, high]`` (inclusive)."""
    return _choose(low, high, ":".join(str(part) for part in (seed, "choice", *key)))


class KeyedDraws:
    """The draws of one message: many tags over one ``(seed, *key)``.

    A fault schedule draws several times for the same coordinates (drop,
    delay, corruption, ...), and the calls differ only in their leading
    tag. This joins the seed and the key once; each draw then hashes
    exactly the material the standalone functions build, so
    ``KeyedDraws(seed, *key).draw(tag) == deterministic_draw(seed, tag,
    *key)`` and ``.choice(low, high, tag) == deterministic_choice(seed,
    low, high, tag, *key)`` bit for bit.
    """

    __slots__ = ("_head", "_tail")

    def __init__(self, seed: int, *key):
        self._head = str(seed) + ":"
        self._tail = ":" + ":".join(map(str, key)) if key else ""

    def draw(self, tag: str) -> float:
        """:func:`deterministic_draw` of ``(seed, tag, *key)``."""
        return _unit_draw(self._head + str(tag) + self._tail)

    def choice(self, low: int, high: int, tag: str) -> int:
        """:func:`deterministic_choice` of ``(seed, low, high, tag, *key)``."""
        return _choose(low, high, self._head + "choice:" + str(tag) + self._tail)


@dataclass(frozen=True)
class CallCounter:
    """A multiprocess-safe monotone counter backed by marker files.

    ``claim()`` returns the next unclaimed non-negative integer; two
    processes can never claim the same index because creating the marker
    file with ``O_EXCL`` is atomic. The directory is created on first use
    so a counter can be declared before its scratch space exists.
    """

    directory: str

    def claim(self) -> int:
        os.makedirs(self.directory, exist_ok=True)
        index = len(os.listdir(self.directory))
        while True:
            try:
                fd = os.open(
                    os.path.join(self.directory, f"{index:08d}"),
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
                os.close(fd)
                return index
            except FileExistsError:
                index += 1

    def value(self) -> int:
        """How many calls have been claimed so far."""
        if not os.path.isdir(self.directory):
            return 0
        return len(os.listdir(self.directory))


class FaultPolicy:
    """Base class: inspect ``(call_index, item)`` and possibly misbehave.

    ``apply`` either returns normally (no fault) or injects one — raising
    :class:`~repro.exceptions.InjectedFault`, sleeping, or killing the
    process. Subclasses are frozen dataclasses so policies hash, compare,
    and pickle cleanly.
    """

    def apply(self, call_index: int, item) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class FailEveryNth(FaultPolicy):
    """Raise :class:`InjectedFault` on every ``n``-th call (1 in ``n``).

    Call indices ``n-1, 2n-1, …`` fail; with a shared :class:`CallCounter`
    a retry of the same item draws a fresh index and succeeds — modelling
    a transient crash.
    """

    n: int
    message: str = "injected worker failure"

    def __post_init__(self):
        if self.n <= 0:
            raise InvalidParameterError(f"n must be positive, got {self.n}")

    def apply(self, call_index: int, item) -> None:
        if call_index % self.n == self.n - 1:
            raise InjectedFault(f"{self.message} (call {call_index})")


@dataclass(frozen=True)
class FailOnCalls(FaultPolicy):
    """Raise :class:`InjectedFault` on an explicit set of call indices."""

    calls: Tuple[int, ...]
    message: str = "injected worker failure"

    def apply(self, call_index: int, item) -> None:
        if call_index in self.calls:
            raise InjectedFault(f"{self.message} (call {call_index})")


@dataclass(frozen=True)
class FailMatching(FaultPolicy):
    """Raise on every item whose ``repr`` contains ``needle``.

    Item-keyed (not call-keyed): the fault is *persistent*, so retries
    fail identically and the engine must quarantine the item rather than
    ride it out.
    """

    needle: str
    message: str = "injected persistent failure"

    def apply(self, call_index: int, item) -> None:
        if self.needle in repr(item):
            raise InjectedFault(f"{self.message} (item matched {self.needle!r})")


@dataclass(frozen=True)
class HangOnCalls(FaultPolicy):
    """Sleep ``duration`` seconds on the given call indices (a hung worker).

    The duration is finite so an un-timeouted run still terminates; pick a
    duration comfortably above the engine timeout under test.
    """

    calls: Tuple[int, ...]
    duration: float = 5.0

    def apply(self, call_index: int, item) -> None:
        if call_index in self.calls:
            time.sleep(self.duration)


@dataclass(frozen=True)
class CrashOnCalls(FaultPolicy):
    """Kill the worker process outright (``os._exit``) on given calls.

    Unlike :class:`FailOnCalls` this is a *hard* crash: no exception
    propagates, the process just dies, and the pool surfaces it as a
    :class:`~concurrent.futures.process.BrokenProcessPool`. Never apply
    in-process — the engine's degraded (non-pool) paths must not execute
    this policy, which is exactly what the chaos tests assert.
    """

    calls: Tuple[int, ...]
    exit_code: int = 13

    def apply(self, call_index: int, item) -> None:
        if call_index in self.calls:
            os._exit(self.exit_code)


@dataclass(frozen=True)
class RandomFaults(FaultPolicy):
    """Raise with probability ``rate`` per call, deterministically.

    The decision for call ``k`` is a pure function of ``(seed, k)`` — a
    SHA-256 hash mapped to ``[0, 1)`` — so a chaos run is exactly
    replayable from its seed, unlike ``random.random()``-based injection.
    """

    rate: float
    seed: int = 0
    message: str = "injected random failure"

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise InvalidParameterError(f"rate must be in [0, 1], got {self.rate}")

    def apply(self, call_index: int, item) -> None:
        draw = deterministic_draw(self.seed, call_index)
        if draw < self.rate:
            raise InjectedFault(f"{self.message} (call {call_index}, draw {draw:.3f})")


class FaultyWorker:
    """Wrap a worker callable with an ordered list of fault policies.

    Every call claims a global index (from ``counter_dir`` when given, so
    indices are shared across pool processes; otherwise a per-process
    counter) and offers ``(index, item)`` to each policy before delegating
    to the wrapped worker. Picklable whenever the wrapped worker and the
    policies are.
    """

    def __init__(
        self,
        worker: Callable,
        policies: Sequence[FaultPolicy],
        counter_dir: Optional[str] = None,
    ):
        self.worker = worker
        self.policies = tuple(policies)
        self.counter_dir = counter_dir
        self._local_count = 0

    def _next_index(self) -> int:
        if self.counter_dir is not None:
            return CallCounter(self.counter_dir).claim()
        index = self._local_count
        self._local_count += 1
        return index

    def __call__(self, item):
        index = self._next_index()
        for policy in self.policies:
            policy.apply(index, item)
        return self.worker(item)

    def __reduce__(self):
        return (
            _rebuild_faulty_worker,
            (self.worker, self.policies, self.counter_dir),
        )


def _rebuild_faulty_worker(worker, policies, counter_dir):
    return FaultyWorker(worker, policies, counter_dir=counter_dir)


class TransientlyUnpicklable:
    """A callable whose first ``failures`` pickle attempts raise.

    Models a transiently unpicklable payload: the engine's up-front pickle
    probe fails, it degrades to in-process execution (warning once), and a
    later map call — once the transient has passed — pools normally.
    Attempts are counted through a :class:`CallCounter` in ``state_dir``
    so the transient spans processes and engine instances.
    """

    def __init__(self, worker: Callable, failures: int, state_dir: str):
        self.worker = worker
        self.failures = failures
        self.state_dir = state_dir

    def __call__(self, item):
        return self.worker(item)

    def __reduce__(self):
        attempt = CallCounter(self.state_dir).claim()
        if attempt < self.failures:
            raise pickle.PicklingError(
                f"injected transient pickle failure (attempt {attempt})"
            )
        return (_rebuild_transiently_unpicklable,
                (self.worker, self.failures, self.state_dir))


def _rebuild_transiently_unpicklable(worker, failures, state_dir):
    return TransientlyUnpicklable(worker, failures, state_dir)


def corrupt_json_file(path: str, mode: str = "truncate", seed: int = 0) -> str:
    """Deterministically damage a JSON file in place; return ``path``.

    Modes
    -----
    ``"truncate"``
        Keep only the first half of the bytes — what a writer killed
        mid-``write`` (without atomic rename) leaves behind.
    ``"bitflip"``
        Flip one bit at a position derived from ``seed`` — in-place media
        corruption. May or may not still parse as JSON; the checksum read
        path must catch it either way.
    ``"garbage"``
        Replace the content with bytes that are not JSON at all.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if mode == "truncate":
        damaged = data[: max(1, len(data) // 2)]
    elif mode == "bitflip":
        if not data:
            raise InvalidParameterError(f"cannot bit-flip empty file {path}")
        digest = hashlib.sha256(f"{seed}:{len(data)}".encode("utf-8")).digest()
        position = int.from_bytes(digest[:8], "big") % len(data)
        bit = digest[8] % 8
        damaged = bytearray(data)
        damaged[position] ^= 1 << bit
        damaged = bytes(damaged)
    elif mode == "garbage":
        damaged = b"{this is not json"
    else:
        raise InvalidParameterError(
            f"mode must be 'truncate', 'bitflip', or 'garbage', got {mode!r}"
        )
    with open(path, "wb") as handle:
        handle.write(damaged)
    return path


def corrupt_cache_entry(
    cache_dir: str, index: int = 0, mode: str = "truncate", seed: int = 0
) -> str:
    """Corrupt the ``index``-th cache entry (sorted order) in ``cache_dir``.

    Skips manifest files so the damage lands on a trace entry; returns the
    corrupted path. Raises :class:`InvalidParameterError` when the cache
    has no such entry — a chaos test asking to corrupt a missing entry is
    a bug in the test, not a fault to inject.
    """
    entries = sorted(
        name
        for name in os.listdir(cache_dir)
        if name.endswith(".json") and not name.startswith("manifest")
    )
    if not 0 <= index < len(entries):
        raise InvalidParameterError(
            f"cache {cache_dir} has {len(entries)} entries, cannot corrupt #{index}"
        )
    return corrupt_json_file(os.path.join(cache_dir, entries[index]), mode=mode,
                             seed=seed)
