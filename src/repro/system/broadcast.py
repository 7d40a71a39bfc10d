"""Simulated authenticated Byzantine broadcast (Dolev–Strong).

The paper notes that its server-based algorithms carry over to the
peer-to-peer architecture when ``f < n/3`` by simulating the server with a
Byzantine broadcast primitive. This module implements that primitive as an
explicit ``f + 1``-round Dolev–Strong protocol over simulated authenticated
channels:

- a *signature chain* is a tuple of distinct signer ids beginning with the
  designated sender; a message ``(value, chain)`` is valid in round ``r``
  iff ``len(chain) == r``;
- **unforgeability** is enforced structurally: the simulator only lets a
  node extend chains with its *own* id, and Byzantine nodes can therefore
  collude on chains made of faulty signers but can never fabricate an
  honest node's signature;
- an honest node that extracts a new value signs and relays it to everyone
  in the next round; after round ``f + 1`` it delivers the unique extracted
  value, or the fallback ``⊥`` when zero or multiple values were extracted.

Each signed message is queued once per round with a bitmask of its
recipients, and reaches them in ascending id order; ``messages_sent``
still counts point-to-point messages.

Guarantees (validated by the test suite over adversarial strategies):
**agreement** — all honest nodes deliver the same value; **validity** — if
the sender is honest, that value is the sender's input.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError, ProtocolViolationError
from repro.utils.validation import check_fault_bound, check_vector

Chain = Tuple[int, ...]

#: Canonical fallback output when the sender equivocated beyond repair.
BOTTOM = "⊥"


def _key(value: np.ndarray) -> bytes:
    return np.ascontiguousarray(value).tobytes()


@dataclass(frozen=True)
class SignedMessage:
    """A value together with its signature chain."""

    value: np.ndarray
    chain: Chain

    def extended_by(self, signer: int) -> "SignedMessage":
        if signer in self.chain:
            raise ProtocolViolationError(f"node {signer} already signed this chain")
        return SignedMessage(self.value, self.chain + (signer,))


class ByzantineSenderStrategy(abc.ABC):
    """How a *faulty* designated sender misbehaves in round 1.

    A faulty sender controls its message bytes, so its values may be
    non-finite: agreement is checked on bit patterns, and the receivers'
    filter sanitizes what is delivered.
    """

    @abc.abstractmethod
    def initial_messages(
        self, sender: int, recipients: Sequence[int], rng: Optional[np.random.Generator]
    ) -> Dict[int, Optional[np.ndarray]]:
        """Value sent to each recipient in round 1 (``None`` = silence)."""


class EquivocatingSender(ByzantineSenderStrategy):
    """Send one value to the first half of recipients and another to the rest."""

    def __init__(self, value_a, value_b):
        self._value_a = check_vector(value_a, name="value_a", allow_non_finite=True)
        self._value_b = check_vector(
            value_b, dimension=self._value_a.shape[0], name="value_b",
            allow_non_finite=True,
        )

    def initial_messages(self, sender, recipients, rng):
        half = len(recipients) // 2
        out: Dict[int, Optional[np.ndarray]] = {}
        for position, node in enumerate(recipients):
            out[node] = self._value_a if position < half else self._value_b
        return out


class SilentSender(ByzantineSenderStrategy):
    """Send nothing at all; honest nodes must agree on ``⊥``."""

    def initial_messages(self, sender, recipients, rng):
        return {node: None for node in recipients}


class StaggeredEquivocator(ByzantineSenderStrategy):
    """Equivocate *and* rely on faulty relays to reveal the second value late.

    This is the classic stress case for Dolev–Strong: the second value is
    initially given only to faulty colluders, who withhold it until the
    final round. With ``f + 1`` rounds the protocol still reaches
    agreement, which the tests assert.
    """

    def __init__(self, value_a, value_b, colluders: Sequence[int]):
        self._value_a = check_vector(value_a, name="value_a", allow_non_finite=True)
        self._value_b = check_vector(
            value_b, dimension=self._value_a.shape[0], name="value_b",
            allow_non_finite=True,
        )
        self._colluders = set(int(i) for i in colluders)

    def initial_messages(self, sender, recipients, rng):
        out: Dict[int, Optional[np.ndarray]] = {}
        for node in recipients:
            out[node] = self._value_b if node in self._colluders else self._value_a
        return out


@dataclass
class BroadcastResult:
    """Outcome of one broadcast instance.

    Attributes
    ----------
    delivered:
        Per honest node: the delivered vector, or ``None`` for ``⊥``.
    agreed_value:
        The common delivered value (``None`` for ``⊥``); existence is
        asserted — disagreement raises :class:`ProtocolViolationError`.
    rounds:
        Number of protocol rounds executed (``f + 1``).
    messages_sent:
        Total point-to-point messages for cost accounting.
    """

    delivered: Dict[int, Optional[np.ndarray]]
    agreed_value: Optional[np.ndarray]
    rounds: int
    messages_sent: int


def byzantine_broadcast(
    n: int,
    f: int,
    sender: int,
    value: Optional[np.ndarray],
    faulty: Sequence[int] = (),
    sender_strategy: Optional[ByzantineSenderStrategy] = None,
    relay_withholding: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> BroadcastResult:
    """Run one Dolev–Strong broadcast among ``n`` nodes.

    Parameters
    ----------
    n, f:
        System size and fault bound (requires ``3 f < n``, the paper's
        peer-to-peer feasibility condition).
    sender:
        Designated sender's node id.
    value:
        The sender's input (used when the sender is honest, or faulty
        without a strategy). Only an honest sender's input must be finite.
    faulty:
        Ids of Byzantine nodes, each in ``[0, n)``.
    sender_strategy:
        Round-1 misbehaviour when the sender is faulty; defaults to honest
        behaviour even for a faulty sender (a valid Byzantine choice). It
        may address only nodes in ``[0, n)``.
    relay_withholding:
        Whether faulty relays withhold known values until the final round
        (the adversarial relay schedule); if ``False`` they simply never
        relay.

    Agreement is checked on the delivered values' bit patterns, so a
    non-finite value that every honest node extracted is agreed on.
    """
    check_fault_bound(n, f, architecture="peer")
    faulty_set: Set[int] = set(int(i) for i in faulty)
    if len(faulty_set) > f:
        raise InvalidParameterError(f"{len(faulty_set)} faulty nodes exceed f={f}")
    if not 0 <= sender < n:
        raise InvalidParameterError(f"sender {sender} out of range")
    if any(not 0 <= i < n for i in faulty_set):
        raise InvalidParameterError(
            f"faulty ids must lie in [0, {n}), got {sorted(faulty_set)}"
        )
    honest = [i for i in range(n) if i not in faulty_set]
    rounds = f + 1
    messages_sent = 0
    everyone = (1 << n) - 1
    faulty_mask = sum(1 << i for i in faulty_set)
    honest_mask = everyone ^ faulty_mask

    # extracted[node]: the values an honest node extracted, in order;
    # holders[key]: the honest nodes that extracted the value with that key.
    extracted: Dict[int, List[np.ndarray]] = {i: [] for i in honest}
    holders: Dict[bytes, int] = {}
    # Messages delivered in each round, each with its recipients' bitmask.
    pending: Dict[int, List[Tuple[SignedMessage, int]]] = {
        r: [] for r in range(1, rounds + 1)
    }
    # Everything the adversary has seen (valid chains addressed to faulty nodes).
    adversary_pool: List[SignedMessage] = []

    # --- Round 1: the sender speaks. ---
    if sender in faulty_set and sender_strategy is not None:
        initial = sender_strategy.initial_messages(sender, list(range(n)), rng)
        stray = [node for node in initial if node not in range(n)]
        if stray:
            raise InvalidParameterError(
                f"sender strategy addressed nodes outside [0, {n}): {stray}"
            )
        # One entry per recipient, in the order the strategy returns them.
        for node, sent_value in initial.items():
            if sent_value is None:
                continue
            message = SignedMessage(np.asarray(sent_value, dtype=float), (sender,))
            pending[1].append((message, 1 << int(node)))
            messages_sent += 1
    else:
        if value is None:
            raise InvalidParameterError("an honest sender needs an input value")
        payload = check_vector(
            value, name="value", allow_non_finite=sender in faulty_set
        )
        pending[1].append((SignedMessage(payload, (sender,)), everyone))
        messages_sent += n

    # --- Rounds 1 .. f+1: relay with signature chains. ---
    for round_index in range(1, rounds + 1):
        relays = pending[round_index + 1] if round_index < rounds else None
        for message, recipients in pending[round_index]:
            chain = message.chain
            if len(chain) != round_index or chain[0] != sender:
                raise ProtocolViolationError("malformed signature chain in simulator")
            if recipients & faulty_mask:
                adversary_pool.append(message)
            key = _key(message.value)
            held = holders.get(key, 0)
            fresh = recipients & honest_mask & ~held
            if not fresh:
                continue
            holders[key] = held | fresh
            # New holders extract in ascending id order; each signs and
            # relays to everyone else next round.
            while fresh:
                bit = fresh & -fresh
                fresh ^= bit
                node = bit.bit_length() - 1
                extracted[node].append(message.value)
                if relays is not None and node != sender and node not in chain:
                    relays.append((message.extended_by(node), everyone ^ bit))
                    messages_sent += n - 1
        # Faulty relays: withhold until the last round, then reveal to a
        # minority of honest nodes — the adversarial schedule Dolev-Strong
        # is designed to defeat.
        if relay_withholding and round_index == rounds - 1 and adversary_pool:
            revealed = adversary_pool[-1]
            signers = [i for i in faulty_set if i not in revealed.chain]
            chain_message = revealed
            for signer in signers:
                if len(chain_message.chain) >= rounds:
                    break
                chain_message = chain_message.extended_by(signer)
            if len(chain_message.chain) == rounds:
                minority = honest[: max(len(honest) // 2, 1)]
                pending[rounds].append((chain_message, sum(1 << i for i in minority)))
                messages_sent += len(minority)

    # --- Delivery decision. ---
    delivered: Dict[int, Optional[np.ndarray]] = {}
    for node in honest:
        values = extracted[node]
        delivered[node] = values[0].copy() if len(values) == 1 else None

    # Agreement on bit patterns, so a NaN payload agrees with itself.
    witness = delivered[honest[0]]
    witness_key = None if witness is None else _key(witness)
    for node in honest[1:]:
        other = delivered[node]
        if (None if other is None else _key(other)) != witness_key:
            raise ProtocolViolationError(
                "Byzantine broadcast violated agreement — simulator bug"
            )
    return BroadcastResult(
        delivered=delivered,
        agreed_value=None if witness is None else witness.copy(),
        rounds=rounds,
        messages_sent=messages_sent,
    )
