"""Synchronous round-based network simulator.

Models the paper's synchrony assumption: every message sent in a round is
delivered within that round, so a missing reply is *proof* the sender is
faulty (the server exploits this to eliminate silent agents). The network
logs every delivery for post-hoc inspection and accounts traffic volume,
dropped traffic included (which only the partially-synchronous subclass
in :mod:`repro.system.netfaults` produces).
The log keeps one plain row per delivered or dropped message and builds
the :class:`DeliveryRecord` objects only when it is read.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import InvalidParameterError
from repro.system.messages import Message


@dataclass(frozen=True)
class DeliveryRecord:
    """One delivered (or dropped) message, as seen by the network."""

    round_index: int
    sender: int
    receiver: int
    message_type: str
    size_bytes: int
    dropped: bool


class SynchronousNetwork:
    """Delivers messages between nodes in lock-step rounds.

    Parameters
    ----------
    log_capacity:
        Maximum retained delivery records (older records are evicted);
        counters are never evicted.
    """

    def __init__(self, log_capacity: int = 10_000):
        if log_capacity <= 0:
            raise InvalidParameterError(f"log_capacity must be positive, got {log_capacity}")
        # One DeliveryRecord field tuple per message, in field order.
        self._log: Deque[Tuple] = deque(maxlen=int(log_capacity))
        self._messages_delivered = 0
        self._messages_dropped = 0
        self._bytes_delivered = 0
        self._bytes_dropped = 0
        self._records_seen = 0
        self._eviction_warned = False

    @property
    def messages_delivered(self) -> int:
        return self._messages_delivered

    @property
    def messages_dropped(self) -> int:
        return self._messages_dropped

    @property
    def bytes_delivered(self) -> int:
        return self._bytes_delivered

    @property
    def bytes_dropped(self) -> int:
        """Payload bytes the network absorbed without delivering.

        Dropped traffic costs the sender bandwidth even though nothing
        arrives; accounting it separately keeps ``bytes_delivered`` an
        honest measure of *useful* traffic instead of silently conflating
        the two.
        """
        return self._bytes_dropped

    def traffic_summary(self) -> Dict[str, int]:
        """Delivered/dropped message and byte totals as a plain dict."""
        return {
            "messages_delivered": self._messages_delivered,
            "messages_dropped": self._messages_dropped,
            "bytes_delivered": self._bytes_delivered,
            "bytes_dropped": self._bytes_dropped,
        }

    @property
    def log_capacity(self) -> int:
        """Maximum number of retained delivery records."""
        return self._log.maxlen

    @property
    def records_evicted(self) -> int:
        """Delivery records dropped from the log because it was full."""
        return self._records_seen - len(self._log)

    @property
    def log(self) -> List[DeliveryRecord]:
        """Retained delivery records, oldest first.

        Warns (once per network) when the log has evicted records, so a
        truncated delivery history is never mistaken for a complete one.
        """
        if self.records_evicted > 0 and not self._eviction_warned:
            self._eviction_warned = True
            warnings.warn(
                f"network delivery log overflowed: {self.records_evicted} of "
                f"{self._records_seen} records were evicted (capacity "
                f"{self._log.maxlen}); raise log_capacity (e.g. via "
                "DGDConfig.log_capacity) to retain the full history",
                stacklevel=2,
            )
        return [DeliveryRecord(*row) for row in self._log]

    def _record(self, message: Message, receiver: int, dropped: bool) -> None:
        """Log one delivered or dropped message and count its traffic."""
        size = message.size_bytes()
        self._log.append((
            message.round_index,
            message.sender,
            int(receiver),
            type(message).__name__,
            size,
            dropped,
        ))
        self._records_seen += 1
        if dropped:
            self._messages_dropped += 1
            self._bytes_dropped += size
        else:
            self._messages_delivered += 1
            self._bytes_delivered += size

    def deliver(self, message: Message, receiver: int) -> Message:
        """Deliver one message within its round."""
        self._record(message, receiver, False)
        return message

    def broadcast(
        self, message: Message, receivers: Iterable[int], current_round: Optional[int] = None
    ) -> Dict[int, List[Message]]:
        """Deliver ``message`` to every receiver; returns each receiver's copies.

        Every receiver gets exactly one copy within the round, so
        ``current_round`` is not needed here; the partially-synchronous
        network's override uses it.
        """
        return {int(receiver): [self.deliver(message, receiver)] for receiver in receivers}

    def gather(
        self, messages: Iterable[Message], receiver: int, current_round: Optional[int] = None
    ) -> List[Message]:
        """Deliver many messages to one receiver within the round."""
        return [self.deliver(message, receiver) for message in messages]
