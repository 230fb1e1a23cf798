"""Messages for the CONGEST simulator.

In the CONGEST model each node may send one ``O(log n)``-bit message to each
neighbour per synchronous round.  The simulator treats one :class:`Message`
as one bandwidth unit on a *directed link* ``(sender, receiver)``: the
engine in :mod:`repro.congest.network` delivers at most one message per
link per round and queues the rest, so congestion translates into extra
rounds exactly as it would on a real network.

Payloads are required to be small hashable tuples of integers/floats/strings
(checked loosely) so that a message plausibly fits in ``O(log n)`` bits; the
check is advisory and exists mostly to catch algorithms that accidentally
ship whole data structures in one message.
"""

from __future__ import annotations

from typing import Any


#: Maximum number of scalar fields allowed in a payload before a warning-level
#: error is raised.  Each field is assumed to be O(log n) bits, so a payload
#: with a handful of fields is still O(log n) up to constants.
MAX_PAYLOAD_FIELDS = 8


def check_payload(payload: Any) -> None:
    """Validate that ``payload`` is a plausibly O(log n)-bit message payload.

    Accepted payloads are ``None``, scalars (int/float/str/bool) and flat
    tuples of at most :data:`MAX_PAYLOAD_FIELDS` scalars.

    Raises:
        ValueError: for payloads that would not fit the CONGEST bandwidth.
    """
    if payload is None or isinstance(payload, (int, float, str, bool)):
        return
    if isinstance(payload, tuple):
        if len(payload) > MAX_PAYLOAD_FIELDS:
            raise ValueError(
                f"payload tuple has {len(payload)} fields; CONGEST messages must be O(log n) bits"
            )
        for item in payload:
            if not (item is None or isinstance(item, (int, float, str, bool))):
                raise ValueError(f"payload field {item!r} is not a scalar")
        return
    raise ValueError(f"payload {payload!r} is not a valid CONGEST message payload")


class Message:
    """A single CONGEST message.

    One instance is allocated per message; ``__slots__`` keeps that as cheap
    as the engine's per-message bookkeeping allows.  Instances are treated as
    immutable by convention.

    Attributes:
        sender: id of the sending node.
        receiver: id of the receiving node (must be a neighbour of sender).
        tag: short string identifying the (sub-)algorithm or message type.
        payload: small scalar or tuple payload (see :func:`check_payload`).
        algorithm_id: identifier of the sub-algorithm when several run
            concurrently under the random-delay scheduler; 0 otherwise.
    """

    __slots__ = ("sender", "receiver", "tag", "payload", "algorithm_id")

    def __init__(self, sender: int, receiver: int, tag: str, payload: Any = None,
                 algorithm_id: int = 0) -> None:
        self.sender = sender
        self.receiver = receiver
        self.tag = tag
        self.payload = payload
        self.algorithm_id = algorithm_id

    def __repr__(self) -> str:
        return (
            f"Message(sender={self.sender}, receiver={self.receiver}, "
            f"tag={self.tag!r}, payload={self.payload!r}, algorithm_id={self.algorithm_id})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (
            self.sender == other.sender
            and self.receiver == other.receiver
            and self.tag == other.tag
            and self.payload == other.payload
            and self.algorithm_id == other.algorithm_id
        )

    def __hash__(self) -> int:
        return hash((self.sender, self.receiver, self.tag, self.payload, self.algorithm_id))
