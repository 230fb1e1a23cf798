"""The reliable unit-delivery layer shared by every retry-mode primitive.

The drop adversary breaks the one assumption every primitive in this
package shares: that a sent message arrives.  :class:`ReliableChannel`
restores at-least-once delivery on top of the lossy links using the
standard sequence-number discipline, packaged so a fleet algorithm (one
object, many instances) can bolt it on without rewriting its round
handlers.  It is the only place sequence numbers, acks, deduplication and
retransmission live: retry-mode :class:`~repro.congest.primitives.bfs.
DistributedBFS`, retry-mode :class:`~repro.congest.primitives.
concurrent_bfs.ConcurrentMaskedBFS` and retry-mode :class:`~repro.congest.
primitives.aggregation.PartAggregation` all run their clean-mode logic over
it, with :meth:`ReliableChannel.send_units` in place of the engine's
multicast and :meth:`ReliableChannel.receive` decoding the inbox.

* every logical *unit* (an announcement, an up-value, a down-value) gets a
  per-``(instance, sender, neighbour)`` sequence number and stays *pending*
  until the receiver acks that exact number;
* **supersede rule** — a unit queued to a neighbour under the same ``kind``
  as a still-pending unit replaces it (with a fresh sequence number, so a
  late ack of the old one matches nothing).  This is how a BFS relaxation
  re-announces an improved distance: only the newest announcement is worth
  delivering.  A host that never sends two units of one kind to one
  neighbour (the aggregation) never triggers it;
* receivers ack every data unit they see (re-acking duplicates, since the
  previous ack may itself have been dropped) and deduplicate by seen
  sequence numbers, so retransmissions never double-count;
* at the retry policy's checkpoint rounds (declared by the host through the
  engine's timer protocol as :attr:`ReliableChannel.checkpoints`) all
  pending units are re-queued for transmission — bounded retries with
  exponential backoff;
* each round a node sends at most **one** wire message per (instance,
  neighbour): one data unit with one piggybacked ack, or a bare ack.  That
  respects the CONGEST discipline (and the engine's duplicate-send guard)
  while keeping the congestion the adversary sees honest;
* a crash wipes a node's pending units, queues and seen sets, but **not**
  its per-neighbour sequence counters: they model stable storage.  A
  recovered node therefore never reuses a number its neighbours already
  hold as seen, so its fresh units are processed, not discarded as
  duplicates.

Wire format (flat scalar tuple, within ``MAX_PAYLOAD_FIELDS``)::

    (seq, kind, ack_seq, arity, f0, f1, f2)

``kind`` is the caller's unit type (``-1`` for a bare ack, ``seq`` then
``-1`` too); ``ack_seq`` is ``-1`` or the sequence number being acked;
values are scalars (``arity == 0``, value in ``f0``) or tuples of up to
three scalars (``arity`` = length) — enough for the BFS ``(dist, root)``
announcements and the MWOE candidate triples the shortcut consumers
aggregate.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Mapping, Optional, Sequence

from ..adversary import RetryPolicy
from ..message import Message, check_payload
from ..node import NodeContext

#: ``kind`` of a bare-ack wire message (carries no data unit).
ACK_ONLY = -1

#: Maximum tuple arity a unit value may have (see the wire format).
MAX_VALUE_ARITY = 3


def encode_value(value: Any) -> tuple[int, Any, Any, Any]:
    """Validate and flatten a scalar or small tuple into ``(arity, f0, f1, f2)``.

    The fields are checked here, once per unit, so every wire message
    built from them is a valid payload without per-send validation.
    """
    check_payload(value)
    if isinstance(value, tuple):
        if not 0 < len(value) <= MAX_VALUE_ARITY:
            raise ValueError(
                f"reliable units carry tuples of 1..{MAX_VALUE_ARITY} scalars, "
                f"got {value!r}"
            )
        padded = value + (0,) * (MAX_VALUE_ARITY - len(value))
        return (len(value), padded[0], padded[1], padded[2])
    return (0, value, 0, 0)


def decode_value(arity: int, f0: Any, f1: Any, f2: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if arity == 0:
        return f0
    return (f0, f1, f2)[:arity]


#: Endpoint keys pack ``(instance, neighbour)`` as ``idx << _SHIFT | nbr``,
#: so sorting keys orders a node's traffic by instance, then neighbour.
_SHIFT = 32


class _Endpoint:
    """Node ``v``'s end of its reliable link to ``nbr`` on instance ``idx``.

    The containers are allocated while in use and dropped (``None``) when
    they drain: a fleet touches many endpoints but keeps few busy at once,
    and an empty ``deque`` alone costs most of a kilobyte.
    """

    __slots__ = ("idx", "nbr", "route", "next_seq", "units", "data", "acks",
                 "seen")

    def __init__(self, idx: int, nbr: int) -> None:
        self.idx = idx
        self.nbr = nbr
        #: ``((nbr,), (link id,))``, resolved at the first send: the
        #: arguments of the node's trusted ``multicast_links`` path.
        self.route: Optional[tuple[tuple[int], tuple[int, ...]]] = None
        #: Next sequence number to assign (stable storage: survives crashes).
        self.next_seq = 0
        #: ``{seq: (kind, arity, f0, f1, f2)}`` sent to ``nbr``, not yet acked.
        self.units: Optional[dict[int, tuple]] = None
        #: Sequence numbers queued for (re)transmission, FIFO.
        self.data: Optional[deque[int]] = None
        #: Acks owed to ``nbr``, FIFO.
        self.acks: Optional[deque[int]] = None
        #: Bit ``s`` set iff ``nbr``'s unit ``s`` was already processed.
        self.seen = 0


class ReliableChannel:
    """Per-(instance, node, neighbour) reliable unit delivery.

    One channel serves a whole fleet algorithm: all bookkeeping lives on
    the channel (sparse dicts keyed by touched node), matching the
    package's convention that fleet state stays off ``node.state``.
    Instance ids double as the ``algorithm_id`` their wire messages travel
    under, and ``tags`` maps each instance id to its wire tag.  The host
    algorithm:

    * declares :attr:`checkpoints` in its ``wake_at_rounds``;
    * queues outgoing units with :meth:`send_unit` / :meth:`send_units`
      (from ``initialize`` or ``on_round``);
    * decodes its inbox with :meth:`receive` and processes the returned
      messages exactly like clean-mode ones;
    * ends every ``initialize`` / ``on_round`` with :meth:`end_round`
      (checkpoint re-queue, flush, then wake or halt);
    * answers its ``pending_timer_work`` probe with
      :meth:`pending_timer_work`, so fully-acked runs skip the remaining
      checkpoints.
    """

    def __init__(self, tags: Mapping[int, str], retry: RetryPolicy) -> None:
        self.tags = dict(tags)
        #: The retry policy's absolute checkpoint rounds.
        self.checkpoints = retry.checkpoints()
        self._checkpoints = frozenset(self.checkpoints)
        # v -> {key: endpoint}: every endpoint node v has touched.
        self._ends: dict[int, dict[int, _Endpoint]] = {}
        # v -> {key: endpoint} with un-acked units: the only endpoints a
        # checkpoint has to re-queue.  Emptied entries are pruned.
        self._awaiting: dict[int, dict[int, _Endpoint]] = {}
        # v -> {key: endpoint} with queued units or acks.  Emptied entries
        # are pruned: a node has work iff it is a key.
        self._active: dict[int, dict[int, _Endpoint]] = {}
        #: Units sent but not yet acked, across all instances and nodes.
        self.total_pending = 0

    # ------------------------------------------------------------------
    def _endpoint(self, v: int, key: int) -> _Endpoint:
        ends = self._ends.get(v)
        if ends is None:
            ends = self._ends[v] = {}
        end = ends.get(key)
        if end is None:
            end = ends[key] = _Endpoint(key >> _SHIFT, key & ((1 << _SHIFT) - 1))
        return end

    def _queue_encoded(self, idx: int, v: int, nbr: int, unit: tuple) -> None:
        key = idx << _SHIFT | nbr
        end = self._endpoint(v, key)
        units = end.units
        data = end.data
        if units is None:
            units = end.units = {}
            awaiting = self._awaiting.get(v)
            if awaiting is None:
                awaiting = self._awaiting[v] = {}
            awaiting[key] = end
        else:
            kind = unit[0]
            for old, held in units.items():
                if held[0] == kind:
                    # Supersede rule: the newer unit of this kind replaces
                    # the pending one (see the module docstring).
                    del units[old]
                    self.total_pending -= 1
                    if data is not None and old in data:
                        data.remove(old)
                    break
        seq = end.next_seq
        end.next_seq = seq + 1
        units[seq] = unit
        self.total_pending += 1
        if data is None:
            data = end.data = deque()
        data.append(seq)
        active = self._active.get(v)
        if active is None:
            active = self._active[v] = {}
        active[key] = end

    def send_units(self, idx: int, v: int, targets: Sequence[int], kind: int,
                   value: Any) -> None:
        """Queue the same unit from ``v`` to every neighbour in ``targets``."""
        unit = (kind, *encode_value(value))
        for nbr in targets:
            self._queue_encoded(idx, v, nbr, unit)

    def send_unit(self, idx: int, v: int, nbr: int, kind: int, value: Any) -> None:
        """Queue one unit from ``v`` to ``nbr`` on instance ``idx``."""
        self.send_units(idx, v, (nbr,), kind, value)

    def _on_wire(self, idx: int, v: int, sender: int, payload: tuple
                 ) -> Optional[tuple[int, Any]]:
        """Process one wire message; return ``(kind, value)`` for new units.

        Handles the piggybacked ack, queues the ack this unit is owed, and
        returns ``None`` for bare acks and already-seen duplicates.
        """
        seq, kind, ack_seq, arity, f0, f1, f2 = payload
        key = idx << _SHIFT | sender
        end = self._endpoint(v, key)
        if ack_seq != ACK_ONLY:
            units = end.units
            if units is not None and ack_seq in units:
                del units[ack_seq]
                self.total_pending -= 1
                if not units:
                    end.units = None
                    awaiting = self._awaiting[v]
                    del awaiting[key]
                    if not awaiting:
                        del self._awaiting[v]
        if kind == ACK_ONLY:
            return None
        # Always (re-)ack a data unit: the previous ack may have been lost.
        acks = end.acks
        if acks is None:
            acks = end.acks = deque()
        acks.append(seq)
        active = self._active.get(v)
        if active is None:
            active = self._active[v] = {}
        active[key] = end
        bit = 1 << seq
        if end.seen & bit:
            return None
        end.seen |= bit
        return kind, decode_value(arity, f0, f1, f2)

    def receive(self, node: NodeContext, messages: list[Message],
                kind_tags: Sequence[Mapping[int, str]]) -> list[Message]:
        """Decode an inbox into the messages clean mode would have received.

        Wire messages of the channel's instances settle their piggybacked
        acks and queue the acks they are owed; each new unit comes back as
        a message from the same sender and instance, tagged
        ``kind_tags[kind][idx]`` and carrying the decoded value.  Other
        traffic, bare acks and duplicates are dropped from the result.
        """
        v = node.node_id
        tags = self.tags
        units: list[Message] = []
        for msg in messages:
            idx = msg.algorithm_id
            if msg.tag != tags.get(idx):
                continue
            unit = self._on_wire(idx, v, msg.sender, msg.payload)
            if unit is not None:
                kind, value = unit
                units.append(Message(msg.sender, v, kind_tags[kind][idx], value, idx))
        return units

    def _requeue(self, v: int) -> None:
        """Re-queue every pending (un-acked) unit of node ``v``."""
        awaiting = self._awaiting.get(v)
        if not awaiting:
            return
        active = self._active.get(v)
        if active is None:
            active = self._active[v] = {}
        for key, end in awaiting.items():
            data = end.data
            if data is None:
                end.data = deque(sorted(end.units))
            else:
                queued = set(data)
                data.extend(seq for seq in sorted(end.units) if seq not in queued)
            active[key] = end

    def flush(self, node: NodeContext) -> None:
        """Send at most one wire message per (instance, neighbour).

        Pops one queued data unit per neighbour (piggybacking one owed
        ack), or a bare ack when only acks are owed; leftovers keep the
        node marked as having work for the next round.  Wire messages go
        out over the node's trusted link path: one message per endpoint per
        round by construction, and fields validated when the unit was
        encoded.
        """
        v = node.node_id
        active = self._active.get(v)
        if not active:
            return
        send = node.multicast_links
        tags = self.tags
        for key in sorted(active):
            end = active[key]
            ack_seq = ACK_ONLY
            acks = end.acks
            if acks is not None:
                ack_seq = acks.popleft()
                if not acks:
                    end.acks = None
            unit = None
            data = end.data
            if data is not None:
                units = end.units
                while data:
                    seq = data.popleft()
                    if units is not None:
                        unit = units.get(seq)
                        if unit is not None:
                            break
                if not data:
                    end.data = None
            if unit is not None:
                kind, arity, f0, f1, f2 = unit
                wire = (seq, kind, ack_seq, arity, f0, f1, f2)
            elif ack_seq != ACK_ONLY:
                wire = (ACK_ONLY, ACK_ONLY, ack_seq, 0, 0, 0, 0)
            else:
                wire = None
            if wire is not None:
                route = end.route
                if route is None:
                    # Standalone contexts have no link ids (and ignore them).
                    targets = (end.nbr,)
                    route = end.route = (targets, tuple(node.out_link_ids(targets) or ()))
                send(route[1], route[0], tags[end.idx], wire, end.idx)
            if end.data is None and end.acks is None:
                del active[key]
        if not active:
            del self._active[v]

    def end_round(self, node: NodeContext, current_round: Optional[int],
                  stay_awake: bool = False) -> None:
        """Close a host's ``initialize`` / ``on_round`` call for ``node``.

        Re-queues pending units when ``current_round`` is a checkpoint,
        flushes one wire message per (instance, neighbour), then keeps the
        node awake while it has queued traffic (or the host asks to stay
        awake) and halts it otherwise.
        """
        v = node.node_id
        if current_round in self._checkpoints:
            self._requeue(v)
        self.flush(node)
        if stay_awake or v in self._active:
            node.wake()
        else:
            node.halt()

    def pending_timer_work(self) -> bool:
        """The host's ``pending_timer_work`` answer: any unit still un-acked."""
        return self.total_pending > 0

    def on_crash(self, v: int) -> None:
        """Wipe node ``v``'s volatile channel state (its memory is lost).

        The per-neighbour sequence counters are stable storage and survive,
        so the recovered node's units get numbers its neighbours have not
        seen yet.
        """
        for end in self._ends.get(v, {}).values():
            if end.units is not None:
                self.total_pending -= len(end.units)
            end.units = end.data = end.acks = None
            end.seen = 0
        self._awaiting.pop(v, None)
        self._active.pop(v, None)
