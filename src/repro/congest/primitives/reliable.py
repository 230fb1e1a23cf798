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
  until the receiver's cumulative ack passes it;
* **supersede rule** — a unit queued to a neighbour under the same ``kind``
  as a still-pending unit replaces it (with a fresh sequence number).  This
  is how a BFS relaxation re-announces an improved distance: only the
  newest announcement is worth delivering.  A host that never sends two
  units of one kind to one neighbour (the aggregation) never triggers it;
* **cumulative acks** — every wire message carries the sender's *floor*
  (its lowest still-pending sequence number) and its cumulative ack of the
  reverse direction: every number below the ack was seen or lies below
  the neighbour's floor.  The floor is what lets a superseded (or
  abandoned) number that never arrives drop out of the ack instead of
  blocking it.  Receivers deduplicate against the ack and a bitmask of
  numbers seen above it, so retransmissions never double-count;
* **per-unit timers** — a unit still pending ``timeout * backoff**j``
  rounds after its ``j``-th transmission *left the sender's link queue*
  is sent again (the sender knows when that is: its own queue drains one
  message per round at unit bandwidth).  After ``max_attempts`` resends
  the unit is abandoned and counted in :attr:`ReliableChannel.abandoned`.
  A node with pending units stays awake; its deadlines sit in a table
  keyed by round, so a round with nothing due costs one lookup;
* each round a node sends at most **one** wire message per (instance,
  neighbour): one data unit carrying the current ack, or a bare ack when
  an ack is owed and no data unit leaves on that endpoint.  That respects
  the CONGEST discipline (and the engine's duplicate-send guard) while
  keeping the congestion the adversary sees honest;
* a crash wipes a node's pending units, queues, timers and receive state,
  but **not** its per-neighbour sequence counters: they model stable
  storage.  A recovered node therefore never reuses a number its
  neighbours already acked, so its fresh units are processed, not
  discarded as duplicates.

Wire format (flat scalar tuple, exactly ``MAX_PAYLOAD_FIELDS``)::

    (seq, kind, floor, ack, arity, f0, f1, f2)

``kind`` is the caller's unit type (``-1`` for a bare ack, ``seq`` then
``-1`` too); ``floor`` and ``ack`` are the sequence numbers described
above; values are scalars (``arity == 0``, value in ``f0``) or tuples of up
to three scalars (``arity`` = length) — enough for the BFS ``(dist,
root)`` announcements and the MWOE candidate triples the shortcut
consumers aggregate.
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


#: Endpoint keys pack ``(instance, neighbour)`` as ``idx << _SHIFT | nbr``,
#: so sorting keys orders a node's traffic by instance, then neighbour.
_SHIFT = 32


class _Endpoint:
    """Node ``v``'s end of its reliable link to ``nbr`` on instance ``idx``.

    The containers are allocated while in use and dropped (``None``) when
    they drain: a fleet touches many endpoints but keeps few busy at once,
    and an empty ``deque`` alone costs most of a kilobyte.
    """

    __slots__ = ("idx", "nbr", "route", "next_seq", "units", "data", "resends",
                 "owed", "cum", "seen")

    def __init__(self, idx: int, nbr: int) -> None:
        self.idx = idx
        self.nbr = nbr
        #: ``((link id,), departure cell)``, resolved at the first send:
        #: the links argument of the node's trusted ``multicast_links``
        #: path, and the one-slot list holding the round the last wire
        #: message on the ``v -> nbr`` link leaves its queue (shared by all
        #: of ``v``'s endpoints towards ``nbr``).
        self.route: Optional[tuple] = None
        #: Next sequence number to assign (stable storage: survives crashes).
        self.next_seq = 0
        #: ``{seq: (kind, arity, f0, f1, f2)}`` sent to ``nbr``, not yet
        #: acked, in ascending ``seq`` order (the first key is the floor).
        self.units: Optional[dict[int, tuple]] = None
        #: Sequence numbers queued for (re)transmission, FIFO.
        self.data: Optional[deque[int]] = None
        #: ``{seq: transmissions so far}`` of the units a timer re-queued.
        self.resends: Optional[dict[int, int]] = None
        #: Whether ``nbr`` is owed an ack (a data unit arrived since the
        #: last wire message left this endpoint).
        self.owed = False
        #: Cumulative ack of ``nbr``'s units: every number below it was
        #: seen or lies below ``nbr``'s floor.
        self.cum = 0
        #: Bit ``s`` set iff ``nbr``'s unit ``s`` was seen (meaningful for
        #: ``s >= cum`` only).
        self.seen = 0


class ReliableChannel:
    """Per-(instance, node, neighbour) reliable unit delivery.

    One channel serves a whole fleet algorithm: all bookkeeping lives on
    the channel (sparse dicts keyed by touched node), matching the
    package's convention that fleet state stays off ``node.state``.
    Instance ids double as the ``algorithm_id`` their wire messages travel
    under, and ``tags`` maps each instance id to its wire tag.  The host
    algorithm:

    * queues outgoing units with :meth:`send_unit` / :meth:`send_units`
      (from ``initialize`` or ``on_round``);
    * decodes its inbox with :meth:`receive` and processes the returned
      messages exactly like clean-mode ones;
    * ends every ``initialize`` / ``on_round`` with :meth:`end_round`,
      passing the engine's ``current_round`` (expired timers, flush, then
      wake or halt).
    """

    def __init__(self, tags: Mapping[int, str], retry: RetryPolicy) -> None:
        self.tags = dict(tags)
        # Rounds a unit waits for its ack after transmission j + 1.
        self._waits = [
            max(1, int(round(retry.timeout * retry.backoff**j)))
            for j in range(retry.max_attempts + 1)
        ]
        self._max_attempts = retry.max_attempts
        # v -> {key: endpoint}: every endpoint node v has touched.
        self._ends: dict[int, dict[int, _Endpoint]] = {}
        # v -> {key: endpoint} with un-acked units: a node stays awake
        # while it is a key.  Emptied entries are pruned.
        self._awaiting: dict[int, dict[int, _Endpoint]] = {}
        # v -> {key: endpoint} with queued units or an owed ack.  Emptied
        # entries are pruned: a node has work iff it is a key.
        self._active: dict[int, dict[int, _Endpoint]] = {}
        # (v << _SHIFT | nbr) -> the link's route (see _Endpoint.route).
        self._links: dict[int, tuple] = {}
        # round -> {v: [(endpoint, seq, transmissions), ...]}: the timers
        # expiring in that round.  Entries of settled units are skipped
        # when they come due.
        self._due: dict[int, dict[int, list[tuple[_Endpoint, int, int]]]] = {}
        # The round of the latest end_round, and its popped _due bucket.
        self._clock = 0
        self._expiring: Optional[dict[int, list]] = None
        #: Units sent but not yet acked, across all instances and nodes.
        self.total_pending = 0
        #: Units given up after ``max_attempts`` unanswered resends.
        self.abandoned = 0

    # ------------------------------------------------------------------
    def _settle(self, v: int, key: int, end: _Endpoint, seq: int) -> None:
        """Drop pending unit ``seq`` of ``end`` (acked or abandoned); prune
        the endpoint from the awaiting set once empty."""
        units = end.units
        del units[seq]
        self.total_pending -= 1
        resends = end.resends
        if resends is not None:
            resends.pop(seq, None)
        if not units:
            end.units = None
            awaiting = self._awaiting[v]
            del awaiting[key]
            if not awaiting:
                del self._awaiting[v]

    def send_units(self, idx: int, v: int, targets: Sequence[int], kind: int,
                   value: Any) -> None:
        """Queue the same unit from ``v`` to every neighbour in ``targets``."""
        unit = (kind, *encode_value(value))
        if not targets:
            return
        ends = self._ends.get(v)
        if ends is None:
            ends = self._ends[v] = {}
        active = self._active.get(v)
        if active is None:
            active = self._active[v] = {}
        awaiting = self._awaiting.get(v)
        base = idx << _SHIFT
        queued = 0
        for nbr in targets:
            key = base | nbr
            end = ends.get(key)
            if end is None:
                end = ends[key] = _Endpoint(idx, nbr)
            queued += 1
            units = end.units
            if units is None:
                units = end.units = {}
                if awaiting is None:
                    awaiting = self._awaiting[v] = {}
                awaiting[key] = end
            else:
                for old, held in units.items():
                    if held[0] == kind:
                        # Supersede rule: the newer unit of this kind
                        # replaces the pending one (see the module
                        # docstring).  A queued copy of the old number is
                        # skipped by flush.
                        del units[old]
                        queued -= 1
                        if end.resends is not None:
                            end.resends.pop(old, None)
                        break
            seq = end.next_seq
            end.next_seq = seq + 1
            units[seq] = unit
            data = end.data
            if data is None:
                end.data = deque((seq,))
            else:
                data.append(seq)
            active[key] = end
        self.total_pending += queued

    def send_unit(self, idx: int, v: int, nbr: int, kind: int, value: Any) -> None:
        """Queue one unit from ``v`` to ``nbr`` on instance ``idx``."""
        self.send_units(idx, v, (nbr,), kind, value)

    def receive(self, node: NodeContext, messages: list[Message],
                kind_tags: Sequence[Mapping[int, str]]) -> list[Message]:
        """Decode an inbox into the messages clean mode would have received.

        Each wire message of the channel's instances settles the pending
        units its cumulative ack covers and advances the receive window
        past the sender's floor; a data unit also owes the sender an ack
        (the previous one may have been lost).  Each new unit comes back as
        a message from the same sender and instance, tagged
        ``kind_tags[kind][idx]`` and carrying the decoded value.  Other
        traffic, bare acks and duplicates are dropped from the result.
        """
        v = node.node_id
        tags = self.tags
        units_out: list[Message] = []
        ends = self._ends.get(v)
        for msg in messages:
            idx = msg.algorithm_id
            if msg.tag != tags.get(idx):
                continue
            seq, kind, floor, ack, arity, f0, f1, f2 = msg.payload
            sender = msg.sender
            key = idx << _SHIFT | sender
            end = ends.get(key) if ends is not None else None
            if end is None:
                if ends is None:
                    ends = self._ends[v] = {}
                end = ends[key] = _Endpoint(idx, sender)
            units = end.units
            while units is not None:
                # Ascending keys: the first pending number is the lowest.
                first = next(iter(units))
                if first >= ack:
                    break
                self._settle(v, key, end, first)
                units = end.units
            cum = end.cum
            seen = end.seen
            if floor > cum:
                cum = floor
                while seen >> cum & 1:
                    cum += 1
                end.cum = cum
            if kind == ACK_ONLY:
                continue
            if not end.owed:
                end.owed = True
                active = self._active.get(v)
                if active is None:
                    active = self._active[v] = {}
                active[key] = end
            if seq == cum:
                cum += 1
                while seen >> cum & 1:
                    cum += 1
                end.cum = cum
            elif seq < cum or seen >> seq & 1:
                continue  # duplicate
            else:
                end.seen = seen | 1 << seq
            units_out.append(Message(
                sender, v, kind_tags[kind][idx],
                f0 if arity == 0 else (f0, f1, f2)[:arity], idx,
            ))
        return units_out

    def _expire(self, v: int, timers: list[tuple[_Endpoint, int, int]]) -> None:
        """Re-queue (or abandon) node ``v``'s pending units whose timer ran out."""
        active = None
        for end, seq, sent in timers:
            units = end.units
            if units is None or seq not in units:
                continue  # settled since it was sent
            key = end.idx << _SHIFT | end.nbr
            if sent > self._max_attempts:
                self._settle(v, key, end, seq)
                self.abandoned += 1
                continue
            resends = end.resends
            if resends is None:
                resends = end.resends = {}
            resends[seq] = sent
            data = end.data
            if data is None:
                data = end.data = deque()
            data.append(seq)
            if active is None:
                active = self._active.get(v)
                if active is None:
                    active = self._active[v] = {}
            active[key] = end

    def _route(self, node: NodeContext, nbr: int) -> tuple:
        """The shared route of ``node``'s link to ``nbr`` (see
        :attr:`_Endpoint.route`), built on the link's first send."""
        link_key = node.node_id << _SHIFT | nbr
        route = self._links.get(link_key)
        if route is None:
            route = self._links[link_key] = (tuple(node.out_link_ids((nbr,))), [0])
        return route

    def flush(self, node: NodeContext) -> None:
        """Send at most one wire message per (instance, neighbour).

        Pops one queued data unit per endpoint, or sends a bare ack when
        only an ack is owed; leftovers keep the node marked as having work
        for the next round.  Each data unit arms its timer from the round
        it leaves the link queue.  Wire messages go out over the node's
        trusted link path: one message per endpoint per round by
        construction, and fields validated when the unit was encoded.
        """
        v = node.node_id
        active = self._active.get(v)
        if not active:
            return
        send = node.multicast_links
        tags = self.tags
        now = self._clock
        waits = self._waits
        due = self._due
        for key in sorted(active):
            end = active[key]
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
            route = end.route
            if route is None:
                route = end.route = self._route(node, end.nbr)
            cell = route[1]
            depart = cell[0] + 1
            if depart <= now:
                depart = now + 1
            if unit is not None:
                kind, arity, f0, f1, f2 = unit
                wire = (seq, kind, next(iter(units)), end.cum, arity, f0, f1, f2)
                sent = 1
                resends = end.resends
                if resends is not None:
                    sent = resends.pop(seq, 0) + 1
                    if not resends:
                        end.resends = None
                at = depart + waits[sent - 1]
                timer = (end, seq, sent)
                bucket = due.get(at)
                if bucket is None:
                    due[at] = {v: [timer]}
                else:
                    timers = bucket.get(v)
                    if timers is None:
                        bucket[v] = [timer]
                    else:
                        timers.append(timer)
            elif end.owed:
                units = end.units
                floor = end.next_seq if units is None else next(iter(units))
                wire = (ACK_ONLY, ACK_ONLY, floor, end.cum, 0, 0, 0, 0)
            else:
                del active[key]
                continue
            end.owed = False
            cell[0] = depart
            send(route[0], tags[end.idx], wire, end.idx)
            if end.data is None:
                del active[key]
        if not active:
            del self._active[v]

    def end_round(self, node: NodeContext, current_round: int,
                  stay_awake: bool = False) -> None:
        """Close a host's ``initialize`` / ``on_round`` call for ``node``.

        Re-queues the node's units whose timer expires in ``current_round``,
        flushes one wire message per (instance, neighbour), then keeps the
        node awake while it has queued traffic or un-acked units (or the
        host asks to stay awake) and halts it otherwise.
        """
        v = node.node_id
        if current_round != self._clock:
            self._clock = current_round
            self._expiring = self._due.pop(current_round, None)
        expiring = self._expiring
        if expiring is not None:
            timers = expiring.pop(v, None)
            if timers is not None:
                self._expire(v, timers)
        self.flush(node)
        if stay_awake or v in self._active or v in self._awaiting:
            node.wake()
        else:
            node.halt()

    def on_crash(self, v: int) -> None:
        """Wipe node ``v``'s volatile channel state (its memory is lost).

        The per-neighbour sequence counters are stable storage and survive,
        so the recovered node's units get numbers its neighbours have not
        acked yet.
        """
        for end in self._ends.get(v, {}).values():
            if end.units is not None:
                self.total_pending -= len(end.units)
            end.units = end.data = end.resends = None
            end.owed = False
            end.cum = end.seen = 0
        self._awaiting.pop(v, None)
        self._active.pop(v, None)
