"""Pluggable fault adversaries for the CONGEST round engine.

Every measurement the repository produced before this module assumed a
fault-free synchronous network.  An :class:`Adversary` hooks into the
engine's delivery path and perturbs it message by message: drops,
duplications, per-message latency, adversarial (but per-link FIFO)
reordering, and scheduled node crashes with optional recovery.  The engine
consults the adversary at two points of an adversarial run
(``Network.run(..., adversary=...)``):

* ``begin_round(r)`` — once per executed round, *before* delivery; returns
  the crash/recover events to apply at round ``r``.
* ``on_deliver(link, message, r)`` — once per message about to cross a
  directed link; returns one of the action constants below.

Actions
-------
``DELIVER``
    Normal delivery (the only action a fault-free run ever sees).
``DROP``
    The message is consumed from the link queue but never reaches the
    receiver.  It still counts toward the edge's traffic (it occupied the
    link) and toward ``RunMetrics.messages_dropped``.
``DUPLICATE``
    The receiver gets two copies in the same round — the classic
    at-least-once failure mode that ack/retry protocols must tolerate.
``HOLD``
    The message (and, by FIFO, everything behind it on that link) stays
    queued for this round.  Holding only ever delays a queue head, so
    per-link FIFO order is preserved — this is how the asynchronous
    schedulers below model adversarial timing without reordering a link.

Determinism
-----------
Every randomized adversary draws from a generator derived via
:func:`~repro.rng.derive_seed` inside :meth:`Adversary.reset`, which the
engine calls at the start of every run.  Two runs with the same seed
therefore see the identical fault pattern — the property the hypothesis
determinism tests pin — and an adversary instance can be reused across runs
without state leaking from one run into the next.

A seed is **required**: the OS-entropy fallback every randomized adversary
used to carry (``seed=None`` -> ``ensure_rng(None)``) was exactly the class
of leak PR 5 had to hand-hunt out of ``quality_report``, and is now banned
by lint rule RPR001.  Pass an int (re-derived per run — reproducible even
when the instance is reused) or a ``random.Random`` you own (the stream
continues across runs; reuse then forfeits per-run reproducibility).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterable, Optional, Sequence, Union

from ..rng import RandomLike, derive_rng, derive_seed
from .message import Message

#: Delivery actions returned by :meth:`Adversary.on_deliver`.
DELIVER = 0
DROP = 1
DUPLICATE = 2
HOLD = 3

#: Event kinds yielded by :meth:`Adversary.begin_round`.
CRASH = "crash"
RECOVER = "recover"


class Adversary:
    """Base adversary: delivers everything, crashes nobody.

    Subclasses override :meth:`on_deliver` (message faults) and/or
    :meth:`begin_round` + :meth:`event_rounds` (node faults).  The base
    class doubles as the do-nothing adversary, but use the
    :class:`NullAdversary` alias when the intent is "adversarial plumbing,
    zero faults" — the identity tests pin that it leaves every metric
    bit-identical to an adversary-free run.
    """

    name = "adversary"

    def reset(self, network) -> None:
        """Re-derive all per-run state (called by the engine at run start)."""

    def begin_round(self, round_no: int) -> Optional[Iterable[tuple[str, int]]]:
        """Return the ``(kind, node)`` crash/recover events for ``round_no``."""
        return None

    def on_deliver(self, link: int, message: Message, round_no: int) -> int:
        """Decide the fate of one message about to cross ``link``."""
        return DELIVER

    def event_rounds(self) -> tuple[int, ...]:
        """Sorted rounds at which :meth:`begin_round` has events to apply.

        The engine merges these into its timer schedule so silent-stretch
        fast-forwarding never skips over a scheduled crash or recovery.
        """
        return ()


class NullAdversary(Adversary):
    """The explicit no-fault adversary (forces the adversarial code path)."""

    name = "null"


def _require_seed(seed: RandomLike, name: str) -> Union[int, Random]:
    """Reject the ``None`` (OS entropy) seed the adversaries used to allow."""
    if seed is None:
        raise ValueError(
            f"the {name} adversary draws randomness and requires an explicit "
            "seed (an int, or a random.Random you own); OS-entropy fallbacks "
            "are banned — thread a seed from make_fault_adversary or the "
            "CLI --adversary-seed"
        )
    if isinstance(seed, bool) or not isinstance(seed, (int, Random)):
        raise TypeError(f"adversary seed must be an int or random.Random, "
                        f"got {type(seed).__name__}")
    return seed


class SeededAdversary(Adversary):
    """Base for adversaries that draw randomness.

    Holds the required-seed convention in one place: an int seed is
    re-derived into a fresh stream at every :meth:`reset` (same seed, same
    fault pattern, even when the instance is reused across runs); a
    ``random.Random`` is used as-is, so the caller controls — and is
    responsible for — the stream's lifecycle.
    """

    def __init__(self, *, seed: RandomLike) -> None:
        self.seed = _require_seed(seed, self.name)
        self._rng = self._fresh_rng()

    def _fresh_rng(self) -> Random:
        if isinstance(self.seed, Random):
            return self.seed
        return derive_rng(self.seed, "adversary", self.name)

    def reset(self, network) -> None:
        self._rng = self._fresh_rng()


class DropAdversary(SeededAdversary):
    """Drop each message independently with probability ``rate``.

    Args:
        rate: default per-message drop probability in ``[0, 1)``.
        seed: required base seed for the per-run fault stream (an int, or a
            ``random.Random`` whose stream the caller owns).
        per_edge_rates: optional overrides keyed by canonical undirected
            edge ``(u, v)`` with ``u < v``; both directions of the edge use
            the override.
    """

    name = "drop"

    def __init__(
        self,
        rate: float,
        *,
        seed: RandomLike,
        per_edge_rates: Optional[dict[tuple[int, int], float]] = None,
    ) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("drop rate must be in [0, 1)")
        self.rate = rate
        self.per_edge_rates = dict(per_edge_rates) if per_edge_rates else None
        self._rate_of: Optional[list[float]] = None
        super().__init__(seed=seed)

    def reset(self, network) -> None:
        super().reset(network)
        self._rate_of = None
        if self.per_edge_rates:
            edge_index = {e: i for i, e in enumerate(network.graph.csr().edge_list)}
            rates = [self.rate] * len(edge_index)
            for edge, rate in self.per_edge_rates.items():
                if not 0.0 <= rate < 1.0:
                    raise ValueError(f"per-edge drop rate for {edge} must be in [0, 1)")
                idx = edge_index.get(edge)
                if idx is None:
                    raise ValueError(f"per-edge drop rate names unknown edge {edge}")
                rates[idx] = rate
            self._rate_of = rates

    def on_deliver(self, link: int, message: Message, round_no: int) -> int:
        rates = self._rate_of
        rate = self.rate if rates is None else rates[link >> 1]
        if rate and self._rng.random() < rate:
            return DROP
        return DELIVER


class DuplicateAdversary(SeededAdversary):
    """Deliver each message twice with probability ``rate`` (at-least-once)."""

    name = "duplicate"

    def __init__(self, rate: float, *, seed: RandomLike) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("duplicate rate must be in [0, 1)")
        self.rate = rate
        super().__init__(seed=seed)

    def on_deliver(self, link: int, message: Message, round_no: int) -> int:
        if self.rate and self._rng.random() < self.rate:
            return DUPLICATE
        return DELIVER


class LatencyAdversary(SeededAdversary):
    """Per-message link jitter: each queue head waits 0..``max_delay`` rounds.

    This generalizes the random-delay scheduler's whole-stage delays to
    per-message latency: when a message first reaches the head of its link
    queue a release round is drawn for it; the link holds (FIFO intact)
    until that round.  Delays are bounded, so every message is eventually
    delivered and terminating algorithms still terminate.
    """

    name = "latency"

    def __init__(self, max_delay: int, *, seed: RandomLike) -> None:
        if max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        self.max_delay = max_delay
        self._release: dict[int, int] = {}
        super().__init__(seed=seed)

    def reset(self, network) -> None:
        super().reset(network)
        self._release = {}

    def on_deliver(self, link: int, message: Message, round_no: int) -> int:
        release = self._release.get(link)
        if release is None:
            delay = self._rng.randint(0, self.max_delay)
            if delay == 0:
                return DELIVER
            self._release[link] = round_no + delay
            return HOLD
        if round_no >= release:
            del self._release[link]
            return DELIVER
        return HOLD


class AsyncScheduler(SeededAdversary):
    """Adversarial asynchronous delivery, FIFO per link.

    Each round, each backlogged link is independently held with probability
    ``hold_prob``, up to ``max_hold`` consecutive rounds — after which the
    head message is forcibly released.  The bound makes the adversary
    *progress-preserving*: any message is delivered within ``max_hold``
    rounds of reaching its queue head, so algorithms that terminate under
    synchrony still terminate (with stretched round counts) here.
    """

    name = "async"

    def __init__(
        self, hold_prob: float = 0.5, *, max_hold: int = 8, seed: RandomLike
    ) -> None:
        if not 0.0 <= hold_prob < 1.0:
            raise ValueError("hold_prob must be in [0, 1)")
        if max_hold < 1:
            raise ValueError("max_hold must be at least 1")
        self.hold_prob = hold_prob
        self.max_hold = max_hold
        self._held: dict[int, int] = {}
        super().__init__(seed=seed)

    def reset(self, network) -> None:
        super().reset(network)
        self._held = {}

    def on_deliver(self, link: int, message: Message, round_no: int) -> int:
        held = self._held.get(link, 0)
        if held < self.max_hold and self._rng.random() < self.hold_prob:
            self._held[link] = held + 1
            return HOLD
        if held:
            del self._held[link]
        return DELIVER


class CrashAdversary(Adversary):
    """Crash nodes at scheduled rounds; optionally recover them later.

    A crash at round ``r`` takes effect before round ``r``'s delivery: the
    node's state is wiped (its memory is lost), it is removed from the awake
    set, and every message addressed to it from then on is discarded (and
    counted as dropped).  A recovery restores a *blank* node: the engine
    calls the algorithm's ``on_recover`` hook, whose default re-runs
    ``initialize`` — the node rejoins the protocol with no memory of its
    pre-crash role.

    Args:
        crash_rounds: map ``node -> round`` (round 0 = before initialize).
        recover_rounds: optional map ``node -> round``; each recovery must
            name a crashed node and happen strictly after its crash.
    """

    name = "crash"

    def __init__(
        self,
        crash_rounds: dict[int, int],
        recover_rounds: Optional[dict[int, int]] = None,
    ) -> None:
        recover_rounds = recover_rounds or {}
        for v, r in crash_rounds.items():
            if r < 0:
                raise ValueError(f"crash round for node {v} must be non-negative")
        for v, r in recover_rounds.items():
            if v not in crash_rounds:
                raise ValueError(f"recovery names node {v} that never crashes")
            if r <= crash_rounds[v]:
                raise ValueError(f"node {v} must recover strictly after its crash")
        self.crash_rounds = dict(crash_rounds)
        self.recover_rounds = dict(recover_rounds)
        events: dict[int, list[tuple[str, int]]] = {}
        for v, r in sorted(self.crash_rounds.items()):
            events.setdefault(r, []).append((CRASH, v))
        for v, r in sorted(self.recover_rounds.items()):
            events.setdefault(r, []).append((RECOVER, v))
        self._events = events
        self._rounds = tuple(sorted(events))

    def begin_round(self, round_no: int) -> Optional[Iterable[tuple[str, int]]]:
        return self._events.get(round_no)

    def event_rounds(self) -> tuple[int, ...]:
        return self._rounds


class StackedAdversary(Adversary):
    """Compose several adversaries; the first non-``DELIVER`` action wins.

    Crash/recover events of all layers are merged.  Order matters for
    message faults: e.g. stacking a drop layer before a latency layer drops
    first and delays only the survivors.
    """

    name = "stacked"

    def __init__(self, adversaries: Sequence[Adversary]) -> None:
        if not adversaries:
            raise ValueError("StackedAdversary needs at least one adversary")
        self.adversaries = list(adversaries)

    def reset(self, network) -> None:
        for adversary in self.adversaries:
            adversary.reset(network)

    def begin_round(self, round_no: int) -> Optional[Iterable[tuple[str, int]]]:
        merged: list[tuple[str, int]] = []
        for adversary in self.adversaries:
            events = adversary.begin_round(round_no)
            if events:
                merged.extend(events)
        return merged or None

    def on_deliver(self, link: int, message: Message, round_no: int) -> int:
        for adversary in self.adversaries:
            action = adversary.on_deliver(link, message, round_no)
            if action != DELIVER:
                return action
        return DELIVER

    def event_rounds(self) -> tuple[int, ...]:
        merged: set[int] = set()
        for adversary in self.adversaries:
            merged.update(adversary.event_rounds())
        return tuple(sorted(merged))


# ----------------------------------------------------------------------
# Retry policy (consumed by the hardened primitives, defined here so the
# fault model and its countermeasure live in one module).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded per-unit re-send schedule for the retry/ack primitive modes.

    A primitive running with a retry policy keeps every unit *pending*
    until the receiver's cumulative ack covers it, and sends a pending unit
    again once ``timeout * backoff**j`` rounds have passed since its
    ``j``-th transmission left the sender's link queue (exponential
    backoff, per unit).  After ``max_attempts`` resends the unit is
    abandoned and counted (see :class:`~repro.congest.primitives.reliable.
    ReliableChannel`).  A node with pending units stays awake, so timers
    need no engine support beyond the round clock.
    """

    timeout: int = 4
    max_attempts: int = 8
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout < 1:
            raise ValueError("timeout must be at least 1 round")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")


def random_crash_schedule(
    num_crashes: int,
    num_vertices: int,
    *,
    max_round: int = 64,
    seed: RandomLike = None,
    recover_after: Optional[int] = None,
    protect: Iterable[int] = (),
) -> CrashAdversary:
    """Build a :class:`CrashAdversary` with a seeded random schedule.

    Crashes hit ``num_crashes`` distinct nodes (never the ``protect`` set,
    e.g. BFS roots) at rounds uniform in ``[1, max_round]``; with
    ``recover_after`` each node recovers that many rounds after its crash.
    The schedule is drawn once, here, so the seed is required up front.
    """
    protected = set(protect)
    eligible = [v for v in range(num_vertices) if v not in protected]
    if num_crashes > len(eligible):
        raise ValueError(
            f"cannot crash {num_crashes} of {len(eligible)} eligible nodes"
        )
    seed = _require_seed(seed, "crash-schedule")
    rng = (seed if isinstance(seed, Random)
           else derive_rng(seed, "adversary", "crash-schedule"))
    victims = rng.sample(eligible, num_crashes)
    crash_rounds = {v: rng.randint(1, max_round) for v in victims}
    recover_rounds = (
        {v: r + recover_after for v, r in crash_rounds.items()}
        if recover_after is not None
        else None
    )
    return CrashAdversary(crash_rounds, recover_rounds)


def make_fault_adversary(
    drop_rate: float = 0.0,
    crashes: int = 0,
    *,
    seed: Optional[int] = None,
    num_vertices: Optional[int] = None,
    max_crash_round: int = 64,
    recover_after: Optional[int] = None,
    protect: Iterable[int] = (),
) -> Optional[Adversary]:
    """Convenience combinator for the consumer-facing fault knobs.

    Returns ``None`` when both knobs are zero (callers then skip the
    adversarial path entirely), a single adversary when one knob is set,
    and a :class:`StackedAdversary` when both are.  Any active knob
    requires an explicit int ``seed``; the layers' independent streams are
    derived from it.
    """
    if not drop_rate and not crashes:
        return None
    if crashes and num_vertices is None:
        raise ValueError("crashes > 0 requires num_vertices")
    if seed is None or not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(
            "fault injection requires an explicit int adversary seed "
            "(thread one from the consumer's adversary_seed knob or the "
            "CLI --adversary-seed)"
        )
    layers: list[Adversary] = []
    if drop_rate:
        layers.append(DropAdversary(drop_rate, seed=derive_seed(seed, "drop")))
    if crashes:
        layers.append(
            random_crash_schedule(
                crashes,
                num_vertices,
                max_round=max_crash_round,
                seed=derive_seed(seed, "crash"),
                recover_after=recover_after,
                protect=protect,
            )
        )
    if len(layers) == 1:
        return layers[0]
    return StackedAdversary(layers)
