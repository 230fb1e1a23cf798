"""Span recorder and the outside-in layer map of the benchmark.

Tracing never edits the library.  :func:`install` wraps the public entry
point of every pipeline layer from here, for the duration of one traced
pass, and restores the originals afterwards.  Two kinds of wrapper exist:

* a *span* records name, start, end, parent and free-form attributes;
  a span's self time is its duration minus the time its child spans cover;
* a *counted* call (``ReliableChannel.flush``, ``bulk_round``) runs hundreds
  of thousands of times per pass, so it only adds its call count and time
  to a per-name total and its duration to the enclosing span's child time.

Module-level functions are often bound by name at import
(``from ..shortcuts.kogan_parter import build_kogan_parter_shortcut``), so
:meth:`Patches.function` rebinds the name in every loaded ``repro`` module
that holds the original object, not only in the defining module.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from statistics import median
from typing import Any, Callable, Optional

clock = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child", "attrs")

    def __init__(self, sid: int, parent: Optional[int], name: str, start: float,
                 attrs: dict) -> None:
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.child = 0.0
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """In-memory span stack; spans are written out only after the pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counted: dict[str, list] = {}
        self._stack: list[Span] = []

    def open(self, name: str, **attrs: Any) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, clock(), attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if self._stack:
            self._stack[-1].child += span.duration

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        s = self.open(name, **attrs)
        try:
            yield s
        finally:
            self.close(s)

    def add_counted(self, name: str, seconds: float) -> None:
        acc = self.counted.get(name)
        if acc is None:
            acc = self.counted[name] = [0, 0.0]
        acc[0] += 1
        acc[1] += seconds
        if self._stack:
            self._stack[-1].child += seconds

    def innermost(self, name: str) -> Optional[Span]:
        for span in reversed(self._stack):
            if span.name == name:
                return span
        return None

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "self": s.self_time,
                    "attrs": s.attrs,
                }, default=str) + "\n")
            for name, (calls, seconds) in sorted(self.counted.items()):
                fh.write(json.dumps({"counted": name, "calls": calls,
                                     "seconds": seconds}) + "\n")


class NullTracer:
    """The untraced pass: benchmark-owned spans cost one no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name: str, **attrs: Any):
        return self._null


NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------
class Patches:
    """Reversible attribute replacements."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def attribute(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (a class or module member) by ``make(it)``."""
        self._set(owner, attr, make(owner.__dict__[attr]))

    def function(self, original: Callable, wrapper: Callable) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def spanned(tracer: Tracer, name: str, fn: Callable,
            attrs_of: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name, **(attrs_of(*args, **kwargs) if attrs_of else {}))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    return wrapper


def counted(tracer: Tracer, name: str, fn: Callable,
            before: Optional[Callable[[], None]] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before()
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add_counted(name, clock() - start)

    return wrapper


def wrapper_costs(calls: int = 20_000) -> tuple[float, float]:
    """Seconds one span and one counted call add to a wrapped no-op."""
    tracer = Tracer()

    def noop():
        return None

    costs = []
    for fn in (noop, spanned(tracer, "calibrate", noop), counted(tracer, "calibrate", noop)):
        start = clock()
        for _ in range(calls):
            fn()
        costs.append((clock() - start) / calls)
    return costs[1] - costs[0], costs[2] - costs[0]


def tracing_overhead(tracer: Tracer, costs: tuple[float, float]) -> float:
    """Estimated time the tracer added to a pass: calls times calibrated cost."""
    span_cost, counted_cost = costs
    counted_calls = sum(calls for calls, _ in tracer.counted.values())
    return len(tracer.spans) * span_cost + counted_calls * counted_cost


def classify_run(bulk_started: bool, adversarial: bool) -> str:
    """The engine path a ``Network.run`` took, as seen from outside.

    An adversary forces the fault-injected loop; otherwise a run whose
    kernel protocol ``start`` was called ran vectorized, and any other run
    executed node by node.
    """
    if adversarial:
        return "adversarial"
    return "bulk" if bulk_started else "pernode"


def _bulk_classes():
    """Bulk kernels and the algorithm classes that build them."""
    from repro.congest import bulk
    from repro.congest.algorithm import DistributedAlgorithm
    import repro.congest.primitives  # noqa: F401  (registers the subclasses)

    kernels = [cls for cls in vars(bulk).values()
               if isinstance(cls, type) and cls.__module__ == bulk.__name__
               and "start" in cls.__dict__ and "bulk_round" in cls.__dict__]
    algorithms, todo = [], [DistributedAlgorithm]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "bulk_kernel" in cls.__dict__ and cls is not DistributedAlgorithm:
            algorithms.append(cls)
    return kernels, algorithms


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every layer entry point for one traced pass."""
    from repro.applications import shortcut_mst
    from repro.congest.network import Network
    from repro.congest.primitives import aggregation, concurrent_bfs, reliable
    from repro.shortcuts import distributed, kogan_parter

    patches = Patches()
    try:
        def wrap_run(orig):
            @functools.wraps(orig)
            def run(self, algorithm, **kwargs):
                adversarial = kwargs.get("adversary") is not None
                span = tracer.open(
                    "network.run", algo=type(algorithm).__name__,
                    prefix=getattr(algorithm, "prefix", None),
                    bulk_capable=bool(getattr(algorithm, "bulk_capable", False)),
                    bulk=False,
                )
                try:
                    metrics = orig(self, algorithm, **kwargs)
                finally:
                    tracer.close(span)
                    span.attrs["path"] = classify_run(span.attrs["bulk"], adversarial)
                span.attrs.update(
                    rounds=metrics.rounds, delivered=metrics.messages_delivered,
                    sent=metrics.messages_sent, dropped=metrics.messages_dropped,
                )
                return metrics

            return run

        def mark_bulk():
            run_span = tracer.innermost("network.run")
            if run_span is not None:
                run_span.attrs["bulk"] = True

        patches.attribute(Network, "__init__",
                       lambda f: spanned(tracer, "network.wire", f))
        patches.attribute(Network, "run", wrap_run)
        kernels, algorithms = _bulk_classes()
        for cls in kernels:
            patches.attribute(cls, "start",
                           lambda f: counted(tracer, "bulk.start", f, mark_bulk))
            patches.attribute(cls, "bulk_round",
                           lambda f: counted(tracer, "bulk.round", f))
        for cls in algorithms:
            patches.attribute(cls, "bulk_kernel",
                           lambda f: spanned(tracer, "bulk.kernel_build", f))
        patches.attribute(reliable.ReliableChannel, "flush",
                       lambda f: counted(tracer, "reliable.flush", f))
        patches.attribute(
            aggregation.PartAggregation, "__init__",
            lambda f: spanned(tracer, "aggregation.init", f,
                              lambda _self, masks, *a, **k: {"instances": len(masks)}),
        )
        patches.attribute(concurrent_bfs.ConcurrentMaskedBFS, "__init__",
                       lambda f: spanned(tracer, "fleet.init", f))
        for original, name in (
            (aggregation.aggregate_over_shortcut, "aggregation.over_shortcut"),
            (aggregation.run_part_aggregation, "aggregation.run"),
            (aggregation.shortcut_link_masks, "aggregation.masks"),
            (kogan_parter.build_kogan_parter_shortcut, "shortcuts.sample"),
            (distributed.measure_diameter_probe, "construct.probe"),
            (distributed.detect_large_parts, "construct.detect"),
            (shortcut_mst.node_crossing_candidates, "consumer.candidates"),
        ):
            patches.function(original, spanned(tracer, name, original))
        # The class stays a class everywhere else (isinstance checks); only
        # the consumer's per-phase construction call is wrapped.
        patches.attribute(shortcut_mst, "Partition",
                       lambda cls: spanned(tracer, "consumer.partition", cls))
        yield tracer
    finally:
        patches.restore()


# ----------------------------------------------------------------------
# per-layer metrics of one traced pass
# ----------------------------------------------------------------------
#: Direct ``Network.run`` children of the ``construct`` span, by algorithm
#: class (probe and detection runs sit under their own stage spans).
CONSTRUCT_STAGE_OF_ALGO = {
    "DistributedBFS": "number",
    "PipelinedNumbering": "number",
    "ConcurrentMaskedBFS": "fleet",
    "PartwiseFlagConvergecast": "verify",
}


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer totals of one pass, plus the bulk-capable runs declined."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in tracer.spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
    by_id = {s.id: s for s in tracer.spans}
    runs = [s for s in tracer.spans if s.name == "network.run"]
    paths = {"bulk": 0, "pernode": 0, "adversarial": 0}
    pernode_s = adversarial_s = 0.0
    declined: list[str] = []
    stage_s = {stage: 0.0 for stage in ("number", "fleet", "verify")}
    for s in runs:
        path = s.attrs["path"]
        paths[path] += 1
        if path == "pernode":
            pernode_s += s.duration
            if s.attrs["bulk_capable"]:
                declined.append(s.attrs["algo"])
        elif path == "adversarial":
            adversarial_s += s.duration
        parent = by_id.get(s.parent)
        if parent is not None and parent.name == "construct":
            stage = CONSTRUCT_STAGE_OF_ALGO.get(s.attrs["algo"])
            if stage is not None:
                stage_s[stage] += s.duration
    flush_calls, flush_s = tracer.counted.get("reliable.flush", (0, 0.0))
    round_calls, round_s = tracer.counted.get("bulk.round", (0, 0.0))
    roots = [s for s in tracer.spans if s.parent is None]
    wall = sum(s.duration for s in roots)
    consumer_self = sum(s.self_time for s in tracer.spans if s.name == "consumer")
    metrics = {
        "graphs.generate_s": total.get("graphs.generate", 0.0),
        "graphs.csr_s": total.get("graphs.csr", 0.0),
        "network.wire_s": total.get("network.wire", 0.0),
        "network.wire_calls": calls.get("network.wire", 0),
        "network.runs_bulk": paths["bulk"],
        "network.runs_pernode": paths["pernode"],
        "network.runs_adversarial": paths["adversarial"],
        "network.pernode_s": pernode_s,
        "network.bulk_declined": len(declined),
        "network.adversarial_s": adversarial_s,
        "network.messages_sent": sum(s.attrs.get("sent", 0) for s in runs),
        "bulk.kernel_build_s": total.get("bulk.kernel_build", 0.0),
        "bulk.round_s": round_s,
        "bulk.event_rounds": round_calls,
        "adversary.dropped": sum(s.attrs.get("dropped", 0) for s in runs),
        "reliable.flush_calls": flush_calls,
        "reliable.flush_s": flush_s,
        "aggregation.masks_s": total.get("aggregation.masks", 0.0),
        "aggregation.init_s": total.get("aggregation.init", 0.0),
        "aggregation.instances": sum(s.attrs["instances"] for s in tracer.spans
                                     if s.name == "aggregation.init"),
        "fleet.init_s": total.get("fleet.init", 0.0),
        "shortcuts.sample_s": total.get("shortcuts.sample", 0.0),
        "shortcuts.quality_s": total.get("shortcuts.quality", 0.0),
        "construct.probe_s": total.get("construct.probe", 0.0),
        "construct.detect_s": total.get("construct.detect", 0.0),
        "construct.number_s": stage_s["number"],
        "construct.fleet_s": stage_s["fleet"],
        "construct.verify_s": stage_s["verify"],
        "consumer.candidates_s": total.get("consumer.candidates", 0.0),
        "consumer.partition_s": total.get("consumer.partition", 0.0),
        "consumer.self_s": consumer_self,
        "oracle.check_s": total.get("oracle.check", 0.0),
        "trace.e2e_s": wall,
        "other_s": sum(s.self_time for s in roots),
    }
    return metrics, declined


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(p[key] for p in passes) for key in passes[0]}
