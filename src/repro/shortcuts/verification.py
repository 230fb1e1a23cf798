"""Structural verification of shortcuts.

The distributed construction (Section 2, "Omitting the assumption on
knowing D") needs to *verify* whether a candidate shortcut achieves a target
quality: the diameter guess is accepted only if every part's truncated BFS
tree spans the whole part within the allowed depth and no edge exceeded the
allowed congestion.  This module provides the same checks for library users
and for the test-suite:

* :func:`verify_shortcut` — full structural validation (edges exist, every
  part connected in its augmented subgraph) plus congestion/dilation bounds;
* :func:`is_valid_shortcut` — boolean convenience wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..graphs.traversal import INFINITY
from .shortcut import Shortcut


@dataclass
class VerificationResult:
    """Outcome of :func:`verify_shortcut`.

    Attributes:
        valid: ``True`` when every check passed.
        congestion: measured congestion.
        dilation: measured dilation.
        violations: human-readable descriptions of every failed check.
    """

    valid: bool
    congestion: int
    dilation: float
    violations: list[str] = field(default_factory=list)


def verify_shortcut(
    shortcut: Shortcut,
    *,
    max_congestion: Optional[float] = None,
    max_dilation: Optional[float] = None,
    exact_dilation: bool = True,
) -> VerificationResult:
    """Verify a shortcut structurally and, optionally, against quality bounds.

    Checks performed:

    1. every part is connected inside its augmented subgraph (otherwise the
       dilation is infinite and the shortcut is useless for aggregation);
    2. measured congestion does not exceed ``max_congestion`` (if given);
    3. measured dilation does not exceed ``max_dilation`` (if given).

    Args:
        shortcut: the shortcut to verify.
        max_congestion: optional congestion budget.
        max_dilation: optional dilation budget.
        exact_dilation: measure dilation exactly (pass ``False`` for the
            cheaper 2-approximation on large instances: the deterministic
            double sweep of :meth:`Shortcut.part_dilation`).

    Returns:
        A :class:`VerificationResult`; ``violations`` lists every failure.
    """
    violations: list[str] = []

    dilation = 0.0
    for i in range(shortcut.num_parts):
        part_dil = shortcut.part_dilation(i, exact=exact_dilation)
        if part_dil == INFINITY:
            violations.append(
                f"part {i} is disconnected inside its augmented subgraph"
            )
        dilation = max(dilation, part_dil)

    congestion = shortcut.congestion()

    if max_congestion is not None and congestion > max_congestion:
        violations.append(
            f"congestion {congestion} exceeds the allowed bound {max_congestion}"
        )
    if max_dilation is not None and dilation > max_dilation:
        violations.append(
            f"dilation {dilation} exceeds the allowed bound {max_dilation}"
        )

    return VerificationResult(
        valid=not violations,
        congestion=congestion,
        dilation=dilation,
        violations=violations,
    )


def is_valid_shortcut(
    shortcut: Shortcut,
    *,
    max_congestion: Optional[float] = None,
    max_dilation: Optional[float] = None,
    exact_dilation: bool = True,
) -> bool:
    """Return ``True`` if :func:`verify_shortcut` reports no violations.

    ``exact_dilation`` is forwarded to :func:`verify_shortcut`, so
    large-instance callers can opt into the cheap 2-approximation instead
    of the all-pairs measurement.
    """
    return verify_shortcut(
        shortcut,
        max_congestion=max_congestion,
        max_dilation=max_dilation,
        exact_dilation=exact_dilation,
    ).valid
