"""Random start delays for concurrent sub-algorithms.

Theorem 2.1 of the paper (Ghaffari, PODC 2015 / [LMR99]) states that ``m``
distributed algorithms, each with dilation at most ``d`` and with total
per-edge congestion at most ``c``, can be scheduled together so that all of
them finish in ``O(c + d log n)`` rounds, by delaying the start of each
algorithm by a random amount drawn from a range of about ``c``.

The distributed shortcut construction relies on this to grow the ``N``
truncated BFS trees of the augmented subgraphs ``G[S_i] ∪ H_i``
simultaneously (:class:`~repro.congest.primitives.concurrent_bfs.
ConcurrentMaskedBFS`), and the part-wise aggregation staggers its
convergecasts the same way.  :func:`draw_random_delays` draws those start
delays from shared randomness, exactly as the paper assumes: the delays are
drawn once by the caller and given to every node, modelling the
``O(log^2 n)``-bit shared string.  :func:`mask_congestion` measures the
``c`` of a fleet of link masks, and both users draw their delays from
``[0, c - 1]``: the construction's stage-4 BFS fleet over the masks of the
augmented subgraphs, and the part-wise aggregation over its parts' masks
(no delay at all when no link is shared).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..graphs.csr import CSRLinkMask
from ..rng import RandomLike, ensure_rng


def draw_random_delays(
    num_algorithms: int,
    max_delay: int,
    rng: RandomLike = None,
) -> list[int]:
    """Draw one start delay per sub-algorithm, uniform in ``[0, max_delay]``.

    Theorem 2.1 asks for a range of about the congestion ``c`` of the
    scheduled algorithms; the callers pass ``max_delay = c - 1`` with ``c``
    from :func:`mask_congestion`.  Using a single shared random string for
    all delays matches the shared-randomness assumption of Theorem 2.1.
    """
    if num_algorithms < 0:
        raise ValueError("num_algorithms must be non-negative")
    if max_delay < 0:
        raise ValueError("max_delay must be non-negative")
    r = ensure_rng(rng)
    return [r.randint(0, max_delay) for _ in range(num_algorithms)]


def mask_congestion(masks: Sequence[CSRLinkMask]) -> int:
    """The congestion of a mask fleet: the most masks permitting one link.

    One ``np.bincount`` over the masks' directed link ids, so the cost is
    the total mask size plus the largest link id.  Masks with no permitted
    link give 0; masks that share no link (the bare trees of disjoint
    parts) give 1.
    """
    links = [mask.sender_slices()[3] for mask in masks]
    flat = np.concatenate(links) if links else np.empty(0, dtype=np.int64)
    return int(np.bincount(flat).max()) if len(flat) else 0
