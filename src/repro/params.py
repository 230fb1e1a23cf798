"""Parameter formulas from the paper.

This module collects the closed-form quantities that appear throughout the
paper so that every component (generators, constructions, experiments,
tests) uses the exact same definitions:

* ``k_D = n^((D-2)/(2D-2))`` — the target shortcut quality for diameter-D
  graphs (Theorem 1.1) and simultaneously the lower-bound exponent of
  Elkin / Das-Sarma et al.;
* ``N = ceil(n / k_D)`` — the maximum number of *large* parts;
* ``p = min(1, k_D * log(n) / N)`` — the per-repetition edge sampling
  probability of Step (2) of the centralized construction;
* predicted congestion ``O(D * k_D * log n)`` and dilation
  ``O(k_D * log n)`` bounds used for normalisation in the experiments.

All logarithms are natural logarithms; the paper's ``log n`` factors are
asymptotic so the base only shifts constants, and using ``math.log``
consistently keeps measured/predicted ratios comparable across experiments.
"""

from __future__ import annotations

import math


def k_d_value(n: int, diameter: int) -> float:
    """Return ``k_D = n^((D-2)/(2D-2))`` for an n-vertex diameter-D graph.

    For ``D = 2`` the exponent is 0 and ``k_D = 1`` (matching the known
    O(log n) MST algorithms for diameter-2 graphs); the exponent approaches
    1/2 as D grows, recovering the general O(sqrt(n)) bound.

    Raises:
        ValueError: if ``n < 1`` or ``diameter < 2``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if diameter < 2:
        raise ValueError("k_D is defined for diameter >= 2")
    exponent = (diameter - 2) / (2 * diameter - 2)
    return float(n) ** exponent


def num_large_parts(n: int, diameter: int) -> int:
    """Return ``N = ceil(n / k_D)``, the maximum number of large parts."""
    return math.ceil(n / k_d_value(n, diameter))


def sampling_probability(n: int, diameter: int) -> float:
    """Return the per-repetition edge sampling probability of Step (2).

    The paper sets ``p = k_D * log(n) / N``; since ``N ~ n / k_D`` this is
    roughly ``k_D^2 * log(n) / n = log(n) * n^(-1/(D-1))``.  For the modest
    ``n`` reachable in simulation the expression can exceed 1, in which case
    it is clamped (the construction then adds every edge, which only helps
    the dilation and is accounted for in the congestion measurements).
    """
    n_large = num_large_parts(n, diameter)
    p = k_d_value(n, diameter) * math.log(max(n, 2)) / max(n_large, 1)
    return min(1.0, p)


def predicted_quality(n: int, diameter: int) -> float:
    """Return the predicted shortcut quality ``k_D * log n`` (Theorem 1.1)."""
    return k_d_value(n, diameter) * math.log(max(n, 2))


def predicted_congestion(n: int, diameter: int) -> float:
    """Return the predicted congestion bound ``D * k_D * log n`` (Section 2)."""
    return diameter * k_d_value(n, diameter) * math.log(max(n, 2))


def predicted_dilation(n: int, diameter: int) -> float:
    """Return the predicted dilation bound ``k_D * log n`` (Theorem 3.1)."""
    return k_d_value(n, diameter) * math.log(max(n, 2))


def ghaffari_haeupler_quality(n: int, diameter: int) -> float:
    """Return the general-graph shortcut quality ``sqrt(n) + D`` (GH16)."""
    return math.sqrt(n) + diameter


def elkin_lower_bound(n: int, diameter: int) -> float:
    """Return the Elkin / Das-Sarma lower bound ``n^((D-2)/(2D-2))``.

    This equals :func:`k_d_value`; it is exposed under a separate name so
    that experiment tables can reference "the lower bound curve" explicitly.
    """
    return k_d_value(n, diameter)


def predicted_rounds_distributed(n: int, diameter: int) -> float:
    """Return the predicted CONGEST round count ``k_D * log^2 n`` for the
    distributed shortcut construction (Section 2, distributed implementation)."""
    return k_d_value(n, diameter) * math.log(max(n, 2)) ** 2
