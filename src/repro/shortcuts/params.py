"""Parameter formulas (re-exported from :mod:`repro.params`).

Kept as a submodule of :mod:`repro.shortcuts` so that code working with the
shortcut API can import every shortcut-related name from one package; the
definitions live in :mod:`repro.params` to keep the dependency graph acyclic
(the graph generators also need ``k_D``).
"""

from ..params import (
    elkin_lower_bound,
    ghaffari_haeupler_quality,
    k_d_value,
    num_large_parts,
    predicted_congestion,
    predicted_dilation,
    predicted_quality,
    predicted_rounds_distributed,
    sampling_probability,
)

__all__ = [
    "elkin_lower_bound",
    "ghaffari_haeupler_quality",
    "k_d_value",
    "num_large_parts",
    "predicted_congestion",
    "predicted_dilation",
    "predicted_quality",
    "predicted_rounds_distributed",
    "sampling_probability",
]
