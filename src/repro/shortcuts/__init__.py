"""Low-congestion shortcuts: the paper's core contribution.

Public surface:

* :class:`Partition` — vertex-disjoint connected parts of a graph;
* :class:`Shortcut` / :class:`QualityReport` — the ``{H_i}`` collection and
  its congestion / dilation / quality measurements;
* :func:`build_kogan_parter_shortcut` — the centralized sampling
  construction of the paper (Theorem 1.1);
* :func:`build_distributed_kogan_parter` — the CONGEST implementation with
  measured round counts;
* baselines (:func:`build_ghaffari_haeupler_shortcut`,
  :func:`build_kitamura_style_shortcut`, :func:`build_naive_shortcut`,
  :func:`build_empty_shortcut`);
* :class:`ShortcutTree` — the dilation-analysis machinery of Section 3.1;
* :func:`verify_shortcut` — structural and quality verification;
* the parameter formulas ``k_D``, ``N``, ``p`` and the predicted bounds.
"""

from .baselines import (
    build_empty_shortcut,
    build_ghaffari_haeupler_shortcut,
    build_kitamura_style_shortcut,
    build_naive_shortcut,
)
from .distributed import (
    DistributedShortcutResult,
    build_distributed_kogan_parter,
    detect_large_parts,
    geometric_guesses,
    measure_diameter_probe,
)
from .kogan_parter import (
    KoganParterParameters,
    KoganParterResult,
    build_kogan_parter_shortcut,
    resolve_parameters,
)
from .odd_diameter import (
    OddDiameterResult,
    SubdividedGraph,
    build_odd_diameter_shortcut,
    subdivide_graph,
)
from .params import (
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
from .partition import Partition
from .shortcut import QualityReport, Shortcut
from .shortcut_trees import ROOT, SampledTreeAnalysis, ShortcutTree
from .verification import VerificationResult, is_valid_shortcut, verify_shortcut

__all__ = [
    "Partition",
    "Shortcut",
    "QualityReport",
    "KoganParterParameters",
    "KoganParterResult",
    "build_kogan_parter_shortcut",
    "resolve_parameters",
    "DistributedShortcutResult",
    "build_distributed_kogan_parter",
    "detect_large_parts",
    "geometric_guesses",
    "measure_diameter_probe",
    "OddDiameterResult",
    "SubdividedGraph",
    "build_odd_diameter_shortcut",
    "subdivide_graph",
    "build_empty_shortcut",
    "build_ghaffari_haeupler_shortcut",
    "build_kitamura_style_shortcut",
    "build_naive_shortcut",
    "ShortcutTree",
    "SampledTreeAnalysis",
    "ROOT",
    "VerificationResult",
    "is_valid_shortcut",
    "verify_shortcut",
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
