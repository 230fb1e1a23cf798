"""Unit tests for the parameter formulas of the paper."""

from __future__ import annotations

import math

import pytest

from repro.params import (
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
from repro.graphs import path_graph
from repro.shortcuts import resolve_parameters


class TestKdValue:
    def test_diameter_two_is_one(self):
        assert k_d_value(10_000, 2) == 1.0

    def test_diameter_three_is_fourth_root(self):
        assert k_d_value(10_000, 3) == pytest.approx(10_000 ** 0.25)

    def test_diameter_four_is_cube_root(self):
        assert k_d_value(1_000_000, 4) == pytest.approx(1_000_000 ** (1 / 3))

    def test_approaches_sqrt_for_large_diameter(self):
        n = 10_000
        assert k_d_value(n, 1000) == pytest.approx(math.sqrt(n), rel=0.05)

    def test_monotone_in_diameter(self):
        n = 50_000
        values = [k_d_value(n, d) for d in range(2, 12)]
        assert values == sorted(values)

    def test_monotone_in_n(self):
        values = [k_d_value(n, 6) for n in (100, 1_000, 10_000)]
        assert values == sorted(values)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            k_d_value(0, 4)
        with pytest.raises(ValueError):
            k_d_value(100, 1)


class TestDerivedParameters:
    def test_num_large_parts(self):
        n = 1000
        assert num_large_parts(n, 4) == math.ceil(n / k_d_value(n, 4))

    def test_detection_depth_is_ceil_k_d(self):
        for n, d in ((500, 6), (100, 4), (10_000, 2)):
            params = resolve_parameters(path_graph(n), diameter_value=d)
            assert params.detection_depth == max(1, math.ceil(k_d_value(n, d)))

    def test_sampling_probability_clamped(self):
        # For small n the paper's p exceeds 1 and must be clamped.
        assert sampling_probability(100, 6) == 1.0

    def test_sampling_probability_in_range(self):
        for n in (100, 10_000, 10_000_000):
            for d in (3, 4, 6, 8):
                p = sampling_probability(n, d)
                assert 0.0 < p <= 1.0

    def test_sampling_probability_decreases_in_n(self):
        # Once out of the clamped regime, p ~ log(n) * n^(-1/(D-1)) decreases.
        p_large = sampling_probability(10 ** 9, 4)
        p_larger = sampling_probability(10 ** 12, 4)
        assert p_larger < p_large < 1.0


class TestPredictedBounds:
    def test_quality_equals_dilation_prediction(self):
        assert predicted_quality(1000, 6) == predicted_dilation(1000, 6)

    def test_congestion_is_d_times_quality(self):
        n, d = 2000, 6
        assert predicted_congestion(n, d) == pytest.approx(d * predicted_quality(n, d))

    def test_elkin_lower_bound_is_k_d(self):
        assert elkin_lower_bound(5000, 8) == k_d_value(5000, 8)

    def test_gh_quality(self):
        assert ghaffari_haeupler_quality(10_000, 6) == pytest.approx(100 + 6)

    def test_kp_beats_gh_asymptotically(self):
        # For D = 6 the KP prediction k_D log n grows as n^0.4 log n which is
        # eventually far below sqrt(n) (the crossover is around n ~ 10^16).
        n = 10 ** 18
        assert predicted_quality(n, 6) < ghaffari_haeupler_quality(n, 6)

    def test_distributed_rounds_larger_than_quality(self):
        n, d = 5000, 6
        assert predicted_rounds_distributed(n, d) >= predicted_quality(n, d)
