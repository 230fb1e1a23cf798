"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.applications.shortcut_mst import CONSUMER_ENGINES
from repro.cli import ENGINES, build_parser, main
from repro.io import load_json
from repro.shortcuts import Shortcut


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_engine_choices(self):
        args = build_parser().parse_args(["shortcut", "--engine", "naive"])
        assert args.engine == "naive"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shortcut", "--engine", "bogus"])


class TestInfoCommand:
    def test_prints_parameters(self, capsys):
        assert main(["info", "--n", "1000", "-D", "6"]) == 0
        out = capsys.readouterr().out
        assert "k_D" in out
        assert "Elkin lower bound" in out
        assert "1000" in out


class TestShortcutCommand:
    def test_kogan_parter_run(self, capsys):
        code = main([
            "shortcut", "--n", "150", "-D", "6", "--workload", "lower_bound",
            "--engine", "kogan-parter", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "congestion" in out and "dilation" in out and "quality" in out

    def test_prints_sampled_parts(self, capsys):
        # Hub workload, seed 1: one of 12 path parts is longer than
        # ceil(k_D) = 11 hops from its leader.
        assert main(["shortcut", "--workload", "hub", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "sampled parts   : 1 / 12 (radius > ⌈k_D⌉ = 11)" in out
        assert main(["shortcut", "--workload", "hub", "--seed", "1",
                     "--engine", "naive"]) == 0
        assert "sampled parts" not in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_engine_runs(self, engine, capsys):
        code = main([
            "shortcut", "--n", "120", "-D", "4", "--workload", "lower_bound",
            "--engine", engine, "--seed", "1",
        ])
        assert code == 0

    def test_save_writes_loadable_shortcut(self, tmp_path, capsys):
        out_file = tmp_path / "sc.json"
        code = main([
            "shortcut", "--n", "120", "-D", "4", "--workload", "lower_bound",
            "--seed", "1", "--save", str(out_file),
        ])
        assert code == 0
        loaded = load_json(out_file)
        assert isinstance(loaded, Shortcut)
        assert loaded.num_parts > 0

    def test_save_round_trip_preserves_edges(self, tmp_path, capsys):
        # Full fidelity round trip: the reloaded shortcut has exactly the
        # per-part edge sets the saved one had.
        from repro.analysis.experiments import make_workload
        from repro.shortcuts import build_kogan_parter_shortcut

        out_file = tmp_path / "sc.json"
        code = main([
            "shortcut", "--n", "120", "-D", "4", "--workload", "lower_bound",
            "--seed", "1", "--save", str(out_file),
        ])
        assert code == 0
        loaded = load_json(out_file)
        workload = make_workload("lower_bound", 120, 4, seed=1)
        expected = build_kogan_parter_shortcut(
            workload.graph, workload.partition, diameter_value=workload.diameter,
            log_factor=0.25, rng=1,
        ).shortcut
        assert loaded.num_parts == expected.num_parts
        for i in range(expected.num_parts):
            assert loaded.subgraph_edges(i) == expected.subgraph_edges(i)

    def test_quality_report_is_seed_deterministic(self, capsys):
        # Regression: the default (non-exact) dilation measurement was once
        # unseeded, so the printed dilation/quality could vary across
        # same-seed runs; it is now the deterministic double sweep.
        args = ["shortcut", "--n", "150", "-D", "6", "--workload", "lower_bound",
                "--seed", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_distributed_engine_reports_rounds(self, capsys):
        code = main([
            "shortcut", "--n", "100", "-D", "4", "--workload", "lower_bound",
            "--engine", "distributed", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "total rounds" in out
        assert "rounds[concurrent_bfs]" in out
        assert "attempted guesses: [4]" in out
        assert "fleet congestion:" in out

    def test_distributed_engine_unknown_diameter(self, tmp_path, capsys):
        out_file = tmp_path / "sc.json"
        code = main([
            "shortcut", "--n", "100", "-D", "4", "--workload", "lower_bound",
            "--engine", "distributed", "--unknown-diameter", "--seed", "2",
            "--save", str(out_file),
        ])
        assert code == 0
        loaded = load_json(out_file)
        assert isinstance(loaded, Shortcut)


class TestMSTCommand:
    def test_mst_run_reports_match(self, capsys):
        code = main(["mst", "--n", "120", "-D", "6", "--workload", "hub", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "weights match   : True" in out
        assert "simulated rounds" in out

    def test_default_engine_is_seed_deterministic(self, capsys):
        # Same-seed runs print the same simulated rounds: every random draw
        # of the consumer comes from --seed.
        args = ["mst", "--n", "150", "-D", "6", "--workload", "hub", "--seed", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestExperimentsCommand:
    def test_single_experiment(self, capsys):
        code = main(["experiments", "--experiment", "E11"])
        assert code == 0
        out = capsys.readouterr().out
        assert "E11" in out
        assert "repetitions" in out

    def test_single_experiment_honours_seed(self, capsys):
        # Regression: the single-experiment path used to drop --seed and run
        # with the runner's internal default.
        assert main(["experiments", "--experiment", "E2", "--seed", "5"]) == 0
        assert "seed=5" in capsys.readouterr().out
        assert main(["experiments", "--experiment", "E2", "--seed", "6"]) == 0
        assert "seed=6" in capsys.readouterr().out

    def test_help_lists_experiments_in_numeric_order(self, capsys):
        # Regression: sorted() listed the choices as E1,E10,E11,...,E2.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "--help"])
        ids = ",".join(f"E{i}" for i in range(1, 16))
        assert "{" + ids + "}" in capsys.readouterr().out

    def test_workers_flag_accepted(self):
        args = build_parser().parse_args(["experiments", "--workers", "4"])
        assert args.workers == 4
        assert build_parser().parse_args(["experiments"]).workers == 1

    def test_single_experiment_runs_at_the_chosen_tier(self, capsys):
        # E11 samples one lower-bound instance: n=200 at the fast tier, its
        # planner's default n=400 under --full.  The n column prints the
        # instance's actual vertex count.
        from repro.graphs.lower_bound import lower_bound_instance

        def printed_n(argv):
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            return {line.split()[0] for line in lines if line[:1].isdigit()}

        for argv, n in (([], 200), (["--full"], 400)):
            expected = str(lower_bound_instance(n, 6).graph.num_vertices)
            assert printed_n(["experiments", "--experiment", "E11", *argv]) == {expected}

    def test_single_experiment_parallel_output_matches_serial(self, capsys):
        assert main(["experiments", "--experiment", "E12", "--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["experiments", "--experiment", "E12", "--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        assert "E12" in serial_out


class TestUnknownDiameterFlag:
    def test_rejected_for_non_distributed_engines(self, capsys):
        code = main([
            "shortcut", "--n", "100", "-D", "4", "--engine", "kogan-parter",
            "--unknown-diameter",
        ])
        assert code == 2
        assert "--engine distributed" in capsys.readouterr().err


class TestMSTEngines:
    @pytest.mark.parametrize("engine", CONSUMER_ENGINES)
    def test_simulated_engines_report_match(self, engine, capsys):
        code = main([
            "mst", "--n", "100", "-D", "6", "--workload", "hub",
            "--engine", engine, "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"engine          : {engine}" in out
        assert "weights match   : True" in out
        assert "simulated rounds" in out

    def test_shortcut_engine_is_default(self, capsys):
        code = main(["mst", "--n", "100", "-D", "6", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine          : shortcut" in out
        assert "simulated rounds" in out

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mst", "--engine", "warp"])


class TestComponentsCommand:
    def test_reports_matching_labels(self, capsys):
        code = main([
            "components", "--n", "60", "--pieces", "3", "--family", "torus",
            "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "components      : 3" in out
        assert "labels match    : True" in out
        assert "simulated rounds" in out

    def test_raw_engine(self, capsys):
        code = main([
            "components", "--n", "50", "--pieces", "2", "--family", "expander",
            "--engine", "raw", "--seed", "4",
        ])
        assert code == 0
        assert "labels match    : True" in capsys.readouterr().out

    def test_pieces_validated(self, capsys):
        assert main(["components", "--pieces", "0"]) == 2
        assert "--pieces" in capsys.readouterr().err


class TestGenerateCommand:
    def test_prints_stats(self, capsys):
        code = main(["generate", "--family", "broom", "--n", "80", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "family          : broom" in out
        assert "connected       : True" in out

    def test_save_round_trips(self, tmp_path, capsys):
        out_file = tmp_path / "torus.json"
        code = main([
            "generate", "--family", "torus", "--n", "60", "--seed", "1",
            "--save", str(out_file),
        ])
        assert code == 0
        from repro.graphs.graph import Graph

        loaded = load_json(out_file)
        assert isinstance(loaded, Graph)
        assert all(loaded.degree(v) == 4 for v in loaded.vertices())

    def test_weighted_save(self, tmp_path, capsys):
        out_file = tmp_path / "wg.json"
        code = main([
            "generate", "--family", "expander", "--n", "40", "--seed", "2",
            "--weighted", "--save", str(out_file),
        ])
        assert code == 0
        from repro.graphs.graph import WeightedGraph

        assert isinstance(load_json(out_file), WeightedGraph)

    def test_family_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--n", "50"])


@pytest.mark.faults
class TestFaultFlags:
    def test_mst_exact_under_drops(self, capsys):
        code = main([
            "mst", "--engine", "shortcut", "--n", "80", "--seed", "3",
            "--drop-rate", "0.05", "--adversary-seed", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault model     : drop_rate=0.05, crashes=0" in out
        assert "weights match   : True" in out

    def test_components_exact_under_drops(self, capsys):
        code = main([
            "components", "--n", "40", "--pieces", "2", "--seed", "3",
            "--drop-rate", "0.05", "--adversary-seed", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "labels match    : True" in out

    def test_shortcut_survival_projection(self, capsys):
        args = [
            "shortcut", "--n", "150", "--seed", "2",
            "--drop-rate", "0.2", "--crash", "2", "--adversary-seed", "9",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "edges lost" in first and "surv congestion" in first
        lost = int(first.split("edges lost      : ")[1].split(" /")[0])
        assert lost > 0
        # The projection is seed-deterministic.
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_clean_run_prints_no_fault_lines(self, capsys):
        assert main(["mst", "--engine", "shortcut", "--n", "60", "--seed", "3"]) == 0
        assert "fault model" not in capsys.readouterr().out
