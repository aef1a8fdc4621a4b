"""Tests for the experiment registry and CLI runner (cheap exhibits only)."""

import pytest

from repro.experiments import SPECS, experiment_ids, run_experiment
from repro.experiments.runner import main as runner_main


EXPECTED_IDS = {
    # every table and figure of the paper's evaluation + ablations
    "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
    "fig7", "fig8", "fig9", "fig11", "fig12", "fig13", "table3", "table4",
    "fig14", "fig15", "table5", "ces_sweep",
    "ablation_lambda", "ablation_forecaster", "ablation_buffer",
    "ablation_oracle",
    "serve_smoke", "serve_replay", "serve_chaos", "serve_frontdoor",
}


class TestRegistry:
    def test_every_exhibit_registered(self):
        assert set(experiment_ids()) == EXPECTED_IDS

    def test_all_callables(self):
        assert all(callable(spec.fn) for spec in SPECS.values())

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")

    def test_table1_payload(self):
        payload = run_experiment("table1")
        assert "text" in payload
        assert payload["table"]["paper_gpus"].sum() == 6416


class TestRunner:
    def test_list_mode(self, capsys):
        assert runner_main([]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig14" in out

    def test_list_flag(self, capsys):
        assert runner_main(["--list"]) == 0
        assert "serve_smoke" in capsys.readouterr().out

    def test_list_json_machine_readable(self, capsys):
        import json

        assert runner_main(["--list", "--json"]) == 0
        registry = json.loads(capsys.readouterr().out)
        by_id = {e["id"]: e for e in registry["experiments"]}
        assert set(by_id) == EXPECTED_IDS
        entry = by_id["serve_smoke"]
        assert entry["cost"] == "medium" and entry["smoke"] is True
        assert "cluster_gpu_trace:Venus" in entry["inputs"]
        # precursors are the dependency closure, in warm order
        fig2 = by_id["fig2"]
        assert "cluster_trace:Earth" in fig2["precursors"]
        assert fig2["precursors"].index("cluster_trace:Earth") < fig2[
            "precursors"
        ].index("full_replay:Earth")

    def test_list_json_to_file(self, tmp_path):
        import json

        out = tmp_path / "registry.json"
        assert runner_main(["--list", "--json", str(out)]) == 0
        assert "experiments" in json.loads(out.read_text())

    def test_list_rejects_ids(self):
        with pytest.raises(SystemExit):
            runner_main(["--list", "table1"])

    def test_serve_smoke_spec_registered(self):
        from repro.experiments.common import compute_precursor, PRECURSOR_FNS
        from repro.experiments.registry import get_spec

        spec = get_spec("serve_smoke")
        assert spec.smoke and spec.cost == "medium"
        for token in spec.inputs:  # tokens must parse against known families
            assert token.partition(":")[0] in PRECURSOR_FNS
        assert callable(compute_precursor)

    def test_run_one(self, capsys):
        assert runner_main(["table1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out


class TestRunnerCLI:
    def test_cache_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert runner_main(["table1", "--cache-dir", cache_dir]) == 0
        assert "computed" in capsys.readouterr().out
        assert runner_main(["table1", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cached" in out and "Table 1" in out

    def test_force_recomputes(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        runner_main(["table1", "--cache-dir", cache_dir])
        runner_main(["table1", "--cache-dir", cache_dir, "--force", "-q"])
        assert "computed" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert (
            runner_main(
                ["table1", "--no-cache", "-q", "--json", str(report_path)]
            )
            == 0
        )
        import json

        report = json.loads(report_path.read_text())
        assert report["results"][0]["exp_id"] == "table1"
        assert report["results"][0]["status"] == "computed"
        assert report["jobs"] == 1

    def test_profile_selection(self):
        from repro.experiments.runner import _select_ids, build_parser
        from repro.experiments import experiment_ids, smoke_ids

        parser = build_parser()
        assert _select_ids(parser.parse_args(["--smoke"])) == smoke_ids()
        assert _select_ids(parser.parse_args(["all"])) == experiment_ids()
        assert _select_ids(parser.parse_args(["--full"])) == experiment_ids()
        assert _select_ids(parser.parse_args([])) is None
        assert _select_ids(parser.parse_args(["fig1", "fig1", "table1"])) == [
            "fig1",
            "table1",
        ]
