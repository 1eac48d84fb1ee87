"""scripts/bench.py: the pair comparison it writes into BENCH_*.json."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def test_compare_counts_wins_and_applies_the_claim_rule():
    base, head = [10.0, 12.0, 11.0, 13.0], [14.0, 15.0, 11.0, 17.0]
    higher = bench.compare(base, head, "higher", 0.25)
    assert higher["head_wins"] == 3  # the tie counts for neither side
    assert higher["base_quartiles"] == [10.75, 11.5, 12.25]
    assert higher["head_quartiles"] == [13.25, 14.5, 15.5]
    assert not higher["gain_claimable"]  # 3 of 4 pairs is under nine tenths
    assert not higher["worse_beyond_bound"] and not higher["unresolved"]
    lower = bench.compare(base, head, "lower", 0.25)
    assert lower["head_wins"] == 0 and lower["worse_beyond_bound"]
    assert bench.compare(base, [b + 2 for b in base], "higher", None)["gain_claimable"]
    assert "worse_beyond_bound" not in bench.compare(base, head, "higher", None)


def test_compare_marks_a_spread_wider_than_the_bound_unresolved():
    base = [10.0, 20.0, 30.0, 40.0]
    assert bench.compare(base, [15.0, 19.0, 31.0, 35.0], "higher", 0.25)["unresolved"]
    assert not bench.compare(base, [41.0, 42.0, 43.0, 44.0], "higher", 0.25)["unresolved"]


def test_summarize_pairs_runs_by_seed_per_side():
    spec = {
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "t", "better": "higher", "bound": 0.25}],
        "per_layer": [{"name": "busy", "better": "lower"}],
    }

    def run(side, seed, trace, name, value):
        result = {"metrics": {name: {"value": value}}}
        return {"workload": "w", "side": side, "seed": seed, "trace": trace, "result": result}

    runs = [
        run("head", 1, 0, "t", 5.0), run("base", 1, 0, "t", 4.0),
        run("base", 0, 0, "t", 1.0), run("head", 0, 0, "t", 3.0),
        run("base", 0, 1, "busy", 2.0), run("head", 0, 1, "busy", 1.0),
    ]
    summary = bench.summarize(runs, spec)["w"]
    assert (summary["t"]["base"], summary["t"]["head"]) == ([1.0, 4.0], [3.0, 5.0])
    assert summary["t"]["head_wins"] == 2
    assert summary["busy"]["head_wins"] == 1 and "bound" not in summary["busy"]


def test_pairs_name_known_workloads():
    assert bench.parse_pairs(["a=3"], ["a", "b"]) == {"a": 3, "b": 0}
    for bad in ("c=1", "a=x", "a"):
        with pytest.raises(SystemExit):
            bench.parse_pairs([bad], ["a", "b"])


def test_tier1_runs_the_suite_once_in_the_tree(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_one.py").write_text("def test_one():\n    pass\n")
    tier1 = bench.run_tier1(tmp_path)
    assert tier1["exit_code"] == 0
    assert tier1["summary"].startswith("1 passed in ")
    assert tier1["wall_s"] > 0
