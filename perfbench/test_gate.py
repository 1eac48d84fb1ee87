"""Self-test of the benchmark's correctness gate: honest outputs pass, and a
changed probability, an infeasible budget and a forged witness are rejected.

    python3 -m pytest -q perfbench/test_gate.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
from pbelect import cli  # noqa: E402
from pbelect.culture import culture_config_from_dict  # noqa: E402
from pbelect.harness import (  # noqa: E402
    default_experiment_config,
    emit_plot_data,
    run_experiment,
    write_results_csv,
)

SMALL_CULTURE = {
    "n_range": [20, 40],
    "m_range": [5, 8],
    "cost_model": "uniform",
    "limit_model": "budget",
    "master_seed": 5,
}


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    config = default_experiment_config(3, trial_counts=(20, 50))
    out = tmp_path_factory.mktemp("study")
    result = run_experiment(config)
    write_results_csv(result, out / "results.csv")
    emit_plot_data(result, out)
    return config, out


def test_study_gate_accepts_honest_outputs(study):
    config, out = study
    reference = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in gate.study_files(out, config)}
    assert gate.study_problems(out, config, reference) == []


def test_study_gate_rejects_one_changed_probability(study, tmp_path):
    config, out = study
    for path in gate.study_files(out, config):
        shutil.copy(path, tmp_path / path.name)
    results = tmp_path / "results.csv"
    lines = results.read_text().splitlines()
    count, case, rule, pct, elapsed = lines[-1].split(",")
    satisfied = round(float(pct) * int(count) / 100)
    forged = gate._pct(satisfied - 1 if satisfied else 1, int(count))
    lines[-1] = ",".join((count, case, rule, forged, elapsed))
    results.write_text("\n".join(lines) + "\n")
    plot = tmp_path / f"plot_{case}.csv"
    plot.write_text(plot.read_text().replace(f"{count},{rule},{pct}\n", f"{count},{rule},{forged}\n"))
    problems = gate.study_problems(tmp_path, config)
    assert any("recomputation says" in p for p in problems), problems


def _run_cli_instance(tmp_path: Path, trial: int) -> tuple[dict, list[int]]:
    config = tmp_path / "culture.json"
    config.write_text(json.dumps(SMALL_CULTURE))
    f = {key: str(tmp_path / f"{key}-{trial}.json") for key in ("inst", "budget", "trace", "borda", "ujr", "sbjr")}
    commands = [
        ["gen", "--config", str(config), "--trial", str(trial), "--out", f["inst"]],
        ["run-rule", "--rule", "sccr", "--instance", f["inst"], "--out", f["budget"], "--trace", f["trace"]],
        ["run-rule", "--rule", "sccr", "--scoring", "borda", "--instance", f["inst"], "--out", f["borda"]],
        ["check-axiom", "--axiom", "ujr", "--instance", f["inst"], "--budget", f["budget"], "--out", f["ujr"]],
        ["check-axiom", "--axiom", "strong-bjr", "--instance", f["inst"], "--budget", f["borda"], "--out", f["sbjr"]],
    ]
    return f, [cli.main(argv) for argv in commands]


CULTURE = culture_config_from_dict(SMALL_CULTURE)


def test_cli_gate_accepts_honest_outputs(tmp_path):
    for trial in range(4):
        files, codes = _run_cli_instance(tmp_path, trial)
        assert gate.cli_instance_problems(files, CULTURE, trial, codes) == []


def test_cli_gate_rejects_infeasible_budget(tmp_path):
    files, codes = _run_cli_instance(tmp_path, 0)
    instance = json.loads(Path(files["inst"]).read_text())
    everything = [p["id"] for p in instance["projects"]]
    total = sum(p["cost"] for p in instance["projects"])
    assert total > instance["limit"]
    Path(files["budget"]).write_text(json.dumps({"selected": everything, "total_cost": total}))
    problems = gate.cli_instance_problems(files, CULTURE, 0, codes)
    assert any("sccr budget is infeasible" in p for p in problems), problems


def test_cli_gate_rejects_forged_witness(tmp_path):
    for trial in range(40):
        files, codes = _run_cli_instance(tmp_path, trial)
        if codes[3] == 3:
            break
    else:
        pytest.fail("no UJR violation among the first 40 small instances")
    report = json.loads(Path(files["ujr"]).read_text())
    instance = json.loads(Path(files["inst"]).read_text())
    report["witness"]["voters"] = list(range(len(instance["ballots"])))
    Path(files["ujr"]).write_text(json.dumps(report))
    problems = gate.cli_instance_problems(files, CULTURE, trial, codes)
    assert any("witness does not certify" in p for p in problems), problems
