"""Running the Table 2 study end to end with ``pbelect experiment``: the CSV it
writes, the table it prints, and the arguments it refuses."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pbelect
from pbelect.harness import (
    default_experiment_config,
    experiment_config_to_dict,
    run_experiment,
    write_results_csv,
)


def run_experiment_command(tmp_path: Path, config: dict | None, *args: str) -> subprocess.CompletedProcess:
    """``python -m pbelect experiment`` in a fresh process, with ``config``
    written to a JSON file and passed as ``--config`` when given."""
    if config is not None:
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(config))
        args = ("--config", str(path), *args)
    src = str(Path(pbelect.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "pbelect", "experiment", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )


def test_writes_the_study_csv_and_one_table_row_per_count(tmp_path):
    config = default_experiment_config(0, (5,))
    proc = run_experiment_command(
        tmp_path, experiment_config_to_dict(config), "--out-dir", str(tmp_path / "out")
    )
    assert proc.returncode == 0, proc.stderr
    rows = run_experiment(config)
    expected = write_results_csv(rows, tmp_path / "expected.csv")
    assert (tmp_path / "out" / "results.csv").read_bytes() == expected.read_bytes()
    header, *lines = proc.stdout.split("\n\n")[1].splitlines()
    columns = [(case.name, rule) for case in config.cases for rule in case.rules]
    assert header.split() == ["trials"] + [f"{case}/{rule}" for case, rule in columns]
    assert [line.split() for line in lines] == [["5"] + [row.probability_pct for row in rows]]
    assert [(row.case, row.rule) for row in rows] == columns


@pytest.mark.parametrize(
    "changes, args, message",
    [
        ({}, ("--workers", "0"), "workers must be a positive integer"),
        ({"trial_counts": [0]}, (), "every trial count must be a positive integer"),
        ({"trial_counts": [5, 5]}, (), "trial_counts repeats a value"),
        ({"trial_counts": [2], "cases": []}, (), "at least one case is required"),
    ],
    ids=["workers-zero", "count-zero", "count-repeated", "no-cases"],
)
def test_invalid_arguments_are_usage_errors(changes, args, message, tmp_path):
    config = experiment_config_to_dict(default_experiment_config(0, (5,)))
    config.update(changes)
    proc = run_experiment_command(tmp_path, config, *args, "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: invalid-input: {message}")
    assert not (tmp_path / "out").exists()
