"""scripts/run_table2.py end to end: the CSV it writes and the table it prints."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pbelect
from pbelect.harness import default_experiment_config, run_experiment, write_results_csv

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_table2.py"


def run_script(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(pbelect.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def test_writes_the_study_csv_and_one_table_row_per_count(tmp_path):
    proc = run_script("--counts", "5", "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    config = default_experiment_config(0, (5,))
    result = run_experiment(config)
    expected = write_results_csv(result, tmp_path / "expected.csv")
    assert (tmp_path / "out" / "results.csv").read_bytes() == expected.read_bytes()
    header, *rows = proc.stdout.split("\n\n")[0].splitlines()
    columns = [(case.name, rule) for case in config.cases for rule in case.rules]
    assert header.split() == ["trials"] + [f"{case}/{rule}" for case, rule in columns]
    assert [row.split() for row in rows] == [
        ["5"] + [str(result.probability(case, rule, 5)) for case, rule in columns]
    ]


@pytest.mark.parametrize(
    "args, message",
    [
        (("--counts", "5", "--workers", "0"), "workers must be a positive integer"),
        (("--counts", "0"), "every trial count must be a positive integer"),
        (("--counts", "5", "5"), "trial_counts repeats a value"),
    ],
    ids=["workers-zero", "count-zero", "count-repeated"],
)
def test_invalid_arguments_are_usage_errors(args, message, tmp_path):
    proc = run_script(*args, "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert f"error: {message}" in proc.stderr.splitlines()[-1]
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()
