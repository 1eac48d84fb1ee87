#!/usr/bin/env python3
"""Run the full satisfaction-probability study and print the summary table.

Writes results.csv plus one plot CSV per case to --out-dir and prints a
pivoted table: one row per trial count, one column per (case, rule).
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from pbelect.core import ValidationError
from pbelect.harness import (
    PAPER_TRIAL_COUNTS,
    default_experiment_config,
    emit_plot_data,
    run_experiment,
    write_results_csv,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/table2", help="directory for CSV outputs")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--workers", type=int, default=None, help="parallel worker processes (N >= 1)")
    parser.add_argument(
        "--counts", type=int, nargs="+", default=PAPER_TRIAL_COUNTS,
        help="trial counts (default: 100 300 500 1000 3000 5000)",
    )
    args = parser.parse_args()

    started = time.monotonic()
    try:
        config = default_experiment_config(args.seed, tuple(args.counts))
        result = run_experiment(config, workers=args.workers)
    except ValidationError as exc:
        parser.error(str(exc))
    elapsed = time.monotonic() - started

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(result, out_dir / "results.csv")
    emit_plot_data(result, out_dir)

    columns = [(case.name, rule) for case in config.cases for rule in case.rules]
    header = ["trials"] + [f"{case}/{rule}" for case, rule in columns]
    widths = [max(8, len(h) + 2) for h in header]
    print("".join(h.rjust(w) for h, w in zip(header, widths)))
    for count in sorted(config.trial_counts):
        cells = [str(count)] + [
            str(result.probability(case, rule, count)) for case, rule in columns
        ]
        print("".join(c.rjust(w) for c, w in zip(cells, widths)))
    print(f"\nseed {config.master_seed}, {elapsed:.1f}s; CSVs in {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
