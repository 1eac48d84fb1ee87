"""Correctness gate for the benchmark's workloads.

Each check returns a list of problems; an empty list means the outputs pass.
pbelect is imported inside the functions, so importing this module costs the
benchmark's set-up time nothing.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import replace
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

RESULTS_HEADER = "trial_count,case,rule,probability_pct,elapsed_ms"
PLOT_HEADER = "trial_count,rule,probability"
_PCT = re.compile(r"^\d{1,3}\.\d\d$")


def digest_files(paths) -> str:
    """sha256 over the files' names and bytes, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        path = Path(path)
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def study_files(out_dir, config) -> list[Path]:
    return [Path(out_dir) / "results.csv"] + [
        Path(out_dir) / f"plot_{case.name}.csv" for case in config.cases
    ]


def _pct(satisfied: int, count: int) -> str:
    return str((Decimal(100 * satisfied) / Decimal(count)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_EVEN
    ))


def _run_rule(instance, rule: str):
    from pbelect import rules

    if rule == "sccr":
        return rules.seq_chamberlin_courant(instance)[0]
    if rule == "smr":
        return rules.seq_monroe(instance)[0]
    if rule == "stv":
        return rules.stv(instance, rules.committee_size(instance))[0]
    raise ValueError(f"unknown rule {rule!r}")


def recompute_satisfied(config, trials: int) -> dict[tuple[str, str], list[int]]:
    """Prefix counts of satisfied trials per (case, rule), recomputed serially
    from the public generate / rule / check_axiom functions."""
    from pbelect.axioms import check_axiom
    from pbelect.culture import generate

    prefix: dict[tuple[str, str], list[int]] = {}
    for case in config.cases:
        culture = replace(case.culture, master_seed=config.master_seed)
        running = {rule: [0] for rule in case.rules}
        for trial in range(trials):
            instance = generate(culture, trial)
            for rule in case.rules:
                ok = check_axiom(instance, _run_rule(instance, rule), config.axiom).satisfied
                running[rule].append(running[rule][-1] + ok)
        for rule in case.rules:
            prefix[(case.name, rule)] = running[rule]
    return prefix


def study_problems(out_dir, config, reference: dict | None = None, recompute: int = 100) -> list[str]:
    """Check a study's results.csv and plot CSVs.

    Every row must be present in order with timing off, each probability must
    be k/count for an integer k, the counts must be consistent prefix sums,
    rows with trial_count <= ``recompute`` must equal a serial recomputation,
    the plot CSVs must be the per-case projection of results.csv, and with a
    ``reference`` ({file name: sha256}) every file must match it byte for byte.
    """
    problems: list[str] = []
    out_dir = Path(out_dir)
    try:
        lines = (out_dir / "results.csv").read_text().split("\n")
    except OSError as exc:
        return [f"results.csv unreadable: {exc}"]
    if lines[-1] != "":
        problems.append("results.csv does not end in a newline")
    lines = lines[:-1]
    if not lines or lines[0] != RESULTS_HEADER:
        return problems + ["results.csv header differs"]
    counts = sorted(config.trial_counts)
    expected = [(c, case.name, rule) for c in counts for case in config.cases for rule in case.rules]
    rows = [line.split(",") for line in lines[1:]]
    if [tuple(r[:3]) for r in rows] != [(str(c), n, r) for c, n, r in expected]:
        return problems + ["results.csv rows differ from the configured (count, case, rule) grid"]
    satisfied: dict[tuple[str, str], dict[int, int]] = {}
    for (count, case, rule), row in zip(expected, rows):
        if len(row) != 5 or row[4] != "0":
            problems.append(f"row {count},{case},{rule}: elapsed_ms must read 0 with timing off")
            continue
        pct = row[3]
        k = round(Decimal(pct) * count / 100) if _PCT.match(pct) else -1
        if not 0 <= k <= count or _pct(k, count) != pct:
            problems.append(f"row {count},{case},{rule}: {pct!r} is not a count out of {count}")
            continue
        satisfied.setdefault((case, rule), {})[count] = k
    for key, by_count in satisfied.items():
        seq = sorted(by_count.items())
        for (c1, k1), (c2, k2) in zip(seq, seq[1:]):
            if not 0 <= k2 - k1 <= c2 - c1:
                problems.append(f"{key}: counts {k1}/{c1} and {k2}/{c2} are not prefix sums")
    checked = [c for c in counts if c <= recompute]
    if checked and not problems:
        prefix = recompute_satisfied(config, max(checked))
        for (case, rule), by_count in satisfied.items():
            for c in checked:
                if by_count[c] != prefix[(case, rule)][c]:
                    problems.append(
                        f"{case}/{rule} at {c} trials: file says {by_count[c]} satisfied, "
                        f"recomputation says {prefix[(case, rule)][c]}"
                    )
    for case in config.cases:
        body = [f"{r[0]},{r[2]},{r[3]}" for r in rows if r[1] == case.name]
        want = "\n".join([PLOT_HEADER, *body]) + "\n"
        try:
            got = (out_dir / f"plot_{case.name}.csv").read_text()
        except OSError as exc:
            problems.append(f"plot_{case.name}.csv unreadable: {exc}")
            continue
        if got != want:
            problems.append(f"plot_{case.name}.csv is not the {case.name} rows of results.csv")
    for name, want in (reference or {}).items():
        got = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        if got != want:
            problems.append(f"{name} differs from the recorded output (sha256 {got[:16]}...)")
    return problems


def cli_instance_problems(files: dict, culture, trial: int, codes: list[int]) -> list[str]:
    """Check one instance's command outputs in the cli-large workload.

    ``files`` maps inst, budget, trace, borda, ujr, sbjr to paths; ``codes``
    are the five exit codes in command order (gen, run-rule sccr, run-rule
    sccr borda, check-axiom ujr, check-axiom strong-bjr).
    """
    from pbelect.axioms import AxiomReport, check_axiom, verify_witness
    from pbelect.core import budget_from_dict, instance_from_dict, is_exhaustive, is_feasible
    from pbelect.culture import generate

    if codes[:3] != [0, 0, 0] or not set(codes[3:]) <= {0, 3}:
        return [f"trial {trial}: exit codes {codes}"]
    try:
        data = {key: json.loads(Path(path).read_text()) for key, path in files.items()}
        instance = instance_from_dict(data["inst"])
    except (OSError, ValueError) as exc:
        return [f"trial {trial}: unreadable output: {exc}"]
    problems = []
    if instance != generate(culture, trial):
        problems.append(f"trial {trial}: instance file is not the generated instance")
    if not (culture.n_range[0] <= instance.n <= culture.n_range[1]
            and culture.m_range[0] <= instance.m <= culture.m_range[1]):
        problems.append(f"trial {trial}: n={instance.n}, m={instance.m} outside the culture's ranges")
    budgets = {}
    for key, label in (("budget", "sccr"), ("borda", "sccr borda")):
        try:
            budget = budget_from_dict(instance, data[key])
        except ValueError as exc:
            problems.append(f"trial {trial}: {label} budget: {exc}")
            continue
        if not is_feasible(instance, budget):
            problems.append(f"trial {trial}: {label} budget is infeasible")
        elif not is_exhaustive(instance, budget):
            problems.append(f"trial {trial}: {label} budget is not exhaustive")
        else:
            budgets[key] = budget
    trace = data["trace"]
    if "budget" in budgets and (
        trace.get("rule") != "sccr"
        or {e["project"] for e in trace["entries"]} != budgets["budget"].selected
        or [e["iteration"] for e in trace["entries"]] != list(range(1, len(trace["entries"]) + 1))
    ):
        problems.append(f"trial {trial}: sccr trace does not match its budget")
    for report_key, axiom, budget_key, code in (
        ("ujr", "ujr", "budget", codes[3]), ("sbjr", "strong-bjr", "borda", codes[4])
    ):
        if budget_key not in budgets:
            continue
        budget, report = budgets[budget_key], data[report_key]
        if report != check_axiom(instance, budget, axiom).to_dict():
            problems.append(f"trial {trial}: {axiom} report differs from a fresh check")
        if code != (0 if report.get("satisfied") is True else 3):
            problems.append(f"trial {trial}: {axiom} exit code {code} contradicts the report")
        witness = report.get("witness")
        if report.get("satisfied") is False:
            forged = not isinstance(witness, dict) or not verify_witness(
                instance, budget,
                AxiomReport(axiom, False, (witness["project"], frozenset(witness["voters"]))),
            )
            if forged:
                problems.append(f"trial {trial}: {axiom} witness does not certify a violation")
        elif witness is not None:
            problems.append(f"trial {trial}: satisfied {axiom} report carries a witness")
    return problems
