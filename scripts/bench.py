#!/usr/bin/env python3
"""Benchmark two revisions against each other, each with its own perfbench/run.py.

    python3 scripts/bench.py BASE_REV HEAD_REV --pairs cli-large=10 study-serial=3

Both revisions are checked out with ``git worktree`` under ``.perfbench_tmp/``
and removed afterwards. For each workload, pair i runs seed ``--seed + i`` on
both sides, untraced, base first in even pairs and head first in odd ones;
then one traced run per side at the first seed. The run length is
BENCHMARK.json's ``run_seconds``, the same for both sides.

``BENCH_<head-short-sha>.json`` at the repository root holds both revisions
(commit and ``src`` tree), Python, nproc, load and steal over the whole
session, every run's record and result, and per workload and metric each
side's median and quartiles, the head's wins, whether a gain may be claimed,
and whether the head's median is worse than the base's by more than the
metric's bound or the spread leaves that unresolved. After the workloads,
each side runs the Tier-1 suite once in its worktree; ``tier1`` holds its
wall seconds, exit code and pytest's last line. ``gate_ok`` is true when
every run's correctness gate passed. The exit code is 1 when it is not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TMP = ROOT / ".perfbench_tmp"
SIDES = ("base", "head")


def git(*args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def read_steal_s() -> float | None:
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def parse_pairs(items: list[str], workloads: list[str]) -> dict[str, int]:
    """``WORKLOAD=N`` items as {workload: N}; workloads not named get 0 pairs."""
    pairs = dict.fromkeys(workloads, 0)
    for item in items:
        name, _, count = item.partition("=")
        if name not in pairs or not count.isdigit():
            raise SystemExit(f"error: --pairs expects WORKLOAD=N with WORKLOAD in {workloads}: {item!r}")
        pairs[name] = int(count)
    return pairs


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench/run.py run in ``tree``: its record and result lines, or
    the tail of its stderr when it printed neither."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    run = {"workload": workload, "seed": seed, "trace": trace, "exit_code": done.returncode}
    try:
        run["record"], run["result"] = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["record"] = run["result"] = None
        run["stderr_tail"] = done.stderr[-2000:]
    return run


def run_tier1(tree: Path) -> dict:
    """The Tier-1 suite once in ``tree``, as ROADMAP.md runs it: wall seconds,
    exit code and pytest's last line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(tree / "src"), os.environ.get("PYTHONPATH")))
    )}
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {"wall_s": wall_s, "exit_code": done.returncode, "summary": lines[-1] if lines else ""}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(base: list[float], head: list[float], better: str, bound: float | None) -> dict:
    """Per metric: both sides' quartiles, head wins over paired runs (ties count
    for neither), whether the claim rule holds (wins in at least nine tenths of
    the pairs and medians apart by more than the base's IQR) and, given a bound,
    whether the head's median is worse than the base's by more than it, and
    whether the base's IQR is wider than the bound while some head run reads no
    better than some base run, which leaves the comparison unresolved."""
    sign = 1 if better == "higher" else -1
    b1, b2, b3 = quartiles(base)
    h1, h2, h3 = quartiles(head)
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    summary = {
        "base": base, "head": head,
        "base_quartiles": [b1, b2, b3], "head_quartiles": [h1, h2, h3],
        "head_wins": wins, "pairs": len(base),
        "gain_claimable": wins >= 0.9 * len(base) and sign * (h2 - b2) > b3 - b1,
    }
    if bound is not None:
        separated = min(sign * h for h in head) > max(sign * b for b in base)
        summary["bound"] = bound
        summary["worse_beyond_bound"] = sign * (h2 - b2) < -bound * abs(b2)
        summary["unresolved"] = b3 - b1 > bound * abs(b2) and not separated
    return summary


def summarize(runs: list[dict], spec: dict) -> dict:
    """Every workload's metrics compared across the two sides."""
    summary: dict = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            chosen = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
            if not chosen:
                continue
            table = summary.setdefault(workload, {})
            for metric in metrics:
                values = {
                    side: [
                        r["result"]["metrics"][metric["name"]]["value"]
                        for r in sorted(chosen, key=lambda r: r["seed"])
                        if r["side"] == side and r["result"] is not None
                    ]
                    for side in SIDES
                }
                if values["base"] and len(values["base"]) == len(values["head"]):
                    table[metric["name"]] = compare(
                        values["base"], values["head"], metric["better"], metric.get("bound")
                    )
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark two revisions with perfbench/run.py.")
    parser.add_argument("base", metavar="BASE_REV")
    parser.add_argument("head", metavar="HEAD_REV")
    parser.add_argument(
        "--pairs", nargs="+", default=[], metavar="WORKLOAD=N",
        help="untraced run pairs per workload (unnamed workloads are skipped)",
    )
    parser.add_argument("--seed", type=int, default=0, help="first seed; pair i uses seed + i")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = parse_pairs(args.pairs, [w["name"] for w in spec["workloads"]])
    revs = {}
    for side, rev in zip(SIDES, (args.base, args.head)):
        sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
        revs[side] = {"rev": rev, "sha": sha, "src_tree": git("rev-parse", f"{sha}:src")}
    trees = {side: TMP / f"bench-{side}-{revs[side]['sha'][:12]}" for side in SIDES}
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": read_loadavg(),
        "started_at": time.time(),
    }
    steal_before = read_steal_s()
    runs = []
    TMP.mkdir(exist_ok=True)
    try:
        for side in SIDES:
            git("worktree", "add", "--detach", str(trees[side]), revs[side]["sha"])
        seconds = json.loads((trees["head"] / "BENCHMARK.json").read_text())["run_seconds"]
        for workload, count in pairs.items():
            plan = [(i, 0, SIDES if i % 2 == 0 else SIDES[::-1]) for i in range(count)]
            if count:
                plan.append((0, 1, SIDES))
            for i, trace, order in plan:
                for side in order:
                    run = run_once(trees[side], workload, args.seed + i, seconds, trace)
                    run["side"] = side
                    runs.append(run)
                    value = run["result"] and run["result"]["metrics"].get("trials_per_s", {}).get("value")
                    print(f"{workload} seed {args.seed + i} trace {trace} {side}: "
                          f"exit {run['exit_code']} trials_per_s {value}", file=sys.stderr)
        tier1 = {}
        for side in SIDES:
            tier1[side] = run_tier1(trees[side])
            print(f"tier1 {side}: {tier1[side]['summary']}", file=sys.stderr)
    finally:
        for tree in trees.values():
            if tree.exists():
                git("worktree", "remove", "--force", str(tree))
        git("worktree", "prune")
        try:
            TMP.rmdir()
        except OSError:
            pass
    steal_after = read_steal_s()
    env["loadavg_end"] = read_loadavg()
    env["steal_s"] = None if None in (steal_before, steal_after) else steal_after - steal_before
    gate_ok = bool(runs) and all(
        r["exit_code"] == 0 and r["result"] is not None and r["result"]["correct"] for r in runs
    )
    report = {
        "revisions": revs,
        "env": env,
        "run_seconds": seconds,
        "pairs": pairs,
        "first_seed": args.seed,
        "gate_ok": gate_ok,
        "summary": summarize(runs, spec),
        "tier1": tier1,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{git('rev-parse', '--short', revs['head']['sha'])}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if gate_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
