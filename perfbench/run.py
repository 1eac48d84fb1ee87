#!/usr/bin/env python3
"""pbelect benchmark: the paper's study serially and with 2 workers, and a
batch of large instances driven through the CLI.

    python3 perfbench/run.py --workload study-serial --seed 0 --seconds 32 --trace 0

Run from the root of a source tree: the program is imported from ``src/``.
Workloads (closed loop, one client process):

  study-serial    default_experiment_config(seed) through run_experiment(workers=None)
                  plus write_results_csv and emit_plot_data; one unit is one study.
  study-workers2  the same study with workers=2.
  cli-large       BATCH large general-cost instances, each taken through
                  gen, run-rule sccr (+trace), run-rule sccr borda,
                  check-axiom ujr and check-axiom strong-bjr via cli.main;
                  one unit is one batch.

With ``--trace 0`` units repeat while the next one's predicted midpoint falls
within ``--seconds``, and the end-to-end metrics of BENCHMARK.json are printed. With
``--trace 1`` untraced and traced units alternate, spans are recorded around
calls into each layer (see spans.py), and the per-layer metrics are printed.
Set-up (import pbelect, build config and inputs) is timed in eight fresh
interpreters and in this one, and the median is reported. The outputs of every
unit are checked by gate.py; the last stdout line is the result object, and
the exit code is 1 when the gate fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("study-serial", "study-workers2", "cli-large")
BATCH = 64
SETUP_PROBES = 8
LARGE_CULTURE = {
    "n_range": [500, 1000],
    "m_range": [20, 40],
    "cost_model": "uniform",
    "cost_min": 1,
    "cost_max": 10,
    "limit_model": "budget",
    "ballot_model": "prefix",
}
FILE_KEYS = ("inst", "budget", "trace", "borda", "ujr", "sbjr")


class Context:
    """What set-up builds: the imported program plus the workload's inputs."""


def setup(workload: str, seed: int, tmp: Path) -> Context:
    """Import pbelect and build the workload's config and inputs (setup_s)."""
    import pbelect
    import pbelect.cli
    import pbelect.harness

    ctx = Context()
    ctx.pbelect = pbelect
    if workload.startswith("study"):
        ctx.config = pbelect.harness.default_experiment_config(seed)
        ctx.workers = 2 if workload == "study-workers2" else None
        return ctx
    ctx.culture = pbelect.culture.culture_config_from_dict({**LARGE_CULTURE, "master_seed": seed})
    config_path = tmp / "large_culture.json"
    config_path.write_text(json.dumps({**LARGE_CULTURE, "master_seed": seed}))
    ctx.files, ctx.commands = [], []
    for trial in range(BATCH):
        f = {key: str(tmp / f"{key}-{trial}.json") for key in FILE_KEYS}
        ctx.files.append(f)
        ctx.commands.append([
            ["gen", "--config", str(config_path), "--trial", str(trial), "--out", f["inst"]],
            ["run-rule", "--rule", "sccr", "--instance", f["inst"], "--out", f["budget"],
             "--trace", f["trace"]],
            ["run-rule", "--rule", "sccr", "--scoring", "borda", "--instance", f["inst"],
             "--out", f["borda"]],
            ["check-axiom", "--axiom", "ujr", "--instance", f["inst"], "--budget", f["budget"],
             "--out", f["ujr"]],
            ["check-axiom", "--axiom", "strong-bjr", "--instance", f["inst"],
             "--budget", f["borda"], "--out", f["sbjr"]],
        ])
    return ctx


def timed_setup(workload: str, seed: int, tmp: Path) -> tuple[Context, float]:
    start = time.perf_counter()
    ctx = setup(workload, seed, tmp)
    return ctx, time.perf_counter() - start


# --- units of work ---------------------------------------------------------------

class Unit:
    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.latencies_ms: list[float] = []
        self.digest = ""
        self.layers: dict = {}
        self.spans: list = []
        self.child_spans: list[list] = []
        self.workers = 1
        self.child_cpu_s = 0.0
        self.bytes_read = 0
        self.bytes_written = 0


def study_unit(ctx: Context, out_dir: Path, tracer) -> Unit:
    import gate

    harness = ctx.pbelect.harness
    unit = Unit(tracer is not None)
    unit.workers = ctx.workers or 1
    unit.attempted = len(ctx.config.cases) * max(ctx.config.trial_counts)

    def emit(result) -> None:
        harness.write_results_csv(result, out_dir / "results.csv")
        harness.emit_plot_data(result, out_dir)

    run = harness.run_experiment
    if tracer is not None:
        run = tracer.wrap("harness.run_experiment", run)
        emit = tracer.wrap("harness.emit", emit)
    out_dir.mkdir(parents=True)
    cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter_ns()
    try:
        emit(run(ctx.config, workers=ctx.workers))
    except Exception as exc:  # a failing study is counted as failed trials
        print(f"study raised {type(exc).__name__}: {exc}", file=sys.stderr)
        unit.failed = unit.attempted
        return unit
    end = time.perf_counter_ns()
    cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    unit.wall_s = (end - start) / 1e9
    unit.latencies_ms.append((end - start) / 1e6)
    unit.child_cpu_s = (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime)
    unit.digest = gate.digest_files(gate.study_files(out_dir, ctx.config))
    return unit


def cli_unit(ctx: Context, tracer) -> Unit:
    import gate

    main = ctx.pbelect.cli.main
    if tracer is not None:
        main = tracer.wrap("cli.main", main, info=lambda args, kwargs, code: (args[0][0], code))
    unit = Unit(tracer is not None)
    unit.codes = []
    start = time.perf_counter_ns()
    for commands in ctx.commands:
        codes = []
        for argv in commands:
            begin = time.perf_counter_ns()
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:  # counted as a failed command
                print(f"{argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                code = -1
            unit.latencies_ms.append((time.perf_counter_ns() - begin) / 1e6)
            codes.append(code)
            unit.failed += code not in (0, 3)
        unit.codes.append(codes)
    unit.wall_s = (time.perf_counter_ns() - start) / 1e9
    unit.attempted = sum(len(commands) for commands in ctx.commands)
    paths = [f[key] for f in ctx.files for key in FILE_KEYS if os.path.exists(f[key])]
    codes = json.dumps(unit.codes).encode()
    unit.digest = hashlib.sha256(gate.digest_files(paths).encode() + codes).hexdigest()
    if tracer is not None:
        for commands in ctx.commands:
            for argv in commands:
                for flag, value in zip(argv, argv[1:]):
                    if flag in ("--config", "--instance", "--budget") and os.path.exists(value):
                        unit.bytes_read += os.path.getsize(value)
                    elif flag in ("--out", "--trace") and os.path.exists(value):
                        unit.bytes_written += os.path.getsize(value)
    return unit


def run_units(seconds: float, trace: bool, make_unit) -> list[Unit]:
    """Closed loop: start another unit while its predicted midpoint falls
    within ``seconds``, so a run overshoots by at most half a unit.

    With tracing, untraced and traced units alternate, at least one of each."""
    start = time.perf_counter()
    units: list[Unit] = []
    took: dict[bool, float] = {}
    while True:
        traced = trace and len(units) % 2 == 1
        began = time.perf_counter()
        units.append(make_unit(traced))
        took[traced] = time.perf_counter() - began
        if trace and len(units) < 2:
            continue
        upcoming = trace and len(units) % 2 == 1
        if time.perf_counter() - start + took.get(upcoming, 1.5 * took[False]) / 2 > seconds:
            return units


# --- gate ---------------------------------------------------------------------

def gate_units(workload: str, seed: int, ctx: Context, units: list[Unit], unit_dirs) -> list[str]:
    """Check the outputs; a unit whose outputs miss the gate counts as all failed."""
    import gate

    reference = json.loads((HERE / "reference.json").read_text())
    first = units[0]
    try:
        if workload.startswith("study"):
            problems = gate.study_problems(
                unit_dirs[0], ctx.config, reference["study"].get(str(seed))
            )
        else:
            problems = []
            for trial, files in enumerate(ctx.files):
                problems += gate.cli_instance_problems(
                    files, ctx.culture, trial, units[-1].codes[trial]
                )
            ref = reference["cli-large"]
            recorded = ref["digests"].get(str(seed)) if ref["batch"] == BATCH else None
            if recorded is not None and recorded != first.digest:
                problems.append("cli-large outputs differ from the recorded digest")
    except Exception as exc:  # a crash in a check is a miss, not a benchmark error
        problems = [f"gate raised {type(exc).__name__}: {exc}"]
    for i, unit in enumerate(units):
        if unit.digest != first.digest:
            problems.append(f"unit {i} outputs differ from unit 0")
    if problems:
        for unit in units:
            unit.failed = unit.attempted
    return problems


def trace_problems(workload: str, units: list[Unit], unit_dirs) -> list[str]:
    """Exact counts must repeat across traced units and, in the studies,
    the traced violation counts must equal those in results.csv."""
    from layers import COUNTS

    traced = [u for u in units if u.traced]
    problems = []
    counts = [{k: u.layers[k] for k in COUNTS} for u in traced]
    if any(c != counts[0] for c in counts):
        problems.append(f"traced counts differ between units: {counts}")
    if workload.startswith("study"):
        lines = (unit_dirs[0] / "results.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        top = max(int(r[0]) for r in rows)
        for count, case, rule, pct, _ in rows:
            if int(count) != top:
                continue
            violated = top - round(float(pct) * top / 100)
            traced_count = counts[0].get(f"axioms.violations.{case}.{rule}")
            if traced_count != violated:
                problems.append(
                    f"{case}/{rule}: trace counts {traced_count} violations, results.csv {violated}"
                )
    return problems


# --- environment and metrics -----------------------------------------------------

def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = root / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def read_steal_ticks() -> int | None:
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload: str, units: list[Unit], setup_samples: list[float], peak_rss_kb: int) -> tuple[dict, dict]:
    untraced = [u for u in units if not u.traced and u.wall_s > 0]
    per_unit = (lambda u: u.attempted) if workload.startswith("study") else (lambda u: BATCH)
    latencies = [ms for u in untraced for ms in u.latencies_ms]
    tail_ms, tail_pct = tail(latencies) if latencies else (0.0, 0.0)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    metrics = {
        "trials_per_s": statistics.median(per_unit(u) / u.wall_s for u in untraced) if untraced else 0.0,
        "cmd_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "cmd_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_kb / 1024,
        "ok_ratio": (attempted - failed) / attempted if attempted else 0.0,
        "setup_s": statistics.median(setup_samples),
    }
    detail = {
        "units": len(untraced),
        "unit_wall_s": [round(u.wall_s, 4) for u in untraced],
        "cmd_samples": len(latencies),
        "cmd_tail_percentile": round(tail_pct, 3),
        "setup_samples_s": [round(s, 5) for s in setup_samples],
    }
    return metrics, detail


def per_layer(units: list[Unit]) -> dict:
    """Median over traced units; counts, equal in every unit, as they are."""
    from layers import COUNTS

    traced = [u for u in units if u.traced]
    plain = [u.wall_s for u in units if not u.traced and u.wall_s > 0]
    walls = [u.wall_s for u in traced if u.wall_s > 0]
    metrics = {
        name: value if name in COUNTS else statistics.median(u.layers[name] for u in traced)
        for name, value in traced[0].layers.items()
    }
    metrics["trace.overhead_ratio"] = (
        statistics.median(walls) / statistics.median(plain) if walls and plain else 0.0
    )
    return metrics


# --- entry point ------------------------------------------------------------------

def probe_setup(workload: str, seed: int, tmp: Path) -> list[float]:
    """Time set-up in fresh interpreters, one after the other."""
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = tmp / f"probe{i}"
        probe_dir.mkdir()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", str(probe_dir),
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="pbelect benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pbelect" / "__init__.py").is_file():
        print(f"error: no pbelect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe is not None:
        _, elapsed = timed_setup(args.workload, args.seed, Path(args.setup_probe))
        print(repr(elapsed))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    started_at = time.time()
    load_before, steal_before = read_loadavg(), read_steal_ticks()
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_tmp"))
    try:
        (tmp / "inputs").mkdir()
        ctx, own_setup = timed_setup(args.workload, args.seed, tmp / "inputs")
        import pbelect

        if not Path(pbelect.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: pbelect imported from {pbelect.__file__}, not {SRC}", file=sys.stderr)
            return 2
        from dataclasses import replace

        from layers import layer_metrics
        from spans import Tracer

        study = args.workload.startswith("study")
        case_of = (
            {replace(case.culture, master_seed=0): case.name for case in ctx.config.cases}
            if study else {}
        )
        (tmp / "spans").mkdir()
        unit_dirs: list[Path] = []

        def make_unit(traced: bool) -> Unit:
            tracer = Tracer(str(tmp / "spans"), case_of) if traced else None
            if tracer is not None:
                with tracer.installed():
                    unit = one_unit(tracer)
                unit.spans = tracer.spans
                unit.child_spans = tracer.collect_children()
                unit.layers = layer_metrics(unit)
                return unit
            return one_unit(None)

        def one_unit(tracer) -> Unit:
            if not study:
                return cli_unit(ctx, tracer)
            unit_dirs.append(tmp / f"unit{len(unit_dirs)}")
            return study_unit(ctx, unit_dirs[-1], tracer)

        units = run_units(args.seconds, bool(args.trace), make_unit)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        problems = gate_units(args.workload, args.seed, ctx, units, unit_dirs)
        if args.trace and not problems:
            problems += trace_problems(args.workload, units, unit_dirs)
        setup_samples = [own_setup] + probe_setup(args.workload, args.seed, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass

    e2e, detail = end_to_end(args.workload, units, setup_samples, rss)
    values = per_layer(units) if args.trace else e2e
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        missing, extra = set(names) - set(values), set(values) - set(names)
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 2
    steal_after = read_steal_ticks()
    record = {
        "env": {
            "git_sha": git_sha(ROOT),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": load_before,
            "loadavg_end": read_loadavg(),
            "steal_s": None if steal_before is None or steal_after is None
            else (steal_after - steal_before) / os.sysconf("SC_CLK_TCK"),
            "started_at": started_at,
        },
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "detail": detail,
        "digest": units[0].digest,
        "problems": problems,
    }
    print(json.dumps(record))
    for problem in problems:
        print(f"gate: {problem}", file=sys.stderr)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    correct = not problems and failed == 0
    units_of = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units_of[name]} for name in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
