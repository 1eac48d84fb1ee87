"""Per-layer metrics of one traced unit, computed from its spans.

Busy times sum the spans of a layer that are not nested in a span of the same
name. Times are in the unit named by the metric; counts are exact and must
repeat bit for bit for a given seed.
"""

from __future__ import annotations

import math

from spans import RULE_KEYS

VIOLATION_KEYS = (
    "equal.sccr", "equal.smr", "equal.stv", "general.sccr", "large.ujr", "large.strong_bjr",
)
CLI_COMMANDS = ("gen", "run-rule", "check-axiom")
COUNTS = (
    "culture.generate.calls",
    *(f"rules.{key}.selected" for key in RULE_KEYS),
    "axioms.check_axiom.calls",
    *(f"axioms.violations.{key}" for key in VIOLATION_KEYS),
    "core.json_bytes_read",
    "core.json_bytes_written",
    *(f"cli.main.calls.{cmd}" for cmd in CLI_COMMANDS),
    "cli.main.failed",
)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _outermost(spans: list, name: str) -> list:
    return [s for s in spans if s[0] == name and (s[3] < 0 or spans[s[3]][0] != name)]


def _durations(span_lists: list[list], name: str) -> list[int]:
    return [s[2] - s[1] for spans in span_lists for s in _outermost(spans, name)]


def _child_ns(spans: list) -> list[int]:
    """Per span: total duration of its direct children."""
    covered = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
    return covered


def layer_metrics(unit) -> dict:
    lists = [unit.spans, *unit.child_spans]
    out: dict = {}

    gen = _durations(lists, "culture.generate")
    out["culture.generate.busy_s"] = sum(gen) / 1e9
    out["culture.generate.calls"] = len(gen)
    out["culture.generate.p50_us"] = percentile(gen, 50) / 1e3
    out["culture.generate.p99_us"] = percentile(gen, 99) / 1e3

    # a call that raised has no info and is left out
    rule_spans = [s for spans in lists for s in _outermost(spans, "rules") if s[4]]
    for key in RULE_KEYS:
        mine = [s for s in rule_spans if s[4][0] == key]
        durs = [s[2] - s[1] for s in mine]
        pairs = sum(s[4][1] for s in mine)
        out[f"rules.{key}.busy_s"] = sum(durs) / 1e9
        out[f"rules.{key}.p50_us"] = percentile(durs, 50) / 1e3
        out[f"rules.{key}.p99_us"] = percentile(durs, 99) / 1e3
        out[f"rules.{key}.ns_per_pair"] = sum(durs) / pairs if pairs else 0
        out[f"rules.{key}.selected"] = sum(s[4][2] for s in mine)

    checks = [s for spans in lists for s in _outermost(spans, "axioms.check_axiom") if s[4]]
    out["axioms.check_axiom.busy_s"] = sum(s[2] - s[1] for s in checks) / 1e9
    out["axioms.check_axiom.calls"] = len(checks)
    violated = [s[4][0] for s in checks if not s[4][1]]
    for key in VIOLATION_KEYS:
        out[f"axioms.violations.{key}"] = violated.count(key)
    out["axioms.violation_ratio"] = len(violated) / len(checks) if checks else 0

    out["core.decode.busy_s"] = sum(_durations(lists, "core.decode")) / 1e9
    out["core.encode.busy_s"] = sum(_durations(lists, "core.encode")) / 1e9
    out["core.json_bytes_read"] = unit.bytes_read
    out["core.json_bytes_written"] = unit.bytes_written

    parent = unit.spans
    covered = _child_ns(parent)
    runs = [(s[2] - s[1], covered[i]) for i, s in enumerate(parent) if s[0] == "harness.run_experiment"]
    workers = unit.workers
    child_top = sum(s[2] - s[1] for spans in unit.child_spans for s in spans if s[3] < 0)
    run_ns = sum(r[0] for r in runs)
    out["harness.self_s"] = (run_ns - sum(r[1] for r in runs) - child_top / workers) / 1e9 if runs else 0
    out["harness.emit_ms"] = sum(_durations([parent], "harness.emit")) / 1e6
    pooled = workers > 1 and run_ns > 0
    out["harness.pool.speedup"] = child_top / run_ns if pooled else 0
    out["harness.pool.efficiency"] = child_top / run_ns / workers if pooled else 0
    out["harness.pool.idle_core_s"] = workers * run_ns / 1e9 - unit.child_cpu_s if pooled else 0

    mains = [(i, s) for i, s in enumerate(parent) if s[0] == "cli.main"]
    for cmd in CLI_COMMANDS:
        out[f"cli.main.calls.{cmd}"] = sum(1 for _, s in mains if s[4] and s[4][0] == cmd)
    out["cli.main.self_ms"] = sum(s[2] - s[1] - covered[i] for i, s in mains) / 1e6
    out["cli.main.failed"] = sum(1 for _, s in mains if not s[4] or s[4][1] not in (0, 3))
    return out
