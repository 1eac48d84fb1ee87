"""In-memory spans around calls into pbelect's layers, recorded from outside.

A ``Tracer`` swaps chosen pbelect functions for timing wrappers while its
``installed()`` block is open and puts the originals back afterwards, so the
program's source stays untouched and untraced runs pay nothing. Every module
global and every module-level dict value of a loaded ``pbelect.*`` module that
refers to a target function is swapped, so a name imported into another module
or kept in a registry table is traced too.

A span is ``(name, start_ns, end_ns, parent, info)``; ``parent`` indexes the
enclosing span of the same process, or is -1. Pool workers forked while the
wrappers are installed record into their own list and write it to
``<child_dir>/spans-<pid>.json`` when they exit, where ``collect_children``
reads it back.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import sys
import time
from multiprocessing import util as mp_util

RULE_KEYS = ("sccr", "smr", "stv", "sccr_borda")
CLI_AXIOM_KEYS = {"ujr": "large.ujr", "strong-bjr": "large.strong_bjr"}


class _JsonProxy:
    """Stands in for the ``json`` module inside a pbelect module while traced."""

    def __init__(self, tracer: "Tracer") -> None:
        self.load = tracer.wrap("core.decode", json.load)
        self.loads = tracer.wrap("core.decode", json.loads)
        self.dump = tracer.wrap("core.encode", json.dump)
        self.dumps = tracer.wrap("core.encode", json.dumps)

    def __getattr__(self, name: str):
        return getattr(json, name)


class Tracer:
    def __init__(self, child_dir: str, case_of: dict | None = None) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._child_dir = child_dir
        # culture config with master_seed 0 -> case name, to label violations
        self._case_of = case_of or {}
        self._case = "large"
        self._rule = "none"
        self._restore: list = []

    # --- recording -------------------------------------------------------------

    def _enter_child(self) -> None:
        self.spans = []
        self._stack = []
        self._pid = os.getpid()
        mp_util.Finalize(None, self._dump_child, exitpriority=10)

    def _dump_child(self) -> None:
        path = os.path.join(self._child_dir, f"spans-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def wrap(self, name: str, fn, info=None):
        """Return ``fn`` wrapped in a span; ``info(args, kwargs, result)`` is
        stored with the span and evaluated after the clock stops."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                tracer._enter_child()
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if info is not None:
                spans[index] = (name, start, end, parent, info(args, kwargs, result))
            return result

        return traced

    def collect_children(self) -> list[list]:
        """Read and delete the span lists that exited pool workers wrote."""
        lists = []
        for entry in sorted(os.listdir(self._child_dir)):
            if entry.startswith("spans-") and entry.endswith(".json"):
                path = os.path.join(self._child_dir, entry)
                with open(path) as fh:
                    lists.append([tuple(span) for span in json.load(fh)])
                os.remove(path)
        return lists

    # --- span info for each layer -------------------------------------------------

    def _generate_info(self, args, kwargs, result):
        config = args[0] if args else kwargs["config"]
        self._case = self._case_of.get(dataclasses.replace(config, master_seed=0), "large")
        return self._case

    def _rule_info(self, key_of):
        def info(args, kwargs, result):
            instance = args[0] if args else kwargs["instance"]
            key = key_of(args, kwargs)
            self._rule = key
            return (key, instance.n * instance.m, len(result[0].selected))

        return info

    def _check_info(self, args, kwargs, result):
        axiom = args[2] if len(args) > 2 else kwargs.get("axiom")
        key = CLI_AXIOM_KEYS.get(axiom) if self._case == "large" else f"{self._case}.{self._rule}"
        return (key, bool(result.satisfied))

    # --- installing -----------------------------------------------------------------

    def _swap(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "pbelect" and not name.startswith("pbelect."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._restore.append((namespace, key, value))
                    namespace[key] = replacement
                elif type(value) is dict:
                    for inner_key, inner in list(value.items()):
                        if inner is original:
                            self._restore.append((value, inner_key, inner))
                            value[inner_key] = replacement

    @contextlib.contextmanager
    def installed(self):
        import pbelect.axioms as axioms
        import pbelect.core as core
        import pbelect.culture as culture
        import pbelect.rules as rules

        def sccr_key(args, kwargs):
            mode = args[1] if len(args) > 1 else kwargs.get("mode", rules.APPROVAL)
            return "sccr" if mode == rules.APPROVAL else f"sccr_{mode}"

        targets = [
            (culture.generate, "culture.generate", self._generate_info),
            (rules.seq_chamberlin_courant, "rules", self._rule_info(sccr_key)),
            (rules.seq_monroe, "rules", self._rule_info(lambda a, k: "smr")),
            (rules.stv, "rules", self._rule_info(lambda a, k: "stv")),
            (axioms.check_axiom, "axioms.check_axiom", self._check_info),
            (core.instance_from_dict, "core.decode", None),
            (core.budget_from_dict, "core.decode", None),
            (culture.culture_config_from_dict, "core.decode", None),
            (core.instance_to_dict, "core.encode", None),
            (core.budget_to_dict, "core.encode", None),
        ]
        methods = [(rules.RuleTrace, "to_dict"), (axioms.AxiomReport, "to_dict")]
        try:
            for fn, name, info in targets:
                self._swap(fn, self.wrap(name, fn, info))
            self._swap(json, _JsonProxy(self))
            for cls, attr in methods:
                original = cls.__dict__[attr]
                self._restore.append((None, (cls, attr), original))
                setattr(cls, attr, self.wrap("core.encode", original))
            yield self
        finally:
            while self._restore:
                namespace, key, value = self._restore.pop()
                if namespace is None:
                    setattr(key[0], key[1], value)
                else:
                    namespace[key] = value
