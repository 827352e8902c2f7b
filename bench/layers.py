"""Per-layer tracing of the chromagame package, applied from outside.

`Tracer.install` replaces the package's public functions with timing and
counting wrappers; `Tracer.uninstall` puts the originals back. Nothing
under `src/` is edited. A function is wrapped under every name the package's
modules bind it to, because callers look names up in their own module
(`solver` calls `solver.apply_move`, the name it imported from `core`).

What is counted:
  * core functions are wrapped in every module except `core` itself, so
    calls made inside `core` (e.g. `apply_move` asking `status`) are not
    counted: only calls into the layer are;
  * the other layers' entry points are wrapped in every module, including
    their own (`win_vector` calling `alice_wins`, `simulate` calling
    `record_playout` are layer entries);
  * strategy methods (`choose`, `admissible`, `advance`) are wrapped on
    every `Strategy` class that defines them, and a call made while another
    strategy method is running (`choose` asking `admissible`, a subclass
    asking `super()`) is not counted.

Each span records calls, inclusive time and self time (inclusive minus the
time of the wrapped spans it called). The wrappers slow the traced run;
`trace.overhead` reports by how much.
"""

from __future__ import annotations

import os
import time
from collections import Counter

CORE_FUNCTIONS = ("apply_move", "status", "legal_moves", "fixing_move_played")
STRATEGY_METHODS = ("choose", "admissible", "advance")

# (span name, defining module, attribute)
ENTRY_POINTS = (
    ("solver.alice_wins", "solver", "alice_wins"),
    ("solver.restricted", "solver", "restricted_value"),
    ("solver.restricted", "solver", "refute_restricted"),
    ("solver.load_cache", "solver", "load_cache"),
    ("solver.save_cache", "solver", "save_cache"),
    ("formulas.bounds", "formulas", "bounds"),
    ("harness.simulate", "harness", "simulate"),
    ("harness.record_playout", "harness", "record_playout"),
    ("cli.run", "cli", "run"),
    ("cli.build_parser", "cli", "build_parser"),
)

# Solver entries whose positions (apply_move calls beneath them) are counted.
SEARCHES = ("solver.alice_wins", "solver.restricted")


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.stats: dict[str, list[int]] = {}  # name -> [calls, incl ns, self ns]
        self.positions: Counter = Counter()  # search span -> apply_move calls
        self.canonicalize_calls = 0
        self.memo_keys = 0
        self.cache_bytes_written = 0
        self._children: list[int] = []  # wrapped-callee ns, one slot per open span
        self._searches: list[str] = []  # open search spans, innermost last
        self._keys: list[set] = []  # canonicalize keys, one set per open alice_wins
        self._in_strategy = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, enter=None, leave=None, guard=False):
        stats = self.stats.setdefault(name, [0, 0, 0])
        children = self._children
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if guard:
                if tracer._in_strategy:
                    return fn(*args, **kwargs)
                tracer._in_strategy += 1
            if enter is not None:
                enter(args)
            children.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                if leave is not None:
                    leave(args)
                if guard:
                    tracer._in_strategy -= 1

        return wrapper

    def _count_position(self, _args):
        if self._searches:
            self.positions[self._searches[-1]] += 1

    def _enter_search(self, name):
        def enter(_args):
            self._searches.append(name)
            if name == "solver.alice_wins":
                self._keys.append(set())

        def leave(_args):
            self._searches.pop()
            if name == "solver.alice_wins":
                self.memo_keys += len(self._keys.pop())

        return enter, leave

    def _canonicalize(self, fn):
        def wrapper(state):
            key = fn(state)
            if self._keys:
                self.canonicalize_calls += 1
                self._keys[-1].add(key)
            return key

        return wrapper

    def _after_save(self, args):
        self.cache_bytes_written += os.path.getsize(args[0])

    # -- install / uninstall ----------------------------------------------

    def _modules(self):
        pkg = self.pkg
        return [pkg.package, pkg.core, pkg.strategies, pkg.solver, pkg.formulas, pkg.harness, pkg.cli]

    def _rebind(self, original, wrapper, skip=()):
        for module in self._modules():
            if module in skip:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        pkg = self.pkg
        for attr in CORE_FUNCTIONS:
            original = getattr(pkg.core, attr)
            enter = self._count_position if attr == "apply_move" else None
            self._rebind(original, self._span(f"core.{attr}", original, enter), skip=(pkg.core,))
        for name, module, attr in ENTRY_POINTS:
            original = getattr(getattr(pkg, module), attr)
            enter = leave = None
            if name in SEARCHES:
                enter, leave = self._enter_search(name)
            if name == "solver.save_cache":
                leave = self._after_save
            self._rebind(original, self._span(name, original, enter, leave))
        original = pkg.solver.canonicalize
        self._rebind(original, self._canonicalize(original))
        for cls in _subclasses(pkg.strategies.Strategy):
            for attr in STRATEGY_METHODS:
                if attr in vars(cls):
                    original = vars(cls)[attr]
                    self._patches.append((cls, attr, original))
                    setattr(cls, attr, self._span(f"strategies.{attr}", original, guard=True))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def calls(self) -> dict[str, int]:
        """Every work count; equal across rounds when rounds do equal work."""
        out = {name: s[0] for name, s in sorted(self.stats.items())}
        out["solver.positions"] = self.positions["solver.alice_wins"]
        out["solver.restricted.positions"] = self.positions["solver.restricted"]
        out["solver.memo_keys"] = self.memo_keys
        out["solver.canonicalize"] = self.canonicalize_calls
        out["solver.cache_bytes_written"] = self.cache_bytes_written
        return out

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round counts and per-call times, by the names the benchmark
        declares (see README.md for the table of what each should move)."""

        def calls(name):
            return self.stats.get(name, [0, 0, 0])[0]

        def per_call_ns(name):
            c, incl, _ = self.stats.get(name, [0, 0, 0])
            return incl / c if c else 0.0

        def self_ms(name):
            return self.stats.get(name, [0, 0, 0])[2] / rounds / 1e6

        m: dict[str, tuple[float, str]] = {}
        for attr in CORE_FUNCTIONS:
            m[f"core.{attr}.calls"] = (calls(f"core.{attr}") / rounds, "count")
            if attr != "fixing_move_played":
                m[f"core.{attr}.ns"] = (per_call_ns(f"core.{attr}"), "ns")
        for name in SEARCHES:
            m[f"{name}.calls"] = (calls(name) / rounds, "count")
            m[f"{name}.self_ms"] = (self_ms(name), "ms")
        m["solver.positions"] = (self.positions["solver.alice_wins"] / rounds, "count")
        m["solver.memo_keys"] = (self.memo_keys / rounds, "count")
        hits = self.canonicalize_calls - self.memo_keys
        m["solver.memo_hit_ratio"] = (
            hits / self.canonicalize_calls if self.canonicalize_calls else 0.0,
            "ratio",
        )
        m["solver.restricted.positions"] = (self.positions["solver.restricted"] / rounds, "count")
        for attr in STRATEGY_METHODS:
            m[f"strategies.{attr}.calls"] = (calls(f"strategies.{attr}") / rounds, "count")
            m[f"strategies.{attr}.ns"] = (per_call_ns(f"strategies.{attr}"), "ns")
        m["harness.simulate.calls"] = (calls("harness.simulate") / rounds, "count")
        m["harness.simulate.self_ms"] = (self_ms("harness.simulate"), "ms")
        m["harness.record_playout.calls"] = (calls("harness.record_playout") / rounds, "count")
        m["harness.record_playout.ns"] = (per_call_ns("harness.record_playout"), "ns")
        m["solver.load_cache.ms"] = (per_call_ns("solver.load_cache") / 1e6, "ms")
        m["solver.save_cache.ms"] = (per_call_ns("solver.save_cache") / 1e6, "ms")
        m["solver.cache_bytes_written"] = (self.cache_bytes_written / rounds, "B")
        m["formulas.bounds.calls"] = (calls("formulas.bounds") / rounds, "count")
        m["formulas.bounds.ns"] = (per_call_ns("formulas.bounds"), "ns")
        m["cli.run.self_ms"] = (self_ms("cli.run"), "ms")
        m["cli.build_parser.ms"] = (per_call_ns("cli.build_parser") / 1e6, "ms")
        return m


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out
