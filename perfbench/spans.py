"""Spans around the benchmark's own calls into ``indicated``.

A span covers one call from the benchmark (or from the package into a
benchmark-owned proxy) into a layer's public function.  Spans nest: a
``play_match`` span contains the proxied ``next_vertex`` and ``reply`` calls,
and a layer's self time is its span's duration minus the time its child
spans cover.  Totals are kept per layer name and reset for each pass.

Solver counters are read from ``GameSolver`` instances: while tracing, the
package's ``game.GameSolver`` is replaced by a subclass that adds its
counters to the current totals when the instance is freed, so no memo is
kept alive longer than the package keeps it.
"""

import time
from collections import defaultdict


class Tracer:
    """Per-layer self time, call counts, failed calls and span durations."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.failed = defaultdict(int)
        self.durations = defaultdict(list)
        self.solver = SolverCounts()
        self._child_s = []          # child time of each open span, innermost last

    def call(self, layer, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named layer."""
        clock = self.clock
        self._child_s.append(0.0)
        start = clock()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed[layer] += 1
            raise
        finally:
            duration = clock() - start
            child = self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += duration
            self.self_s[layer] += duration - child
            self.calls[layer] += 1
            self.durations[layer].append(duration)

    def wrap(self, layer, fn):
        def traced(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)
        return traced


class StrategyProxy:
    """Times a selector strategy's ``next_vertex`` (and ``notify``, when the
    strategy has one, since ``play_match`` looks it up by name)."""

    def __init__(self, tracer, strategy):
        self._tracer = tracer
        self._strategy = strategy
        if hasattr(strategy, "notify"):
            self.notify = tracer.wrap("strategies.notify", strategy.notify)

    def next_vertex(self, state):
        return self._tracer.call("strategies.next_vertex",
                                 self._strategy.next_vertex, state)


class BenProxy:
    """Times ``OptimalBen.reply``, the per-ply adversary search."""

    def __init__(self, tracer, ben):
        self._tracer = tracer
        self._ben = ben

    def reply(self, state):
        return self._tracer.call("game.match.ben_reply", self._ben.reply, state)


class SolverCounts:
    """Sums of the public counters of every solver freed while tracing."""

    def __init__(self):
        self.solvers = 0
        self.nodes = 0
        self.memo_entries = 0
        self.memo_hits = 0
        self.max_memo_entries = 0
        self.each = []              # [nodes, memo entries, memo hits] per solver

    def add(self, solver):
        entries = len(solver.memo)
        self.each.append([solver.nodes, entries, solver.memo_hits])
        self.solvers += 1
        self.nodes += solver.nodes
        self.memo_entries += entries
        self.memo_hits += solver.memo_hits
        self.max_memo_entries = max(self.max_memo_entries, entries)

    def triple(self):
        return [self.nodes, self.memo_entries, self.memo_hits]


class counting_solvers:
    """Context manager: while active, every ``GameSolver`` the package makes
    reports its counters to ``sink()`` (the current ``SolverCounts``) when
    it is freed."""

    def __init__(self, game_module, sink):
        base = game_module.GameSolver

        class CountingSolver(base):
            def __del__(self):
                sink().add(self)

        self._module = game_module
        self._base = base
        self._counting = CountingSolver

    def __enter__(self):
        self._module.GameSolver = self._counting
        return self

    def __exit__(self, *exc):
        self._module.GameSolver = self._base
        return False
