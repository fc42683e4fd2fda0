"""Spans and call counters wrapped around the calls one mixrank module makes into another.

Nothing here lives inside the program: :func:`install_mixrank` replaces
names in the modules' namespaces (and entries of ``power._EVALUATORS``) with
timing wrappers, and :meth:`Tracer.restore` puts the originals back.

Two kinds of record are kept:

* **spans** (name, start, end, parent, attributes) for calls made a few
  times per run: CLI invocations, public entry points, search probes and
  simulation cells, null-pmf builds;
* **aggregates** (count, busy seconds, elements) for calls made once per
  replication or per chunk, which would be too many to keep one by one.
  Each thread accumulates into its own dict, so wrappers running in the
  Monte Carlo worker threads need no lock.

A missing target is skipped and listed in ``Tracer.missing``; a traced
run that has any refuses to report, since the layer it feeds would read zero.
"""

import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


def _get(owner, key):
    if isinstance(owner, dict):
        return owner.get(key)
    return getattr(owner, key, None)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self.current_cell = None
        self._local = threading.local()
        self._thread_accs = []
        self._register_lock = threading.Lock()
        self._patches = []
        self._next_id = 0

    # -- recording ---------------------------------------------------------

    def _acc(self):
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = {
                "calls": defaultdict(lambda: [0, 0.0, 0]),
                "cells": defaultdict(float),
                "cell_calls": defaultdict(int),
            }
            self._local.acc = acc
            with self._register_lock:
                self._thread_accs.append(acc)
        return acc

    def add(self, name, busy=0.0, elements=0, count=1):
        """Add one aggregated observation under ``name``."""
        entry = self._acc()["calls"][name]
        entry[0] += count
        entry[1] += busy
        entry[2] += elements

    @contextmanager
    def span(self, name, **attrs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._register_lock:
            span_id = self._next_id
            self._next_id += 1
        # A span opened on a worker thread belongs to the cell that started it.
        parent = stack[-1] if stack else self.current_cell
        record = {"id": span_id, "name": name, "parent": parent, "attrs": attrs}
        stack.append(span_id)
        record["start"] = _clock()
        try:
            yield record
        finally:
            record["end"] = _clock()
            stack.pop()
            self.spans.append(record)

    def aggregates(self):
        """Merge the per-thread call counters: name -> (count, busy_s, elements)."""
        merged = defaultdict(lambda: [0, 0.0, 0])
        for acc in self._thread_accs:
            for name, (count, busy, elements) in acc["calls"].items():
                entry = merged[name]
                entry[0] += count
                entry[1] += busy
                entry[2] += elements
        return {name: tuple(v) for name, v in merged.items()}

    def cell_children(self):
        """Per cell id: (busy seconds of its direct children, threads they ran on)."""
        out = {}
        for acc in self._thread_accs:
            for cell, busy in acc["cells"].items():
                total, threads = out.get(cell, (0.0, 0))
                out[cell] = (total + busy, threads + 1)
        return out

    def cell_calls(self, names):
        """Per cell id: how many calls named in ``names`` it made, on any thread."""
        out = defaultdict(int)
        for acc in self._thread_accs:
            for (cell, name), count in acc["cell_calls"].items():
                if name in names:
                    out[cell] += count
        return out

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, key, make):
        original = _get(owner, key)
        if original is None:
            self.missing.append(key)
            return
        _set(owner, key, make(original))
        self._patches.append((owner, key, original))

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            _set(owner, key, original)

    def wrap_calls(self, owner, key, name, elements=None, cell_child=False, on_result=None):
        """Aggregate every call of ``owner.key`` under ``name``.

        ``elements(args)`` sizes the work of one call; ``cell_child`` charges
        the call and its busy time to the enclosing cell, for its self time
        and :meth:`cell_calls`;
        ``on_result(args, result)`` may add further counters.
        """

        def make(fn):
            def wrapper(*args, **kwargs):
                start = _clock()
                result = fn(*args, **kwargs)
                busy = _clock() - start
                acc = self._acc()
                entry = acc["calls"][name]
                entry[0] += 1
                entry[1] += busy
                if elements is not None:
                    entry[2] += elements(args)
                if cell_child and self.current_cell is not None:
                    acc["cells"][self.current_cell] += busy
                    acc["cell_calls"][(self.current_cell, name)] += 1
                if on_result is not None:
                    on_result(args, result)
                return result

            return wrapper

        self._patch(owner, key, make)

    def wrap_span(self, owner, key, name, attrs=None, cell=False):
        """Record every call of ``owner.key`` as a span named ``name``.

        ``attrs(args)`` gives the span's attributes.  A ``cell`` span also
        becomes the parent of aggregated calls and of spans opened on worker
        threads while it runs, and records process CPU time, which counts
        every thread that works for it.
        """

        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(name, **(attrs(args) if attrs else {})) as record:
                    if not cell:
                        return fn(*args, **kwargs)
                    outer = self.current_cell
                    self.current_cell = record["id"]
                    cpu = time.process_time()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        record["attrs"]["cpu_s"] = time.process_time() - cpu
                        self.current_cell = outer

            return wrapper

        self._patch(owner, key, make)


def self_times(spans):
    """Span id -> duration minus the durations of its direct child spans.

    Children of one span run one after another on its thread, so the part
    of the parent's interval they cover is the sum of their durations.
    """
    child_total = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_total[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child_total[s["id"]] for s in spans}


def cell_self_time(duration, children_busy, threads):
    """Self time of a simulation cell whose children ran on ``threads`` threads.

    With one thread this is the cell's duration minus its children's busy
    time.  With several, the children's busy time is averaged over the
    threads, giving the mean time per thread outside any child call.
    """
    if threads == 0:
        return duration
    return duration - children_busy / threads


def install_mixrank(tracer, mixrank_modules, pmf_seen):
    """Wrap the module boundaries of mixrank that the per-layer metrics read.

    ``mixrank_modules`` maps short names (cli, power, rank_tests,
    efficiency) to the imported modules.  ``pmf_seen``
    holds the n of every null pmf requested since the caller last emptied
    the program's pmf cache; a request for any other n is a cold build.
    """
    cli = mixrank_modules["cli"]
    power = mixrank_modules["power"]
    rank_tests = mixrank_modules["rank_tests"]
    efficiency = mixrank_modules["efficiency"]

    tracer.wrap_span(cli, "main", "cli.main")
    for key in ("power_ratio_surface", "empirical_are"):
        tracer.wrap_span(cli, key, "power." + key)
    tracer.wrap_span(power, "min_sample_size", "power.min_sample_size")

    tracer.wrap_span(
        power, "estimate_power", "power.probe",
        attrs=lambda args: {"n": int(args[2]), "reps": args[3].nreps, "kind": args[0].value},
    )

    def cell_attrs(args):
        params, n, config = args[:3]
        # Everything the cell's draws depend on: equal keys mean equal samples.
        draw_key = (params.theta, params.mu, params.sigma, int(n), config.master_seed, config.nreps)
        return {"n": int(n), "reps": config.nreps, "draw_key": draw_key}

    tracer.wrap_span(power, "_simulate_rejections", "power.cell", attrs=cell_attrs, cell=True)

    tracer.wrap_calls(power, "replication_rng", "streams.rng", cell_child=True)
    tracer.wrap_calls(
        power, "draw_sample", "mixture.draw", elements=lambda args: int(args[1]), cell_child=True,
    )

    def count_degenerate(args, result):
        tracer.add("power.degenerate", count=result[1])

    evaluators = getattr(power, "_EVALUATORS", {})
    for kind, name in ((power.TestKind.T, "power.eval_t"), (power.TestKind.WILCOXON, "power.eval_w")):
        tracer.wrap_calls(
            evaluators, kind, name, elements=lambda args: int(args[0].size),
            cell_child=True, on_result=count_degenerate,
        )

    for module in (power, rank_tests):
        for key in ("_t_p_value", "_wilcoxon_p_exact", "_wilcoxon_p_normal"):
            tracer.wrap_calls(module, key, "rank_tests.pvalue")
    tracer.wrap_calls(power, "wilcoxon_test", "power.slow_row")
    for module in (cli, rank_tests):
        for key in ("t_test", "wilcoxon_test"):
            tracer.wrap_calls(module, key, "rank_tests.scalar")

    def pmf_attrs(args):
        n = int(args[0])
        cold = n not in pmf_seen
        pmf_seen.add(n)
        return {"n": n, "cold": cold}

    for module in (cli, rank_tests):
        tracer.wrap_span(module, "exact_null_pmf", "rank_tests.exact_null_pmf", attrs=pmf_attrs)

    # A span, not an aggregate, so that ``cli.main``'s self time excludes it.
    tracer.wrap_span(
        cli, "dominance_grid", "efficiency.grid",
        attrs=lambda args: {"elements": int(args[2]) * int(args[3])},
    )
    tracer.wrap_calls(efficiency, "dominance_boundary", "efficiency.boundary")


def layer_metrics(tracer, traced_walls, untraced_walls, pmf_epochs, bytes_written, oracle):
    """Per-layer metrics of a traced run, per traced iteration unless named otherwise.

    ``traced_walls`` and ``untraced_walls`` are the iteration wall times of
    the traced and untraced halves; ``pmf_epochs`` counts how often the
    null-pmf cache was emptied while tracing; ``bytes_written`` is the total
    output of the traced iterations; ``oracle`` is (p-values checked,
    mismatches).
    """
    k = len(traced_walls)
    agg = tracer.aggregates()

    def calls(name):
        return agg.get(name, (0, 0.0, 0))

    def per_element_ns(entry):
        return entry[1] / entry[2] * 1e9 if entry[2] else 0.0

    rng, draw = calls("streams.rng"), calls("mixture.draw")
    eval_t, eval_w = calls("power.eval_t"), calls("power.eval_w")
    slow, scalar = calls("power.slow_row"), calls("rank_tests.scalar")
    grids = [s for s in tracer.spans if s["name"] == "efficiency.grid"]
    grid = (len(grids), sum(s["end"] - s["start"] for s in grids), sum(s["attrs"]["elements"] for s in grids))

    cells = [s for s in tracer.spans if s["name"] == "power.cell"]
    children = tracer.cell_children()
    cell_wall = sum(s["end"] - s["start"] for s in cells)
    cell_self = sum(
        cell_self_time(s["end"] - s["start"], *children.get(s["id"], (0.0, 0))) for s in cells
    )
    cell_cpu = sum(s["attrs"]["cpu_s"] for s in cells)

    probes = [s for s in tracer.spans if s["name"] == "power.probe"]
    # A duplicate is a cell that draws samples an earlier cell already drew;
    # a cell served from a memo makes no draw calls and is not counted.
    draw_calls = tracer.cell_calls({"streams.rng", "mixture.draw"})
    drawn, duplicates = set(), 0
    for cell in sorted(cells, key=lambda s: s["start"]):
        key = cell["attrs"]["draw_key"]
        duplicates += key in drawn and draw_calls[cell["id"]] > 0
        drawn.add(key)

    cold_pmf = sum(
        s["end"] - s["start"]
        for s in tracer.spans
        if s["name"] == "rank_tests.exact_null_pmf" and s["attrs"]["cold"]
    )
    selfs = self_times(tracer.spans)
    cli_self = sum(selfs[s["id"]] for s in tracer.spans if s["name"] == "cli.main")
    scalar_calls = scalar[0] + slow[0]
    traced_wall = statistics.median(traced_walls)

    return {
        "streams.rng_calls": rng[0] / k,
        "streams.rng_s": rng[1] / k,
        "mixture.draw_calls": draw[0] / k,
        "mixture.draw_s": draw[1] / k,
        "mixture.draw_ns_per_element": per_element_ns(draw),
        "streams.draw_share": (rng[1] + draw[1]) / sum(traced_walls),
        "power.eval_t_s": eval_t[1] / k,
        "power.eval_w_s": eval_w[1] / k,
        "power.eval_w_ns_per_element": per_element_ns(eval_w),
        "power.self_s": cell_self / k,
        "power.busy_over_wall": cell_cpu / cell_wall if cell_wall else 0.0,
        "power.probes": len(probes) / k,
        "power.probe_reps": sum(p["attrs"]["reps"] for p in probes) / k,
        "power.duplicate_draw_probes": duplicates / k,
        "power.slow_rows": slow[0] / k,
        "power.degenerate_reps": calls("power.degenerate")[0] / k,
        "rank_tests.pvalue_s": calls("rank_tests.pvalue")[1] / k,
        "rank_tests.null_pmf_cold_s": cold_pmf / pmf_epochs if pmf_epochs else 0.0,
        "rank_tests.scalar_us_per_call": (scalar[1] + slow[1]) / scalar_calls * 1e6 if scalar_calls else 0.0,
        "rank_tests.oracle_checked": oracle[0],
        "rank_tests.oracle_mismatch": oracle[1],
        "efficiency.grid_ns_per_point": per_element_ns(grid),
        "efficiency.boundary_s": calls("efficiency.boundary")[1] / k,
        "cli.self_s": cli_self / k,
        "cli.bytes_written": bytes_written / k,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(untraced_walls),
    }
