"""Traced runs: spans and counts recorded around edvs functions, from outside the program.

For one traced unit, `Tracer.unit()` rebinds each function named in
`TARGETS` to a wrapper, in every edvs module namespace that holds it (so
`edvs.cli.solve_dvs` and `edvs.solver.solve_dvs` are both wrapped), plus
`InteriorBlock.solve` and a count-only wrapper around
`scipy.sparse.linalg.splu`.  It puts the originals back afterwards, so
untraced ops run the program untouched.  A target the
program no longer defines is skipped; its metrics then read 0.

A span is `[name, start, end, parent, unit]`, kept in memory.  Spans opened
on a pool worker thread take the innermost open span of the main thread as
parent.  A span's self time is its duration minus the union of its
children's intervals; where children overlap (threads), the overlap is
tracked so that self times minus overlap sum exactly to the unit's wall time.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import threading
import time
from collections import defaultdict

import scipy.sparse.linalg as spla

# (defining module, attribute, span name)
TARGETS = (
    ("edvs.cli", "main", "cli.main"),
    ("edvs.ingest", "load_matrix", "ingest.load_matrix"),
    ("edvs.ingest", "load_partition", "ingest.load_partition"),
    ("edvs.ingest", "load_vector", "ingest.load_vector"),
    ("edvs.ingest", "write_vector", "ingest.write_vector"),
    ("edvs.ingest", "require_locality", "ingest.locality"),
    ("edvs.derived", "build_derived_space", "derived.build"),
    ("edvs.derived", "project_continuous_interface", "derived.project"),
    ("edvs.derived", "inner_interface", "derived.inner"),
    ("edvs.solver", "solve_dvs", "solver.solve_dvs"),
    ("edvs.solver", "factor_interior", "solver.factor"),
    ("edvs.solver", "interface_rhs", "solver.interface_rhs"),
    ("edvs.solver", "solve_interface", "solver.krylov"),
    ("edvs.solver", "apply_interface_operator", "solver.apply"),
    ("edvs.solver", "back_substitute", "solver.back_substitute"),
    ("edvs.solver", "verify_solution", "solver.verify"),
    ("edvs.dual", "split_by_subdomain", "dual.split"),
    ("edvs.dual", "build_dual_operator", "dual.build"),
    ("edvs.dual", "apply_dual", "dual.apply"),
    ("edvs.dual", "exchange", "dual.exchange"),
)
METHOD_TARGETS = (("edvs.solver", "InteriorBlock", "solve", "solver.interior_solve"),)
NAMESPACES = ("edvs", "edvs.cli", "edvs.ingest", "edvs.derived", "edvs.solver", "edvs.dual")
INGEST_READS = ("ingest.load_matrix", "ingest.load_partition", "ingest.load_vector")

# per-layer metric -> (span name, quantity); quantity is calls, incl (inclusive s) or self (s)
SPAN_METRICS = {
    "ingest.load_matrix_s": ("ingest.load_matrix", "incl"),
    "ingest.load_partition_s": ("ingest.load_partition", "incl"),
    "ingest.load_vector_s": ("ingest.load_vector", "incl"),
    "ingest.write_vector_s": ("ingest.write_vector", "incl"),
    "ingest.locality_s": ("ingest.locality", "incl"),
    "derived.build_s": ("derived.build", "incl"),
    "derived.project_calls": ("derived.project", "calls"),
    "derived.project_s": ("derived.project", "incl"),
    "derived.inner_calls": ("derived.inner", "calls"),
    "derived.inner_s": ("derived.inner", "incl"),
    "solver.factor_s": ("solver.factor", "incl"),
    "solver.apply_calls": ("solver.apply", "calls"),
    "solver.apply_s": ("solver.apply", "incl"),
    "solver.apply_self_s": ("solver.apply", "self"),
    "solver.interior_solve_calls": ("solver.interior_solve", "calls"),
    "solver.interior_solve_s": ("solver.interior_solve", "incl"),
    "solver.krylov_self_s": ("solver.krylov", "self"),
    "solver.interface_rhs_s": ("solver.interface_rhs", "incl"),
    "solver.back_substitute_s": ("solver.back_substitute", "incl"),
    "solver.verify_s": ("solver.verify", "incl"),
    "dual.split_s": ("dual.split", "incl"),
    "dual.build_s": ("dual.build", "incl"),
    "dual.apply_s": ("dual.apply", "incl"),
    "dual.exchange_s": ("dual.exchange", "incl"),
    "cli.self_s": ("cli.main", "self"),
}
COUNT_METRICS = ("ingest.bytes_read", "solver.lu_nnz", "solver.continuity_projections")


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))  # unit -> name -> count
        self.unit_key = None
        self.last_state = None   # the SolverState the last interface apply saw
        self._local = threading.local()
        self._main_stack = []
        self._main_ident = threading.get_ident()
        self._lock = threading.Lock()
        self._patches = self._plan()

    # -- installing wrappers -------------------------------------------------

    def _plan(self):
        """List (owner, attribute, original, wrapper) for every rebinding, once."""
        patches = []
        spaces = [importlib.import_module(m) for m in NAMESPACES]
        for module, attr, name in TARGETS:
            original = getattr(importlib.import_module(module), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for space in spaces:
                for key, value in list(vars(space).items()):
                    if value is original:
                        patches.append((space, key, original, wrapper))
        for module, cls_name, attr, name in METHOD_TARGETS:
            owner = getattr(importlib.import_module(module), cls_name, None)
            original = None if owner is None else owner.__dict__.get(attr)
            if original is not None:
                patches.append((owner, attr, original, self._wrap(name, original)))
        lu_sink = functools.partial(self.count, "solver.lu_nnz")
        patches.append((spla, "splu", spla.splu, count_lu(spla.splu, lu_sink)))
        return patches

    def install(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in INGEST_READS and args:
                tracer.count("ingest.bytes_read", os.path.getsize(args[0]))
            elif name == "solver.apply" and args:
                tracer.last_state = args[0]
            with _Span(tracer, name):
                return fn(*args, **kwargs)

        return traced

    # -- recording -----------------------------------------------------------

    def count(self, name, value):
        with self._lock:
            self.counts[self.unit_key][name] += value

    @contextlib.contextmanager
    def unit(self, key):
        """Trace one measured unit (an op or a set-up repeat) under a root span `bench`."""
        self.install()
        self.unit_key = key
        self.last_state = None
        try:
            with _Span(self, "bench"):
                yield
        finally:
            if self.last_state is not None:
                self.count("solver.continuity_projections",
                           int(getattr(self.last_state, "continuity_projections", 0)))
            self.last_state = None
            self.unit_key = None
            self.uninstall()

    # -- analysis ------------------------------------------------------------

    def unit_tables(self):
        """Per unit: {span name: [calls, inclusive s, self s]}, wall s and overlap s."""
        by_unit = defaultdict(list)
        children = defaultdict(list)
        for s in self.spans:
            by_unit[s[4]].append(s)
            if s[3] is not None:
                children[id(s[3])].append(s)
        tables = {}
        for unit, spans in by_unit.items():
            table = defaultdict(lambda: [0, 0.0, 0.0])
            overlap = 0.0
            wall = 0.0
            for s in spans:
                kids = [(max(k[1], s[1]), min(k[2], s[2])) for k in children.get(id(s), ())]
                covered = _union_length(kids)
                row = table[s[0]]
                row[0] += 1
                row[1] += s[2] - s[1]
                row[2] += (s[2] - s[1]) - covered
                overlap += sum(max(b - a, 0.0) for a, b in kids) - covered
                if s[3] is None:
                    wall += s[2] - s[1]
            tables[unit] = (dict(table), wall, overlap)
        return tables

    def layer_metrics(self, setup_phase_s):
        """Per-layer metrics as medians over the units that exercise each layer.

        `setup_phase_s` maps a unit to its report's setup phase in seconds; the
        setup self time is that phase minus the locality check and derived build.
        """
        tables = self.unit_tables()
        out = {}
        for metric, (span, quantity) in SPAN_METRICS.items():
            column = {"calls": 0, "incl": 1, "self": 2}[quantity]
            values = [t[span][column] for t, _, _ in tables.values() if span in t]
            out[metric] = statistics.median(values) if values else 0
        for metric in COUNT_METRICS:
            values = [c[metric] for c in self.counts.values() if metric in c]
            out[metric] = statistics.median(values) if values else 0
        setup_self = []
        for unit, phase in setup_phase_s.items():
            if unit in tables and phase is not None:
                t = tables[unit][0]
                inner = sum(t[n][1] for n in ("ingest.locality", "derived.build") if n in t)
                setup_self.append(phase - inner)
        out["solver.setup_self_s"] = statistics.median(setup_self) if setup_self else 0
        walls = sum(w for _, w, _ in tables.values())
        accounted = sum(sum(r[2] for r in t.values()) - ov for t, _, ov in tables.values())
        out["trace.accounted_ratio"] = accounted / walls if walls > 0 else 0
        return out

    def self_time_table(self, kind):
        """Mean self seconds per span name over the units of one kind ("op" or "setup").

        Returns the rows, the mean wall and overlap, and the unit count; the self
        times minus the overlap sum to the wall time.
        """
        picked = [t for key, t in self.unit_tables().items() if key[0] == kind]
        if not picked:
            return {}, 0.0, 0.0, 0
        rows = defaultdict(float)
        for table, _, _ in picked:
            for name, row in table.items():
                rows[name] += row[2] / len(picked)
        wall = sum(w for _, w, _ in picked) / len(picked)
        overlap = sum(ov for _, _, ov in picked) / len(picked)
        return dict(rows), wall, overlap, len(picked)

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent index, unit."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                parent = index.get(id(s[3])) if s[3] is not None else None
                fh.write(json.dumps([s[0], s[1], s[2], parent, s[4]]) + "\n")


def count_lu(splu, sink):
    """Wrap `splu` so that each factor's L + U nonzero count is passed to `sink`."""

    @functools.wraps(splu)
    def counted(*args, **kwargs):
        lu = splu(*args, **kwargs)
        sink(lu.L.nnz + lu.U.nnz)
        return lu

    return counted


class _Span:
    __slots__ = ("tracer", "record", "stack")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, None, tracer.unit_key]

    def __enter__(self):
        tracer = self.tracer
        self.stack = tracer._stack()
        if self.stack:
            self.record[3] = self.stack[-1]
        elif self.stack is not tracer._main_stack and tracer._main_stack:
            self.record[3] = tracer._main_stack[-1]
        self.stack.append(self.record)
        self.record[1] = tracer.clock()
        return self

    def __exit__(self, *exc):
        self.record[2] = self.tracer.clock()
        self.stack.pop()
        self.tracer.spans.append(self.record)
        return False


def _union_length(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total
