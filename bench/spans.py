"""Span tracer for the benchmark's traced run.

`install` wraps public functions of the cutbounds modules from the
outside: the defining module's attribute and every other cutbounds module
attribute bound to the same function object (the names `cutbounds.cli`
imports directly, for instance), so nested calls such as
project -> fourier_motzkin or thm2_search -> gcsbK are caught too.  Each
call becomes a span with a name, start, end and parent, kept in flat
arrays and written out by `write_spans` when the run ends.  Self time is a
span's duration minus the time covered by its child spans, so the self
times of all spans add up to the time spent inside `cli.main`.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from time import perf_counter

TRACED = {
    "cli": ("main", "load_network_document"),
    "network": ("min_cut", "make_cut", "cut_and_message_families"),
    "bounds": (
        "enumerate_bounds",
        "instantiate",
        "InstantiatedInequality.signature",
        "thm2_search",
        "gcsbK",
        "alpha_beta_identity",
    ),
    "setcalc": ("prefix_extension_identity",),
    "setfn": (
        "random_joint_distribution",
        "entropy_function",
        "multiway_gap",
        "prefix_multiway_gap",
        "cross_level_gap",
    ),
    "polytope": (
        "project",
        "fourier_motzkin",
        "substitute",
        "canonicalize",
        "feasible",
        "vertices_2d",
        "contains",
    ),
}

MODULES = tuple(f"cutbounds.{name}" for name in TRACED)


def span_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute.rsplit('.', 1)[-1]}"


SPAN_NAMES = tuple(span_name(m, a) for m, names in TRACED.items() for a in names)


def _count_len(key):
    def observe(counters, args, result, error):
        if error is None:
            counters[key] += len(result)
    return observe


def _count_accepted(key):
    def observe(counters, args, result, error):
        counters[key + ".tried"] += 1
        counters[key + ".accepted"] += error is None
    return observe


def _observe_elimination(counters, args, result, error):
    system, var = args[0], args[1]
    if error is not None or var not in system.variables:
        return
    idx = system.variables.index(var)
    pos = sum(1 for row in system.rows if row.coeffs[idx] > 0)
    neg = sum(1 for row in system.rows if row.coeffs[idx] < 0) + system.nonneg[idx]
    zero = sum(1 for row in system.rows if row.coeffs[idx] == 0)
    out = len(result.rows)
    counters["fm.rows_in"] += len(system.rows)
    counters["fm.pairs"] += pos * neg
    counters["fm.candidates"] += zero + pos * neg
    counters["fm.rows_out"] += out
    counters["fm.max_rows_out"] = max(counters["fm.max_rows_out"], out)


def _observe_vertices(counters, args, result, error):
    if error is None:
        counters["vertices"] += len(result)
    elif type(error).__name__ == "UnboundedRegionError":
        counters["unbounded"] += 1


OBSERVERS = {
    "bounds.enumerate_bounds": _count_len("bounds_out"),
    "bounds.thm2_search": _count_len("thm2_rows_out"),
    "bounds.gcsbK": _count_accepted("gcsbK"),
    "setfn.cross_level_gap": _count_accepted("cross_level_gap"),
    "polytope.fourier_motzkin": _observe_elimination,
    "polytope.vertices_2d": _observe_vertices,
}


class Tracer:
    """In-memory span store with per-name self time and call counts."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counters = dict.fromkeys(
            ("bounds_out", "thm2_rows_out", "gcsbK.tried", "gcsbK.accepted",
             "cross_level_gap.tried", "cross_level_gap.accepted", "fm.rows_in",
             "fm.pairs", "fm.candidates", "fm.rows_out", "fm.max_rows_out",
             "vertices", "unbounded"),
            0,
        )
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, time covered by children]

    def wrap(self, name: str, function):
        nid = self.names.index(name)
        observe = OBSERVERS.get(name)
        stack = self._stack
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end)
        self_s, calls, counters = self.self_s, self.calls, self.counters

        def traced(*args, **kwargs):
            index = len(starts)
            frame = [index, 0.0]
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            stack.append(frame)
            error = result = None
            start = perf_counter()
            starts.append(start)
            ends.append(start)
            try:
                result = function(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                ends[index] = end
                stack.pop()
                duration = end - start
                self_s[nid] += duration - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += duration
                if observe is not None:
                    observe(counters, args, result, error)

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def by_name(self, name: str):
        nid = self.names.index(name)
        return self.self_s[nid], self.calls[nid]

    def write_spans(self, path) -> None:
        """One line per span: index, name, parent index, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("span\tname\tparent\tstart_s\tend_s\n")
            for i, (nid, parent, start, end) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start, self.span_end)):
                handle.write(f"{i}\t{self.names[nid]}\t{parent}\t{start:.9f}\t{end:.9f}\n")


def install(tracer: Tracer):
    """Wrap every traced function; returns a function that undoes it."""
    modules = [importlib.import_module(name) for name in MODULES]
    undo = []
    for module_name, attributes in TRACED.items():
        home = importlib.import_module(f"cutbounds.{module_name}")
        for attribute in attributes:
            name = span_name(module_name, attribute)
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(home, owner_name)
                original = owner.__dict__[method]
                undo.append((owner, method, original))
                setattr(owner, method, tracer.wrap(name, original))
                continue
            original = getattr(home, attribute)
            wrapped = tracer.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall
