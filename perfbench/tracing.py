"""Span tracing at the lpsnav module boundaries, from outside the program.

`Tracer.install` replaces each public function in TARGETS with a timing
wrapper in every `lpsnav` module namespace that holds it (both
`lpsnav.foursquares.is_prime` and `lpsnav.ntheory.is_prime`, say), so a
span opened inside another traced function nests under it. A span is
(name, start, end, parent span, op id); spans stay in memory until the run
writes them out. A layer's self time is its spans' time minus the time their
child spans cover.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, function, counter hook). A hook adds to the tracer's counts from
# the call's arguments and result.
TARGETS = [
    ("navigator", "diagonal_distance", None),
    ("navigator", "general_navigate", None),
    ("foursquares", "solve", lambda c, args, r: c.update(
        {"foursquares.candidates": r.tried, "foursquares." + r.status: 1})),
    ("foursquares", "build_form", None),
    ("foursquares", "enumerate_candidates", None),
    ("lattice2", "congruence_lattice", None),
    ("lattice2", "gauss_reduce", None),
    ("lattice2", "particular_solution", None),
    ("lattice2", "shortest_coset_vector", None),
    ("ntheory", "is_prime", lambda c, args, r: c.update({"ntheory.is_prime_true": int(r)})),
    ("ntheory", "two_squares_prime", None),
    ("ntheory", "factor", lambda c, args, r: c.update(
        {"ntheory.factor_incomplete": int(not r.complete)})),
    ("quaternion", "factor_into_generators", lambda c, args, r: c.update(
        {"quaternion.peel_letters": len(r)})),
    ("quaternion", "evaluate_word", lambda c, args, r: c.update(
        {"quaternion.evaluate_letters": len(args[0])})),
    ("cayley_oracle", "build_graph", lambda c, args, r: c.update(
        {"cayley_oracle.vertices": len(r)})),
    ("cayley_oracle", "bfs_distances", None),
]
GENERATORS = {"foursquares.enumerate_candidates"}  # timed per next(), not per call


class Tracer:
    def __init__(self) -> None:
        # Span i is self.spans[5*i : 5*i+5] = (name id, parent, op id, start,
        # end). One array.extend per span keeps the record whole even when the
        # deadline signal interrupts the op.
        self.spans = array("d")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counts: Counter = Counter()
        self.op = -1  # id of the op in progress; -1 during set-up
        self._stack: list[int] = []
        self._saved: list = []

    def __len__(self) -> int:
        return len(self.spans) // 5

    def begin_op(self, op: int) -> None:
        """Tag the spans that follow with op id `op`; drops any span a
        deadline left open in the previous op."""
        self.op = op
        self._stack.clear()

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self)
        parent = self._stack[-1] if self._stack else -1
        self.spans.extend((nid, parent, self.op, time.perf_counter(), 0.0))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[5 * sid + 4] = time.perf_counter()
        self._stack.pop()

    def _rows(self):
        sp = self.spans
        for sid in range(len(self)):
            nid, parent, op, start, end = sp[5 * sid : 5 * sid + 5]
            # A span the deadline cut before it was closed counts as empty.
            yield sid, self.names[int(nid)], int(parent), int(op), start, max(start, end)

    def _wrap(self, name: str, fn, hook):
        tracer = self
        if name in GENERATORS:
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = tracer._open(name)
                    try:
                        item = next(it, StopIteration)
                    finally:
                        tracer._close(sid)
                    if item is StopIteration:
                        return
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            tracer.counts[name + "_calls"] += 1
            if hook is not None:
                hook(tracer.counts, args, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lpsnav" or n.startswith("lpsnav."))]
        for mod_name, fn_name, hook in TARGETS:
            fn = getattr(importlib.import_module("lpsnav." + mod_name), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        rows = list(self._rows())
        child = [0.0] * len(rows)
        for _, _, parent, _, start, end in rows:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, _, _, start, end in rows:
            out[name] += end - start - child[sid]
        return out

    def write(self, path) -> None:
        """All spans as gzipped CSV, times in seconds from the first span."""
        t0 = self.spans[3] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="") as f:
            out = csv.writer(f)
            out.writerow(["span", "name", "parent", "op", "start", "end"])
            for sid, name, parent, op, start, end in self._rows():
                out.writerow([sid, name, parent, op, f"{start - t0:.7f}", f"{end - t0:.7f}"])


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json as {name: (value, unit)}."""
    c, st = tracer.counts, tracer.self_times()
    candidates = c["foursquares.candidates"]
    return {
        "navigator.solve_calls": (c["foursquares.solve_calls"], "count"),
        "navigator.self_s": (st["navigator.diagonal_distance"]
                             + st["navigator.general_navigate"], "s"),
        "foursquares.build_form_calls": (c["foursquares.build_form_calls"], "count"),
        "foursquares.build_form_s": (st["foursquares.build_form"], "s"),
        "foursquares.solve_s": (st["foursquares.solve"], "s"),
        "foursquares.enumerate_s": (st["foursquares.enumerate_candidates"], "s"),
        "foursquares.candidates": (candidates, "count"),
        "foursquares.found": (c["foursquares.found"], "count"),
        "foursquares.absent": (c["foursquares.absent"], "count"),
        "foursquares.unknown": (c["foursquares.unknown"], "count"),
        "foursquares.found_per_candidate": (
            c["foursquares.found"] / candidates if candidates else 0.0, "ratio"),
        "lattice2.gauss_reduce_calls": (c["lattice2.gauss_reduce_calls"], "count"),
        "lattice2.gauss_reduce_s": (st["lattice2.gauss_reduce"], "s"),
        "lattice2.particular_solution_s": (st["lattice2.particular_solution"], "s"),
        "lattice2.congruence_lattice_s": (st["lattice2.congruence_lattice"], "s"),
        "lattice2.shortest_coset_vector_s": (st["lattice2.shortest_coset_vector"], "s"),
        "ntheory.is_prime_calls": (c["ntheory.is_prime_calls"], "count"),
        "ntheory.is_prime_true": (c["ntheory.is_prime_true"], "count"),
        "ntheory.is_prime_s": (st["ntheory.is_prime"], "s"),
        "ntheory.two_squares_prime_s": (st["ntheory.two_squares_prime"], "s"),
        "ntheory.factor_calls": (c["ntheory.factor_calls"], "count"),
        "ntheory.factor_s": (st["ntheory.factor"], "s"),
        "ntheory.factor_incomplete": (c["ntheory.factor_incomplete"], "count"),
        "quaternion.peel_calls": (c["quaternion.factor_into_generators_calls"], "count"),
        "quaternion.peel_letters": (c["quaternion.peel_letters"], "count"),
        "quaternion.peel_s": (st["quaternion.factor_into_generators"], "s"),
        "quaternion.evaluate_letters": (c["quaternion.evaluate_letters"], "count"),
        "quaternion.evaluate_s": (st["quaternion.evaluate_word"], "s"),
        "cayley_oracle.build_s": (st["cayley_oracle.build_graph"], "s"),
        "cayley_oracle.bfs_s": (st["cayley_oracle.bfs_distances"], "s"),
        "cayley_oracle.vertices": (c["cayley_oracle.vertices"], "count"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
