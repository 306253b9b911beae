"""Workloads of the lpsnav benchmark: parameters, seeded inputs, ops and checks.

Each workload fixes a graph X_{p,q}, how to set it up, how to draw one input
from a seeded `random.Random`, the library call that is one operation, and an
answer check that takes a different path from the library's own evaluation:
a word's image is recomputed as a left-to-right product of the generator
matrices `params.gen_images` with `PslElement.__matmul__`, where the library
multiplies quaternions and maps the product once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import lpsnav.cayley_oracle as cayley_oracle
import lpsnav.navigator as navigator
from lpsnav.navigator import DiagonalVertex, NavConfig
from lpsnav.quaternion import GraphParams, PslElement

P = 5
# The 100-digit prime of the acceptance suite's criterion 3.
Q100 = 6513516734600035718300327211250928237178281758494417357560086828416863929270451437126021949850746381
# Least prime >= 27182818284590452353 with q ≡ 1 (mod 4) and (5|q) = 1.
Q20 = 27182818284590452489
Q_ORACLE = 61


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    mode: str  # NavConfig mode of every library call
    # Per-op limit, far above the slowest successful op, so that only an op
    # that never returns hits it and a slow host does not turn a slow op into
    # a failure. On diag-exact-20d it also lies above the ~3 s a call takes to
    # exhaust the factoring budget, so that the library's own budget, not the
    # host's speed, decides whether an op fails.
    deadline_s: float
    setup_reps: int  # set-ups per run; setup_s is their median
    oracle: bool = False  # set up the BFS oracle and navigate general elements
    hole_lt: int = 0  # > 0: diagonal inputs with 1 <= a, b < hole_lt, regime "hole"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("diag-typical-100d", Q100, "fast", deadline_s=10.0, setup_reps=9),
        Workload("diag-exact-20d", Q20, "exact", deadline_s=15.0, setup_reps=25),
        Workload("oracle-61", Q_ORACLE, "auto", deadline_s=1.0, setup_reps=3, oracle=True),
        # Not listed in BENCHMARK.json: about 3-4% of its seeded vertices never
        # return in fast mode (the candidate stream has no budget), so its
        # throughput depends on how many of them a run draws.
        Workload("diag-hole-100d", Q100, "fast", deadline_s=3.0, setup_reps=9, hole_lt=1000),
    )
}


@dataclass
class Setup:
    params: GraphParams
    cfg: NavConfig
    graph: Any = None  # CayleyGraph on oracle workloads
    dist: Any = None  # BFS distances from the identity on oracle workloads


def set_up(w: Workload) -> Setup:
    """All program work done before the first timed op."""
    params = GraphParams(P, w.q)
    cfg = NavConfig(mode=w.mode)
    if not w.oracle:
        return Setup(params, cfg)
    graph = cayley_oracle.build_graph(params)
    return Setup(params, cfg, graph, cayley_oracle.bfs_distances(graph))


def _is_qr(n: int, q: int) -> bool:
    return n % q != 0 and pow(n, (q - 1) // 2, q) == 1


def inputs(w: Workload, s: Setup, seed: int):
    """Endless seeded input stream; the same (workload, seed) gives the same stream."""
    rng = random.Random(f"{w.name}:{seed}")
    q = w.q
    while True:
        if w.oracle:
            m = [rng.randrange(q) for _ in range(4)]
            if _is_qr(m[0] * m[3] - m[1] * m[2], q):
                yield PslElement.canonical(q, m)
            continue
        if w.hole_lt:
            a, b = rng.randrange(1, w.hole_lt), rng.randrange(1, w.hole_lt)
        else:
            a, b = rng.randrange(q), rng.randrange(q)
        if not _is_qr(a * a + b * b, q):
            continue
        v = DiagonalVertex(q, a, b)
        if w.hole_lt and regime(v, s) != "hole":
            raise ValueError(f"{w.name}: vertex ({a}, {b}) is not in the hole regime")
        yield v


def regime(v: DiagonalVertex, s: Setup) -> str:
    """"hole" or "typical", by the library's lattice-shape predicate.

    Uniform vertices are not asserted typical: at Q100 a few percent fall on
    the hole side of the predicate while navigating like a typical one."""
    return navigator.predicted_bounds(s.params, v, s.cfg).regime


def op(w: Workload, s: Setup) -> Callable[[Any], tuple[int, tuple[int, ...]]]:
    """The timed library call; returns (h, word). Looked up at call time so
    that a traced run reaches the wrapped function."""
    if w.oracle:
        def run(g):
            word = navigator.general_navigate(s.params, g, s.cfg).word
            return len(word), word
    else:
        def run(v):
            res = navigator.diagonal_distance(s.params, v, s.cfg)
            return res.h, res.word
    return run


def describe(x) -> str:
    """Stable text form of an input, for digests and failure reports."""
    if isinstance(x, DiagonalVertex):
        return f"({x.a}, {x.b})"
    return str(x.m)


def _image(word, s: Setup) -> PslElement:
    acc = PslElement.identity(s.params.q)
    for i in word:
        acc = acc @ s.params.gen_images[i]
    return acc


def _target(x, s: Setup) -> PslElement:
    if not isinstance(x, DiagonalVertex):
        return x
    q, i = s.params.q, s.params.sqrt_m1
    if i * i % q != q - 1:
        raise AssertionError("sqrt_m1 is not a square root of -1")
    return PslElement.canonical(q, (x.a + i * x.b, 0, 0, x.a - i * x.b))


def check(x, h: int, word, s: Setup) -> str | None:
    """Why the answer (h, word) for input x is wrong, or None when it is right."""
    if len(word) != h:
        return f"len(word) = {len(word)} != h = {h}"
    imgs = s.params.gen_images
    ident = PslElement.identity(s.params.q)
    if any(imgs[u] @ imgs[v] == ident for u, v in zip(word, word[1:])):
        return "word backtracks"
    if _image(word, s) != _target(x, s):
        return "word does not evaluate to the input"
    if s.dist is not None:
        d = s.dist[s.graph.vertex_index(x)]
        if h < d:
            return f"word of length {h} is shorter than the BFS distance {d}"
    return None


def check_oracle_heights(s: Setup) -> list[str]:
    """On an oracle workload, every diagonal vertex's exact height must equal
    its BFS distance; returns one message per mismatch."""
    cfg = NavConfig(mode="exact")
    bad = []
    for v in cayley_oracle.diagonal_vertices(s.params):
        h = navigator.diagonal_distance(s.params, v, cfg).h
        d = s.dist[s.graph.vertex_index(_target(v, s))]
        if h != d:
            bad.append(f"diagonal vertex {describe(v)}: exact h = {h}, BFS distance {d}")
    return bad
