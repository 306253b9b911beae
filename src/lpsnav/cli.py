"""Command-line front end.

Exit codes: 0 success, 1 a failed `verify` check, 2 bad parameters (including
argparse errors), 3 budget or certification exhaustion (a four-squares
"unknown" counts), 141 stdout closed by its reader before the output was
written (no traceback; 128 + SIGPIPE, as a shell reports a writer killed by
SIGPIPE).  JSON output is canonical — sorted keys, two-space indent;
integers that may exceed 2^53 are emitted as decimal strings.  Wall-clock
time goes to stderr so stdout stays machine-readable.  The payload schemas
live with the tests (`tests/schemas.py`), which check every command's output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from random import Random
from typing import Optional, Sequence

from .cayley_oracle import (
    bfs_distances,
    build_graph,
    diagonal_distance_census,
    diagonal_vertices,
)
from .errors import BudgetExhausted, ParameterError
from .foursquares import FourSquaresInstance, solve
from .navigator import (
    DiagonalVertex,
    NavConfig,
    diagonal_distance,
    general_navigate,
    predicted_bounds,
    typical_height_bound,
)
from .npreduction import NpInstance, decode, reduce_subset_sum
from .quaternion import GraphParams, PslElement

__all__ = ["main"]


# The NavConfig fields as flags.  A command adds the ones its handler reads;
# an omitted flag is absent from the namespace, so NavConfig's own defaults apply.
_NAV_FLAGS = {
    "mode": dict(
        choices=["auto", "exact", "fast"],
        help="exact certifies minimality; fast settles for cheap certificates",
    ),
    "gamma": dict(type=float),
    "c_gamma": dict(type=float),
    "h_max_slack": dict(type=int),
    "budget_rho": dict(type=int, help="iteration budget for Pollard-rho factoring"),
    "s_cap": dict(type=int),
}


def _config(args: argparse.Namespace) -> NavConfig:
    return NavConfig(**{k: v for k, v in vars(args).items() if k in _NAV_FLAGS})


def _solution_dict(sol: Optional[tuple[int, int, int, int]]) -> Optional[dict]:
    if sol is None:
        return None
    return {"x": str(sol[0]), "y": str(sol[1]), "z": str(sol[2]), "w": str(sol[3])}


def _cmd_navigate_diagonal(args) -> tuple[dict, int]:
    params = GraphParams(args.p, args.q)
    vertex = DiagonalVertex(args.q, args.a, args.b)
    cfg = _config(args)
    res = diagonal_distance(params, vertex, cfg)
    payload = {
        "p": args.p,
        "q": str(args.q),
        "a": str(args.a),
        "b": str(args.b),
        "h": res.h,
        "word": res.names(params),
        "word_indices": list(res.word),
        "solution": _solution_dict(res.solution),
        "mode": cfg.mode,
    }
    return payload, 0


def _cmd_four_squares(args) -> tuple[dict, int]:
    inst = FourSquaresInstance(args.n, args.modulus, args.r1, args.r2)
    cfg = _config(args)
    res = solve(inst, mode=cfg.mode, budget_rho=cfg.budget_rho)
    payload = {
        "n": str(args.n),
        "modulus": str(args.modulus),
        "r1": str(args.r1),
        "r2": str(args.r2),
        "status": res.status,
        "solution": _solution_dict(res.solution),
        "tried": res.tried,
    }
    return payload, 3 if res.status == "unknown" else 0


def _cmd_navigate(args) -> tuple[dict, int]:
    params = GraphParams(args.p, args.q)
    g = PslElement.canonical(args.q, (args.m11, args.m12, args.m21, args.m22))
    cfg = _config(args)
    res = general_navigate(params, g, cfg)
    names = params.gens.names
    payload = {
        "p": args.p,
        "q": str(args.q),
        "matrix": [str(x) for x in g.m],
        "word": [names[i] for i in res.word],
        "word_indices": list(res.word),
        "length": len(res.word),
        "s_index": res.s_index,
        "s_word": [names[i] for i in res.s_word],
        "xyz": [str(v) for v in res.xyz],
        "factor_heights": list(res.factor_heights),
    }
    return payload, 0


def _cmd_predict_bounds(args) -> tuple[dict, int]:
    params = GraphParams(args.p, args.q)
    vertex = DiagonalVertex(args.q, args.a, args.b)
    rep = predicted_bounds(params, vertex, _config(args))
    payload = {
        "p": args.p,
        "q": str(args.q),
        "a": str(args.a),
        "b": str(args.b),
        "u1": [str(rep.u1[0]), str(rep.u1[1])],
        "u2": [str(rep.u2[0]), str(rep.u2[1])],
        "regime": rep.regime,
        "hole_bound": rep.hole_bound,
        "typical_bound": rep.typical_bound,
        "h_max": rep.h_max,
    }
    return payload, 0


def _cmd_verify(args) -> tuple[dict, int]:
    params = GraphParams(args.p, args.q)
    graph = build_graph(params)
    dist = bfs_distances(graph)
    threshold = typical_height_bound(params, _config(args))
    rows = diagonal_distance_census(graph, threshold=threshold)
    connected = -1 not in dist
    # A Cayley graph has a self-loop exactly when a generator image is trivial.
    simple = PslElement.identity(args.q) not in params.gen_images
    census = [
        {
            "h": r.h,
            "count_at_least": r.count_at_least,
            "bound": None if r.bound is None else float(r.bound),
        }
        for r in rows
    ]
    census_ok = all(
        r.count_at_least <= r.bound for r in rows if r.bound is not None
    )
    ok = (
        connected
        and simple
        and len(graph) == params.vertex_count
        and census_ok
    )
    payload = {
        "p": args.p,
        "q": str(args.q),
        "order": len(graph),
        "expected_order": params.vertex_count,
        "degree": args.p + 1,
        "connected": connected,
        "simple": simple,
        "diagonal_count": len(diagonal_vertices(params)),
        "threshold": threshold,
        "census": census,
        "census_ok": census_ok,
        "ok": ok,
    }
    return payload, 0 if ok else 1


def _cmd_np_reduce(args) -> tuple[dict, int]:
    inst = reduce_subset_sum(
        args.targets, args.target, rng=Random(args.seed), q_mode=args.q_mode
    )
    return inst.to_json_dict(), 0


def _cmd_np_decode(args) -> tuple[dict, int]:
    try:
        if args.instance == "-":
            raw = sys.stdin.read()
        else:
            raw = Path(args.instance).read_text()
        inst = NpInstance.from_json_dict(json.loads(raw))
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise ParameterError(f"cannot read instance {args.instance!r}: {exc}") from exc
    res = decode(inst, args.x, args.y)
    payload = {
        "x": str(args.x),
        "y": str(args.y),
        "valid": res.valid,
        "epsilon": list(res.epsilon),
        "xi": [str(f) for f in res.xi],
        "subset_sum": res.subset_sum,
    }
    return payload, 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpsnav",
        description="Shortest-path navigation on LPS Ramanujan graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, positionals, nav=(), **kwargs):
        sp = sub.add_parser(name, **kwargs)
        for arg in positionals:
            sp.add_argument(arg, type=int)
        sp.add_argument(
            "--output",
            choices=["json", "text"],
            default="json",
            help="payload format on stdout (default: json)",
        )
        for field in nav:
            flag = "--" + field.replace("_", "-")
            sp.add_argument(flag, default=argparse.SUPPRESS, **_NAV_FLAGS[field])
        sp.set_defaults(handler=handler)
        return sp

    command(
        "navigate-diagonal", _cmd_navigate_diagonal, "p q a b".split(),
        nav=("mode", "h_max_slack", "budget_rho"),
        help="distance and word from the identity to diag(a+ib, a-ib)",
    )
    command(
        "four-squares", _cmd_four_squares, "n modulus r1 r2".split(),
        nav=("mode", "budget_rho"),
        help="solve x²+y²+z²+w²=n with x≡r1, y≡r2, z≡w≡0 (mod modulus)",
    )
    command(
        "navigate", _cmd_navigate, "p q m11 m12 m21 m22".split(), nav=tuple(_NAV_FLAGS),
        help="word for an arbitrary PSL2(F_q) element, given row-major entries",
    )
    command(
        "predict-bounds", _cmd_predict_bounds, "p q a b".split(),
        nav=("gamma", "c_gamma", "h_max_slack"), aliases=["predict"],
        help="lattice geometry and height bounds for a diagonal vertex",
    )
    command(
        "verify", _cmd_verify, "p q".split(), nav=("gamma", "c_gamma"),
        help="BFS the whole graph (small q) and check structure + census",
    )
    sp = command(
        "np-reduce", _cmd_np_reduce, (),
        help="encode a subset-sum instance as Gaussian-prime congruence data",
    )
    sp.add_argument("targets", type=int, nargs="+")
    sp.add_argument("--target", type=int, required=True)
    sp.add_argument(
        "--q-mode", choices=["sequential", "randomized"], default="sequential"
    )
    sp.add_argument(
        "--seed", type=int, default=0, help="seed for the generator and prime lifts"
    )
    sp = command(
        "np-decode", _cmd_np_decode, "x y".split(),
        help="read the subset off a solution x²+y²=N of a reduced instance",
    )
    sp.add_argument(
        "--instance", default="-", help="instance JSON path, or - for stdin"
    )
    return parser


def _text_value(v) -> str:
    if v is None or isinstance(v, (dict, list, bool)):
        return json.dumps(v, sort_keys=True)
    return str(v)


def _text_lines(payload: dict, prefix: str = "") -> list[str]:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.extend(_text_lines(value, f"{prefix}{key}."))
        elif isinstance(value, list):
            lines.append(f"{prefix}{key}: {' '.join(_text_value(v) for v in value)}")
        else:
            lines.append(f"{prefix}{key}: {_text_value(value)}")
    return lines


def _emit(payload: dict, output: str) -> bool:
    """Print the payload; False when the reader closed stdout first."""
    if output == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = "\n".join(_text_lines(payload))
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush cannot
        # raise again (the recipe of the Python docs' signal module notes).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    code = 0
    try:
        payload, code = args.handler(args)
        if not _emit(payload, args.output):
            code = 141
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        code = 3
    finally:
        elapsed = time.perf_counter() - start
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
