"""Command-line front end.

Exit codes: 0 success, 1 a failed `verify` check, 2 bad parameters (including
argparse errors), 3 budget or certification exhaustion (a four-squares
"unknown" counts), 141 stdout closed by its reader before the output was
written (no traceback; 128 + SIGPIPE, as a shell reports a writer killed by
SIGPIPE).  JSON output is canonical — sorted keys, two-space indent — and
validated against the schema table before printing; integers that may exceed
2^53 are emitted as decimal strings.  Wall-clock time goes to stderr so stdout
stays machine-readable.
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
from .ntheory import DEFAULT_RHO_BUDGET
from .quaternion import GraphParams, PslElement
from .schemas import SCHEMAS, validate

__all__ = ["main"]


def _env(name: str, cast, default):
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return cast(raw)
    except ValueError:
        print(f"error: invalid value for {name}: {raw!r}", file=sys.stderr)
        raise SystemExit(2)


def _config(args: argparse.Namespace) -> NavConfig:
    return NavConfig(
        mode=args.mode,
        gamma=args.gamma,
        c_gamma=args.c_gamma,
        h_max_slack=args.h_max_slack,
        budget_rho=args.budget_rho,
        s_cap=args.s_cap,
    )


def _solution_dict(sol: Optional[tuple[int, int, int, int]]) -> Optional[dict]:
    if sol is None:
        return None
    return {"x": str(sol[0]), "y": str(sol[1]), "z": str(sol[2]), "w": str(sol[3])}


def _cmd_navigate_diagonal(args) -> tuple[str, dict, int]:
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
    return "navigate-diagonal", payload, 0


def _cmd_four_squares(args) -> tuple[str, dict, int]:
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
    return "four-squares", payload, 3 if res.status == "unknown" else 0


def _cmd_navigate(args) -> tuple[str, dict, int]:
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
    return "navigate", payload, 0


def _cmd_predict_bounds(args) -> tuple[str, dict, int]:
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
    return "predict-bounds", payload, 0


def _cmd_verify(args) -> tuple[str, dict, int]:
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
    return "verify", payload, 0 if ok else 1


def _cmd_np_reduce(args) -> tuple[str, dict, int]:
    inst = reduce_subset_sum(
        args.targets, args.target, rng=Random(args.seed), q_mode=args.q_mode
    )
    return "np-reduce", inst.to_json_dict(), 0


def _cmd_np_decode(args) -> tuple[str, dict, int]:
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
    return "np-decode", payload, 0


def _build_parser() -> argparse.ArgumentParser:
    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument(
        "--output",
        choices=["json", "text"],
        default=_env("LPSNAV_OUTPUT", str, "json"),
        help="payload format on stdout (default: json)",
    )
    cfg_parent = argparse.ArgumentParser(add_help=False)
    cfg_parent.add_argument(
        "--mode",
        choices=["auto", "exact", "fast"],
        default=_env("LPSNAV_MODE", str, "auto"),
        help="exact certifies minimality; fast settles for cheap certificates",
    )
    cfg_parent.add_argument(
        "--gamma", type=float, default=_env("LPSNAV_GAMMA", float, 0.75)
    )
    cfg_parent.add_argument(
        "--c-gamma", type=float, default=_env("LPSNAV_C_GAMMA", float, 4.0)
    )
    cfg_parent.add_argument(
        "--h-max-slack", type=int, default=_env("LPSNAV_H_MAX_SLACK", int, 4)
    )
    cfg_parent.add_argument(
        "--budget-rho",
        type=int,
        default=_env("LPSNAV_BUDGET_RHO", int, DEFAULT_RHO_BUDGET),
        help="iteration budget for Pollard-rho factoring",
    )
    cfg_parent.add_argument(
        "--s-cap", type=int, default=_env("LPSNAV_S_CAP", int, 4096)
    )
    cfg_parent.add_argument(
        "--seed",
        type=int,
        default=_env("LPSNAV_SEED", int, 0),
        help="seed for randomized steps (deterministic commands ignore it)",
    )

    parser = argparse.ArgumentParser(
        prog="lpsnav",
        description="Shortest-path navigation on LPS Ramanujan graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "navigate-diagonal",
        parents=[cfg_parent, out_parent],
        help="distance and word from the identity to diag(a+ib, a-ib)",
    )
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)
    sp.set_defaults(handler=_cmd_navigate_diagonal)

    sp = sub.add_parser(
        "four-squares",
        parents=[cfg_parent, out_parent],
        help="solve x²+y²+z²+w²=n with x≡r1, y≡r2, z≡w≡0 (mod modulus)",
    )
    sp.add_argument("n", type=int)
    sp.add_argument("modulus", type=int)
    sp.add_argument("r1", type=int)
    sp.add_argument("r2", type=int)
    sp.set_defaults(handler=_cmd_four_squares)

    sp = sub.add_parser(
        "navigate",
        parents=[cfg_parent, out_parent],
        help="word for an arbitrary PSL2(F_q) element, given row-major entries",
    )
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("m11", type=int)
    sp.add_argument("m12", type=int)
    sp.add_argument("m21", type=int)
    sp.add_argument("m22", type=int)
    sp.set_defaults(handler=_cmd_navigate)

    sp = sub.add_parser(
        "predict-bounds",
        aliases=["predict"],
        parents=[cfg_parent, out_parent],
        help="lattice geometry and height bounds for a diagonal vertex",
    )
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)
    sp.set_defaults(handler=_cmd_predict_bounds)

    sp = sub.add_parser(
        "verify",
        parents=[cfg_parent, out_parent],
        help="BFS the whole graph (small q) and check structure + census",
    )
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser(
        "np-reduce",
        parents=[cfg_parent, out_parent],
        help="encode a subset-sum instance as Gaussian-prime congruence data",
    )
    sp.add_argument("targets", type=int, nargs="+")
    sp.add_argument("--target", type=int, required=True)
    sp.add_argument(
        "--q-mode", choices=["sequential", "randomized"], default="sequential"
    )
    sp.set_defaults(handler=_cmd_np_reduce)

    sp = sub.add_parser(
        "np-decode",
        parents=[out_parent],
        help="read the subset off a solution x²+y²=N of a reduced instance",
    )
    sp.add_argument("x", type=int)
    sp.add_argument("y", type=int)
    sp.add_argument(
        "--instance", default="-", help="instance JSON path, or - for stdin"
    )
    sp.set_defaults(handler=_cmd_np_decode)

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
        name, payload, code = args.handler(args)
        validate(payload, SCHEMAS[name])
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
