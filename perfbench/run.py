"""lpsnav benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One single-threaded process drives the library's public API as a closed loop
with one client: the next op starts when the previous one has returned. Run
from the root of a source checkout; the library is imported from its `src/`.

--trace 0 sets the workload up `setup_reps` times, then times ops until their
summed latency reaches --seconds, and reports the end-to-end metrics.
--trace 1 times ops untraced for half of --seconds, runs the same inputs again
with every layer boundary traced, and reports per-layer counts and self
times; spans are written to .perfbench/. Each answer is checked right after
its op, outside the timed region. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it is a
report with failure kinds, failed inputs and digests of the outputs.
--workload all runs every workload in a fresh process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST_HEAD = 16  # ops in the seed-comparable digest; later ops depend on speed


class Deadline(BaseException):
    """Raised in the op by SIGALRM when the per-op deadline passes."""


def _import_library():
    src = ROOT / "src"
    if not (src / "lpsnav" / "__init__.py").is_file():
        sys.exit(f"error: no lpsnav sources under {src}; run from a source checkout")
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    import lpsnav

    if Path(lpsnav.__file__).resolve().parent != src / "lpsnav":
        sys.exit(f"error: imported lpsnav from {lpsnav.__file__}, not from {src}")


class Clock:
    """Per-op deadline via ITIMER_REAL; the scan loops are pure Python, so the
    signal interrupts them between bytecodes."""

    def __init__(self) -> None:
        from lpsnav.errors import BudgetExhausted

        self.budget_exhausted = BudgetExhausted  # HMaxExceeded included
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise Deadline()

    def run(self, fn, x, deadline: float):
        """(result or None, failure kind or None, latency in seconds)."""
        kind = result = None
        start = time.perf_counter()
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            result = fn(x)
        except Deadline:
            kind = "timeout"
        except self.budget_exhausted:
            kind = "budget"
        except Exception as exc:  # any library error is a failed op, not a crash
            kind = f"error:{type(exc).__name__}"
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        return result, kind, time.perf_counter() - start


class Phase:
    """What a timed phase keeps per op: little, so that peak_rss_mb does not
    grow with throughput."""

    def __init__(self) -> None:
        self.busy = 0.0  # summed op latency, seconds
        self.lat: list[float] = []  # per op; a failed op at least its deadline
        self.word_lens: list[int] = []  # passed ops only
        self.failures: list[list[str]] = []  # [input, kind]
        self.head = hashlib.sha256()  # first DIGEST_HEAD ops
        self.all = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.lat)

    def add(self, desc: str, result, kind, dt: float, deadline: float) -> None:
        line = f"{desc}|{kind or 'ok'}|"
        if result is not None:
            line += f"{result[0]}|{','.join(map(str, result[1]))}"
        line = line.encode() + b"\n"
        if self.attempted < DIGEST_HEAD:
            self.head.update(line)
        self.all.update(line)
        self.busy += dt
        # A failed op counts as missing every latency limit: at least its deadline.
        self.lat.append(dt if kind is None else max(dt, deadline))
        if kind is None:
            self.word_lens.append(len(result[1]))
        else:
            self.failures.append([desc, kind])


def timed_phase(w, s, xs, seconds, clock, tracer=None) -> Phase:
    """Run ops on inputs from `xs` until their summed latency reaches `seconds`;
    check each answer after its op, outside the timed region."""
    import workloads

    fn = workloads.op(w, s)
    ph = Phase()
    for x in xs:
        if ph.busy >= seconds:
            break
        if tracer is not None:
            tracer.begin_op(ph.attempted)
        result, kind, dt = clock.run(fn, x, w.deadline_s)
        desc = workloads.describe(x)
        if kind is None:
            why = workloads.check(x, result[0], result[1], s)
            if why is not None:
                kind = "wrong"
                print(f"wrong answer for {desc}: {why}", file=sys.stderr)
        ph.add(desc, result, kind, dt, w.deadline_s)
    return ph


def end_to_end(ph: Phase, setup_times) -> dict:
    lat, ok = ph.lat, len(ph.word_lens)
    return {
        "ops_per_s": (ok / ph.busy, "1/s"),
        "lat_p50_s": (statistics.median(lat), "s"),
        "lat_p90_s": (statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0], "s"),
        "ok_frac": (ok / ph.attempted, "ratio"),
        "word_len_mean": (statistics.fmean(ph.word_lens) if ok else 0.0, "letters"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    _import_library()
    import workloads
    from tracing import Tracer, layer_metrics

    if name not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[name]
    setup_times = []
    s = None
    for _ in range(w.setup_reps):
        s = None  # free the previous set-up first, so peak_rss_mb holds one
        gc.collect()
        start = time.perf_counter()
        s = workloads.set_up(w)
        setup_times.append(time.perf_counter() - start)
    clock = Clock()
    extra = {"setup_reps": w.setup_reps, "deadline_s": w.deadline_s}
    problems = []

    def same_inputs(n):
        return list(itertools.islice(workloads.inputs(w, s, seed), n))

    if not trace:
        ph = timed_phase(w, s, workloads.inputs(w, s, seed), seconds, clock)
        metrics = end_to_end(ph, setup_times)
        extra["timed_s"] = ph.busy
    else:
        ph = timed_phase(w, s, workloads.inputs(w, s, seed), seconds / 2, clock)
        xs = same_inputs(ph.attempted)  # generated before tracing starts
        tracer = Tracer()
        tracer.install()
        try:
            s = workloads.set_up(w)  # traced once, for the set-up layers
            traced = timed_phase(w, s, xs, float("inf"), clock, tracer)
        finally:
            tracer.uninstall()
        extra["digest_traced"] = traced.all.hexdigest()
        if traced.all.digest() != ph.all.digest():
            problems.append("traced outputs differ from untraced outputs")
        metrics = layer_metrics(tracer, traced.busy / ph.busy - 1)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{name}-seed{seed}.csv.gz")
        extra["spans"] = len(tracer)

    if w.oracle:
        problems += workloads.check_oracle_heights(s)
    else:
        regimes = [workloads.regime(v, s) for v in same_inputs(ph.attempted)]
        extra["hole_regime_inputs"] = regimes.count("hole")
    if any(kind == "wrong" for _, kind in ph.failures):
        problems.append("wrong answers")
    kinds = {}
    for _, kind in ph.failures:
        kinds[kind] = kinds.get(kind, 0) + 1
    report = {
        "workload": w.name,
        "seed": seed,
        "attempted": ph.attempted,
        "fail_frac": len(ph.failures) / ph.attempted,
        "failures": kinds,
        "failed_inputs": ph.failures,
        "digest_head": ph.head.hexdigest(),
        "digest_all": ph.all.hexdigest(),
        **extra,
        "problems": problems,
    }
    print(json.dumps(report))
    return {
        "correct": not problems,
        "attempted": ph.attempted,
        "failed": len(ph.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a fresh process, so peak_rss_mb is that workload's own."""
    _import_library()
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        for k, v in res["metrics"].items():
            print(f"{name:20s} {k:34s} {v['value']:.6g} {v['unit']}")
            total["metrics"][f"{name}/{k}"] = v
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    return total


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
