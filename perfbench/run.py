"""Benchmark of the ``indicated`` package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

A workload is a closed loop in one process: one item at a time, like the CLI
with ``--jobs 1``.  It repeats passes over its seeded input set for about
``--seconds`` seconds, checks every answer against the seed code's reference
in ``data/``, and prints a report whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
passes alternate between untraced and traced, and the metrics are the
per-layer ones.  ``--workload all`` runs each workload in its own process.
README.md defines every metric.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("corpus-sandwich", "strategy-certify", "deep-solve", "classify")
SETUP_PROBES = 4      # set-ups in fresh processes besides the run's own
WARMUP_S = 0.5
MIN_PASSES = 2

END_TO_END = [
    ("items_per_s", "1/s", "higher"),
    ("item_p50_ms", "ms", "lower"),
    ("item_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]

PER_LAYER = [
    ("game.solver.busy_s", "s", "lower"),
    ("game.solver.calls", "count", "lower"),
    ("game.solver.nodes_per_s", "1/s", "higher"),
    ("game.solver.nodes", "count", "lower"),
    ("game.solver.memo_entries", "count", "lower"),
    ("game.solver.memo_hits", "count", "higher"),
    ("game.solver.memo_hit_ratio", "ratio", "higher"),
    ("game.solver.max_memo_entries", "count", "lower"),
    ("game.match.games", "count", "higher"),
    ("game.match.plies", "count", "higher"),
    ("game.match.busy_s", "s", "lower"),
    ("game.match.ben_reply.busy_s", "s", "lower"),
    ("game.match.ben_reply_p50_us", "us", "lower"),
    ("strategies.build.busy_s", "s", "lower"),
    ("strategies.next_vertex.calls", "count", "lower"),
    ("strategies.next_vertex.busy_s", "s", "lower"),
    ("strategies.notify.busy_s", "s", "lower"),
    ("game.oracles.calls", "count", "lower"),
    ("game.oracles.busy_s", "s", "lower"),
    ("detect.is_family_free.calls", "count", "lower"),
    ("detect.is_family_free.busy_s", "s", "lower"),
    ("detect.find_induced.busy_s", "s", "lower"),
    ("detect.certificates.busy_s", "s", "lower"),
    ("structure.recognize_expansion.calls", "count", "lower"),
    ("structure.recognize_expansion.busy_s", "s", "lower"),
    ("structure.decompose.calls", "count", "lower"),
    ("structure.decompose.busy_s", "s", "lower"),
    ("structure.decompose.failed", "count", "lower"),
    ("graphs.parse_graph6.busy_s", "s", "lower"),
    ("graphs.build.busy_s", "s", "lower"),
    ("reports.serialize.busy_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def tail(samples):
    """(value, percentile) at the highest percentile that keeps at least ten
    samples above it; the maximum when there are ten samples or fewer."""
    xs = sorted(samples)
    i = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def set_up(name, seed, tracer=None):
    """Import the package, read the inputs and build the items of one pass.
    Returns (workload, items, seconds taken)."""
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name]
    api = workloads.plain_api() if tracer is None else workloads.traced_api(tracer)
    items = workload.items(ROOT, seed, api)
    return workload, items, time.perf_counter() - start


def probe_set_up(name, seed):
    """Seconds one set-up takes in a fresh process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
         str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


class Pass:
    """One pass over the items: per-item seconds, the pass's timed seconds
    (items plus per-pass work), and what went wrong."""

    def __init__(self, times, wall, problems, layers=None):
        self.times = times
        self.wall = wall
        self.problems = problems
        self.layers = layers


def run_pass(workload, api, items):
    clock = time.perf_counter
    times, results = [], []
    for item in items:
        start = clock()
        try:
            result = workload.run(api, item)
        except Exception as exc:  # a failing item is counted; the run goes on
            result = exc
        times.append(clock() - start)
        results.append(result)
    start = clock()
    problems = []
    try:
        workload.finish_pass(api, results)
    except Exception as exc:
        problems.append(f"per-pass work: {type(exc).__name__}: {exc}")
    wall = sum(times) + clock() - start
    for item, result in zip(items, results):
        if isinstance(result, Exception):
            problem = f"{item.id}: raised {type(result).__name__}: {result}"
        else:
            try:
                problem = workload.judge(item, result)
            except Exception as exc:
                problem = f"{item.id}: judging raised {type(exc).__name__}: {exc}"
        if problem:
            problems.append(problem)
    return Pass(times, wall, problems)


def warm_up(workload, api, items):
    """Run the cheapest items (by seed solver nodes) for WARMUP_S, untimed."""
    order = sorted(items, key=lambda it: it.ref.get("counts", [0])[0])
    deadline = time.perf_counter() + WARMUP_S
    for item in order:
        if time.perf_counter() >= deadline:
            break
        try:
            workload.run(api, item)
        except Exception:  # counted when the timed passes run the item
            pass


def measure(workload, items, seconds, plain, tracer=None, traced=None):
    """Passes until about `seconds` are used: at least MIN_PASSES, and a new
    pass only when half of an average pass still fits.  With a tracer, odd
    passes are traced."""
    from indicated import game
    from spans import counting_solvers

    passes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (1 + 0.5 / len(passes)) >= seconds:
            return passes
        if tracer is not None and len(passes) % 2 == 1:
            tracer.reset()
            with counting_solvers(game, lambda: tracer.solver):
                p = run_pass(workload, traced, items)
            p.layers = snapshot(tracer)
        else:
            p = run_pass(workload, plain, items)
        passes.append(p)


def snapshot(tracer):
    replies = tracer.durations.get("game.match.ben_reply")
    return {"self": dict(tracer.self_s), "calls": dict(tracer.calls),
            "failed": dict(tracer.failed), "solver": tracer.solver,
            "reply_p50": statistics.median(replies) if replies else 0.0}


def layer_values(snap):
    """Per-layer metric values of one traced pass (or of the set-up)."""
    busy = snap["self"]
    calls = snap["calls"]
    solver = snap["solver"]

    def b(*layers):
        return sum(busy.get(layer, 0.0) for layer in layers)

    solver_busy = b("game.solver", "game.match.ben_reply")
    lookups = solver.nodes + solver.memo_hits
    return {
        "game.solver.busy_s": solver_busy,
        "game.solver.calls": solver.solvers,
        "game.solver.nodes_per_s": solver.nodes / solver_busy if solver_busy else 0.0,
        "game.solver.nodes": solver.nodes,
        "game.solver.memo_entries": solver.memo_entries,
        "game.solver.memo_hits": solver.memo_hits,
        "game.solver.memo_hit_ratio": solver.memo_hits / lookups if lookups else 0.0,
        "game.solver.max_memo_entries": solver.max_memo_entries,
        "game.match.games": calls.get("game.match", 0),
        "game.match.plies": calls.get("game.match.ben_reply", 0),
        "game.match.busy_s": b("game.match", "game.match.ben_build"),
        "game.match.ben_reply.busy_s": b("game.match.ben_reply"),
        "game.match.ben_reply_p50_us": snap["reply_p50"] * 1e6,
        "strategies.build.busy_s": b("strategies.build"),
        "strategies.next_vertex.calls": calls.get("strategies.next_vertex", 0),
        "strategies.next_vertex.busy_s": b("strategies.next_vertex"),
        "strategies.notify.busy_s": b("strategies.notify"),
        "game.oracles.calls": calls.get("game.oracles", 0),
        "game.oracles.busy_s": b("game.oracles"),
        "detect.is_family_free.calls": calls.get("detect.is_family_free", 0),
        "detect.is_family_free.busy_s": b("detect.is_family_free"),
        "detect.find_induced.busy_s": b("detect.find_induced"),
        "detect.certificates.busy_s": b("detect.certificates"),
        "structure.recognize_expansion.calls": calls.get("structure.recognize_expansion", 0),
        "structure.recognize_expansion.busy_s": b("structure.recognize_expansion"),
        "structure.decompose.calls": calls.get("structure.decompose", 0),
        "structure.decompose.busy_s": b("structure.decompose"),
        "structure.decompose.failed": snap["failed"].get("structure.decompose", 0),
        "graphs.parse_graph6.busy_s": b("graphs.parse_graph6"),
        "graphs.build.busy_s": b("graphs.build"),
        "reports.serialize.busy_s": b("reports.serialize"),
    }


def per_layer(setup_snap, passes):
    """Counts from the first traced pass (they repeat exactly), times as the
    median over traced passes; graph building and parsing at set-up are
    added to the graphs layer."""
    traced = [p for p in passes if p.layers is not None]
    values = [layer_values(p.layers) for p in traced]
    setup = layer_values(setup_snap)
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_s":
            untraced = [p.wall for p in passes if p.layers is None]
            value = (statistics.median(p.wall for p in traced)
                     - statistics.median(untraced))
        elif unit == "count":
            value = values[0][name]
        else:
            value = statistics.median(v[name] for v in values)
        if name.startswith("graphs."):
            value += setup[name]
        out[name] = (value, unit)
    return out


def end_to_end(items, passes, setup_s):
    # an item's time is its median over passes, which keeps bursts of
    # machine noise out of the throughput and the percentiles
    times = [statistics.median(ts) for ts in zip(*(p.times for p in passes))]
    per_pass = statistics.median(p.wall - sum(p.times) for p in passes)
    tail_s, percentile = tail(times)
    metrics = {
        "items_per_s": (len(items) / (sum(times) + per_pass), "1/s"),
        "item_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return metrics, f"p{percentile:.2f} of {len(times)} items"


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(seed):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
    }


def count_record(items, passes):
    """Solver counts of the first traced pass against the seed record."""
    got = next(p.layers["solver"] for p in passes if p.layers is not None).triple()
    refs = [it.ref.get("counts") for it in items]
    if any(r is None for r in refs):
        return f"nodes, memo_entries, memo_hits = {got}; seed record incomplete"
    want = [sum(r[i] for r in refs) for i in range(3)]
    verdict = "match" if got == want else "DRIFT (reported, not counted as an error)"
    return f"nodes, memo_entries, memo_hits = {got}; seed record {want}: {verdict}"


def run_one(args):
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    workload, items, own_setup = set_up(args.workload, args.seed, tracer)
    import workloads

    plain = workloads.plain_api()
    if tracer is None:
        setup_s = statistics.median(
            [own_setup] + [probe_set_up(args.workload, args.seed)
                           for _ in range(SETUP_PROBES)])
    else:
        setup_snap = snapshot(tracer)
    warm_up(workload, plain, items)
    traced = workloads.traced_api(tracer) if tracer else None
    passes = measure(workload, items, args.seconds, plain, tracer, traced)

    problems = [msg for p in passes for msg in p.problems]
    attempted = len(items) * len(passes)
    failed = len(problems)
    print(f"# workload {workload.name}: {' '.join(workload.__doc__.split())}")
    print(f"# env {json.dumps(env_stamp(args.seed))}")
    print(f"# {len(passes)} passes of {len(items)} items, set-up {own_setup:.3f} s")
    if tracer is None:
        metrics, tail_note = end_to_end(items, passes, setup_s)
    else:
        metrics, tail_note = per_layer(setup_snap, passes), None
        print(f"# solver counts per pass: {count_record(items, passes)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({tail_note})" if name == "item_tail_ms" else ""
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:40s} {shown} {unit}{note}")
    print(f"{'error_rate':40s} {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    for msg in problems[:10]:
        print(f"problem: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process, so peak RSS is the workload's."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        if out.returncode or not lines:
            print(f"# {name}: exit code {out.returncode}")
            combined["correct"] = False
            status = status or out.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print the seconds of one set-up and exit (used for setup_s)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "indicated" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        print(set_up(args.workload, args.seed)[2])
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
