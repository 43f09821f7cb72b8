"""Benchmark for gpi: a theorem sweep and two verdict populations.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Run from the root of a checkout; the package is imported from `src/`.  Each
round imports gpi afresh, builds the workload's groups (set-up), then runs the
workload's operations once (the sweep).  Rounds repeat until the workload's
fewest rounds (three; five on verdicts-s7) have run and the sweeps have taken
`--seconds`.  Untraced runs report times in reference seconds (pace.py).
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
from pace import Pace
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 7
TRACE_MIN_ROUNDS = 4  # alternating untraced and traced


def wall(t0: float, t1: float) -> float:
    """Wall-clock seconds of a stretch of time.perf_counter."""
    return t1 - t0


def forget_gpi() -> None:
    """Drop every gpi module, and with them the groups and caches they hold.

    Called between rounds, outside the timed regions, so that no round pays
    for freeing the previous one and peak memory is that of a single round.
    """
    for name in [m for m in sys.modules if m == "gpi" or m.startswith("gpi.")]:
        del sys.modules[name]
    gc.collect()


def one_round(wl, seed, tracer=None, sweep=True):
    """Set up (import, build, materialise) and run one sweep; an untraced
    round then lets the workload time its verdicts again where the sweep could
    not time them on its own (`corpus`).

    Returns (state, round or None, set-up span, sweep span, root span), the
    spans as (start, end) on the workload's clock.
    """
    clock = wl.clock
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    root = tracer.open("bench.round") if tracer else None
    t0 = clock()
    with span("bench.setup"):
        # After forget_gpi() this is a cold import of the whole package.
        gpi = importlib.import_module("gpi")
        importlib.import_module("gpi.cli")
        if tracer:
            tracer.install()
        state = wl.setup(gpi, seed)
    t1 = clock()
    rnd = None
    if sweep:
        with span("bench.sweep"):
            rnd = wl.sweep(state)
    t2 = clock()
    if tracer:
        tracer.close(root)
    elif sweep:
        wl.retime(state, rnd)
    return state, rnd, (t0, t1), (t1, t2), root


def quantile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def per_piece_median(rounds: list[list[float]]) -> list[float]:
    """Each piece's median across rounds; every round lists the same pieces.

    On a shared machine the speed drifts for seconds at a time, in both
    directions; a piece's median across three or more rounds ignores one
    round that fell into such a stretch.
    """
    return [statistics.median(x) for x in zip(*rounds)]


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Untraced runs report reference seconds (see pace.py); traced runs
    time wall clock, without interruptions, so that self times and the
    tracing overhead are those of the engine alone."""
    pace = None if trace else Pace()
    clock, to_seconds = (time.perf_counter, wall) if trace else (pace.now, pace.seconds)
    pacing = contextlib.nullcontext() if trace else pace
    wl = WORKLOADS[name](clock)
    problems: list[str] = []
    digests: set[str] = set()
    sweeps = []
    # Per kind of round (traced or not): set-up times, verdict times, sweep parts.
    setups = {False: [], True: []}
    latencies = {False: [], True: []}
    parts = {False: [], True: []}
    layers: list[dict] = []
    dumps: list[dict] = []
    attempted = 0
    k = 0
    while k < (TRACE_MIN_ROUNDS if trace else wl.rounds) or sum(sweeps) < seconds:
        traced = trace and k % 2 == 1
        k += 1
        forget_gpi()
        tracer = tracing.Tracer() if traced else None
        try:
            with pacing:
                state, rnd, setup, sweep, root = one_round(wl, seed, tracer)
        except Exception as exc:  # a crash in the program is a wrong answer
            problems.append(f"round {k} raised {type(exc).__name__}: {exc}")
            break
        setup_s, sweep_s = to_seconds(*setup), to_seconds(*sweep)
        print(f"round {k}{' traced' if traced else ''}: set-up {setup_s:.4f} s, "
              f"sweep {sweep_s:.4f} s (wall {wall(*sweep):.4f} s), {rnd.ops} operations")
        sweeps.append(wall(*sweep))
        setups[traced].append(setup_s)
        latencies[traced].append(rnd.latency_seconds(to_seconds))
        parts[traced].append(rnd.piece_seconds(to_seconds))
        attempted += rnd.ops
        if traced:
            layers.append(tracer.layer_metrics(root))
            dumps.append(tracer.dump())
        problems += wl.check(state, rnd)
        digests.add(wl.digest(rnd))
        del state, rnd, tracer
    while not trace and not problems and len(setups[False]) < SETUP_SAMPLES:
        forget_gpi()
        with pacing:
            setup = one_round(wl, seed, sweep=False)[2]
        setups[False].append(to_seconds(*setup))

    if len(digests) > 1:
        problems.append("rounds disagree on the verdict digest")
    if len({len(x) for x in latencies[False]}) > 1 or \
            len({len(x) for x in parts[False] + parts[True]}) > 1:
        problems.append("rounds disagree on the number of verdicts or sweep parts")
    for line in problems[:20]:
        print(f"PROBLEM {line}")
    ref = json.loads(DIGESTS.read_text()).get(name) if DIGESTS.exists() else None
    for d in sorted(digests):
        status = "none" if ref is None else ("match" if d == ref else "differs")
        print(f"digest {name} {d} reference {status}")

    metrics = {}
    if trace and not problems:
        # Wall time of a round with tracing minus without: median set-up plus
        # the sweep estimated as for sweep_s.
        overhead = (
            statistics.median(setups[True]) + sum(per_piece_median(parts[True]))
            - statistics.median(setups[False]) - sum(per_piece_median(parts[False]))
        )
        for metric, unit, _ in tracing.PER_LAYER:
            if metric == "trace.overhead_s":
                value = overhead
            else:
                value = statistics.median(m[metric] for m in layers)
            metrics[metric] = {"value": value, "unit": unit}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{name}-seed{seed}.json"
        path.write_text(json.dumps({"workload": name, "seed": seed, "rounds": dumps}))
        print(f"trace {path.relative_to(ROOT)}: {len(dumps)} traced round(s), "
              f"{sum(len(d['spans']) for d in dumps)} spans")
    elif not problems:
        lat = per_piece_median(latencies[False])
        values = {
            "setup_s": (statistics.median(setups[False]), "s"),
            "sweep_s": (sum(per_piece_median(parts[False])), "s"),
            "verdicts_per_s": (len(lat) / sum(lat), "1/s"),
            "verdict_p50_ms": (1e3 * quantile(lat, 50), "ms"),
            "verdict_p99_ms": (1e3 * quantile(lat, 99), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {m: {"value": v, "unit": u} for m, (v, u) in values.items()}
        print(f"{name}: {len(sweeps)} rounds, {len(lat)} verdicts timed in each, "
              f"{len(setups[False])} set-ups; {len(pace.took)} speed samples, kernel "
              f"median {1e3 * statistics.median(pace.took):.3f} ms, quartiles "
              f"{' '.join(f'{1e3 * q:.3f}' for q in statistics.quantiles(pace.took, n=4)[::2])} ms")
    for metric, m in metrics.items():
        print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
    return {"correct": not problems, "attempted": max(attempted, 1), "failed": 0,
            "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    worst = 0
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print(json.dumps({"workloads": results}))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gpi" / "__init__.py").is_file():
        print(f"error: no gpi sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
