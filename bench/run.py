"""Seeded closed-loop benchmark of the bsgeo pipeline.

Run from the repository root:

    python3 bench/run.py --workload horo_bigint --seed 3 --seconds 20 --trace 0

One process, one thread, one caller: each call starts after the previous
one returned.  Inputs come from ``--seed``; every output is checked right
after its call, outside the timed interval.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
runs the traced pass and prints the per-layer metrics.  The last line of
stdout is the result object; the line before it carries the environment,
the size curves and the tail percentile.  Results and spans are written to
``bench/results/``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("calls_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("error_ratio", "ratio"),
    ("digits_exponent", "slope"),
    ("cli_call_ms", "ms"),
)

SETUP_REPEATS = 9
CLI_REPEATS = 15
TRACE_CLI_REPEATS = 5
WARMUP_SECONDS = 1.5
TRACE_PASS_SHARE = 0.35
"""Share of ``--seconds`` the untraced pass of the traced run takes."""
PROBE_SHARE = 0.25
"""Share of ``--seconds`` the probe pass of the traced run may take."""
CHILD_TIMEOUT = 60
CLOCK = time.thread_time
"""The clock of every end-to-end time: CPU time of the timing thread.

The benchmark is one thread on a share of a host.  Wall time also counts
the time the scheduler or the hypervisor gives to someone else, which on a
busy host adds milliseconds to a tenth of the calls at random.  CPU time
counts only the time the program runs; the speed kernels (below) correct
for the CPU running it slower or faster."""
CAL_EVERY = 0.02
"""Seconds of timed work between two runs of the speed kernel."""

SETUP_SNIPPET = """
import statistics, time
CLOCK = time.thread_time
{source}
before = statistics.fmean({kernel}() for _ in range(5))
t0 = CLOCK()
import bsgeo
for p, q in {pairs!r}:
    bsgeo.base_table(bsgeo.GroupParams(p, q))
dt = CLOCK() - t0
after = statistics.fmean({kernel}() for _ in range(5))
print(dt * 2 * {ref!r} / (before + after))
"""


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a child interpreter on the package under ``src`` and wait for it."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT
    )


def environment(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit or "unknown",
    }


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

def speed_kernel() -> float:
    """Seconds for a fixed piece of pure-Python work that does not touch bsgeo.

    On a shared machine the speed of the CPU changes by up to 2x within
    seconds.  Timings are scaled by (the kernel's time at reference speed)
    / (its time around them), so they read as seconds at reference speed.
    bsgeo changes cannot move the kernel.
    """
    t0 = CLOCK()
    acc = 0
    d = {}
    for i in range(4000):
        acc = (acc * 31 + i) % 1000003
        d[i & 127] = acc
    "".join(map(str, range(500)))
    return CLOCK() - t0


def walk_kernel(
    _buf=bytearray(range(256)) * 4096,
    _idx=[(i * 2654435761) % (1 << 20) for i in range(6000)],
) -> float:
    """``speed_kernel`` plus 6000 scattered reads from a 1 MiB buffer.

    When the machine is busy, code that misses the caches slows down more
    than ``speed_kernel`` does: on a 2-vCPU VM the slow/fast ratio was
    about 1.35 to 1.55 for ``speed_kernel``, ``hill_flanks`` and
    ``oracle_sweep``, but 1.65 to 1.9 for ``pnf_divides``, and this kernel
    matched it.  The buffer is built once, as a default argument, so the
    function's source stands alone in the set-up child.
    """
    t = speed_kernel()
    t0 = CLOCK()
    acc = 0
    for i in _idx:
        acc += _buf[i]
    return t + CLOCK() - t0


class Kernel(NamedTuple):
    """A speed kernel and the seconds it takes at reference speed (about its
    typical time on a busy 2.0 GHz x86-64 VM with CPython 3.11)."""

    run: Callable[[], float]
    ref: float

    def mean(self, n: int = 5) -> float:
        return statistics.fmean(self.run() for _ in range(n))


KERNELS = {"interp": Kernel(speed_kernel, 1e-3), "walk": Kernel(walk_kernel, 2e-3)}
"""Each workload names the kernel that slows down most like it does."""


# ---------------------------------------------------------------------------
# subprocess measurements
# ---------------------------------------------------------------------------

def children_cpu_s() -> float:
    """CPU seconds, user and system, of all children waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(pairs, kernel: Kernel) -> float:
    """Median seconds a fresh interpreter takes to import bsgeo and build base tables."""
    code = SETUP_SNIPPET.format(
        source=inspect.getsource(speed_kernel) + inspect.getsource(walk_kernel),
        kernel=kernel.run.__name__,
        pairs=[(p.p, p.q) for p in pairs],
        ref=kernel.ref,
    )
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = run_child([sys.executable, "-c", code])
        out.check_returncode()
        if i:  # the first run writes the bytecode caches
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure_cli(word, expected: str, repeats: int, kernel: Kernel) -> tuple[float, float, int]:
    """Median ms of ``python -m bsgeo ... pnf <word>``, and the failure count.

    The time of a child is its CPU time, user and system (see ``CLOCK``).
    Returns (median at reference speed, raw median, failures).  Each child
    is scaled by kernel runs just before and after it, on the CPU it shares
    with this process.
    """
    from layers import cli_argv

    argv = [sys.executable, "-m", "bsgeo", *cli_argv(word)]
    times, raw, failed = [], [], 0
    for i in range(repeats + 1):
        before = kernel.mean()
        t0 = children_cpu_s()
        out = run_child(argv)
        dt = children_cpu_s() - t0
        if i:
            raw.append(dt)
            times.append(dt * 2 * kernel.ref / (before + kernel.mean()))
            failed += out.returncode != 0 or out.stdout != expected
    return 1e3 * statistics.median(times), 1e3 * statistics.median(raw), failed


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Row(NamedTuple):
    """One timed item, kept small so the benchmark's own bookkeeping stays
    out of the garbage collector's way."""

    cls: str
    kind: str
    size: int
    pair: tuple[int, int]
    latency: float  # seconds at reference speed
    failure: str | None
    key: object = None  # the input, on workloads that repeat their inputs


def closed_loop(blocks, seconds: float, record, check, key=None, kernel=KERNELS["interp"]):
    """Run items for ``seconds`` of reference-speed time.

    ``record(item)`` performs one timed call and returns its output, which
    ``check(item, output, index)`` verifies right after, outside the timed
    interval; the output is then dropped.  Returns (rows, block ends, first
    block), where each block end is (rows so far, call items so far) after
    a complete block, and the first block is its (item, output) pairs, kept
    for the digest.  ``key(item)``, when given, names each row's input (see
    ``input_latencies``).  The speed kernel runs between calls.  Stopping on
    reference-speed time makes the amount of work, and so the call count,
    independent of how fast the machine happens to be.
    """
    raw = []
    ends = []
    first = []
    calls = 0
    clock = CLOCK
    kernels = [kernel.run()]
    elapsed = 0.0  # reference-speed seconds, at the latest kernel speed
    last = clock()
    for b, block in enumerate(blocks):
        for item in block:
            t0 = clock()
            try:
                out = record(item)
            except Exception as exc:  # an unexpected error is a failed call
                out = exc
            t1 = clock()
            if isinstance(out, Exception):
                why = f"{type(out).__name__}: {out}"
            else:
                why = check(item, out, len(raw))
            if b == 0:
                first.append((item, out))
            pair = (item.params.p, item.params.q)
            k = key(item) if key else None
            raw.append((item.cls, item.kind, item.size, pair, t1 - t0, len(kernels) - 1, why, k))
            calls += item.kind == "call"
            elapsed += (t1 - t0) * kernel.ref / kernels[-1]
            if t1 - last >= CAL_EVERY:
                kernels.append(kernel.run())
                last = clock()
            if elapsed >= seconds:
                break
        else:
            ends.append((len(raw), calls))
            continue
        break
    kernels.append(kernel.run())
    # a call ran at the mean speed of the kernel runs just before and after it
    rows = [
        Row(cls, kind, size, pair, dt * 2 * kernel.ref / (kernels[k] + kernels[k + 1]), why, key)
        for cls, kind, size, pair, dt, k, why, key in raw
    ]
    return rows, ends, first


def no_check(item, out, index) -> None:
    return None


def warm_up(workload, seed: int, size_bound: bool = False) -> None:
    """Run inputs of another seed for a while: fills caches the way real use does.

    With ``size_bound``, first run one input per pair at the top of the size
    range, so that peak RSS reflects the workload's size range and not the
    largest draw of the seed.
    """
    from workloads import WARMUP_SEED_OFFSET

    workload.reset()
    if size_bound:
        closed_loop([workload.size_bound()], math.inf, workload.call, no_check)
    closed_loop(
        workload.stream(seed + WARMUP_SEED_OFFSET), WARMUP_SECONDS, workload.call, no_check
    )
    workload.reset()


def failures(rows) -> tuple[int, int, list[str]]:
    """(attempted calls, failed items, first few failure reasons)."""
    attempted = sum(r.kind == "call" for r in rows)
    failed = [r for r in rows if r.failure is not None]
    reasons = [f"{r.cls} BS{r.pair}: {r.failure}" for r in failed[:5]]
    return attempted, len(failed), reasons


def check_digest(workload, first, ends, seed: int) -> bool | None:
    """Compare the first block's outputs with the committed digest.

    Only the default seed has a digest; None when there is nothing to compare.
    """
    from workloads import DEFAULT_SEED, digest

    if seed != DEFAULT_SEED or not ends:
        return None
    want = json.loads((BENCH / "digests.json").read_text())[workload.name]
    return digest(workload, [i for i, _ in first], [o for _, o in first]) == want


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def quantile(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A mean of all order statistics, weighted by the Beta((n+1)p, (n+1)(1-p))
    mass on each rank's interval.  A single order statistic jumps when the
    rank lands between two size classes or on one disturbed call; this
    estimate moves smoothly.  numpy and scipy are imported only here, after
    the peak RSS of the timed loop has been read.
    """
    import numpy as np
    from scipy.special import betainc

    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    if n == 1:
        return float(xs[0])
    edges = betainc((n + 1) * p, (n + 1) * (1 - p), np.linspace(0.0, 1.0, n + 1))
    return float(np.dot(np.diff(edges), xs))


def tail(latencies: list[float], percentile: float) -> tuple[float, float]:
    """(value, samples beyond it) of the workload's tail percentile."""
    p = percentile / 100.0
    return quantile(latencies, p), len(latencies) * (1.0 - p)


def throughput(rows, ends) -> float:
    """Median over the whole blocks of the calls per second in each block.

    Every block has the same mix, so the blocks are comparable, and a block
    that a slow spell of the machine hit is outvoted by the others.
    """
    if not ends:  # only in runs far too short for a whole block
        return sum(r.kind == "call" for r in rows) / sum(r.latency for r in rows)
    rates = []
    row0 = calls0 = 0
    for row1, calls1 in ends:
        rates.append((calls1 - calls0) / sum(r.latency for r in rows[row0:row1]))
        row0, calls0 = row1, calls1
    return statistics.median(rates)


def input_latencies(rows) -> list[float]:
    """Each distinct input's lowest call latency.

    On a workload that runs the same inputs in every block, the call is
    deterministic, and what differs between its repeats is only added time:
    a garbage collection, a cache another tenant flushed, an interrupt.  So
    the fastest repeat is the input's cost, and the tail of these is the
    cost of the slowest inputs, not the luck of the machine.
    """
    by_input: dict = {}
    for r in rows:
        if r.kind == "call":
            by_input.setdefault((r.pair, r.key), []).append(r.latency)
    return [min(v) for v in by_input.values()]


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x, _ in points]
    ly = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def curves(rows) -> dict[str, dict]:
    """Per size class: samples, median size and latency in ms.

    The class latency is the geometric mean over the groups of each group's
    median, so the groups' very different costs do not make it jump.
    """
    by_cls: dict[str, dict] = {}
    for r in rows:
        if r.kind == "call":
            by_cls.setdefault(r.cls, {}).setdefault(r.pair, []).append((r.size, r.latency))
    out = {}
    for cls, groups in sorted(by_cls.items()):
        cells = [cell for group in groups.values() for cell in group]
        medians = [quantile([d for _, d in group], 0.5) for group in groups.values()]
        out[cls] = {
            "n": len(cells),
            "size": statistics.median(s for s, _ in cells),
            "latency_ms": 1e3 * statistics.geometric_mean(medians),
        }
    return out


def exponent(workload, curve: dict[str, dict]) -> float:
    points = [
        (curve[c]["size"], curve[c]["latency_ms"])
        for c in workload.exponent_classes
        if c in curve and curve[c]["n"] >= 3
    ]
    return slope(points) if len(points) >= 2 else 0.0  # only in runs far too short


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def timed_run(workload, args) -> tuple[dict, dict, int, int, list[str]]:
    from layers import probe_words, run_cli_main

    kernel = KERNELS[workload.kernel]
    setup_s = measure_setup(workload.pairs, KERNELS["interp"])
    cli_word = probe_words(args.seed)[0].word
    cli_ms, _, cli_failed = measure_cli(
        cli_word, run_cli_main(cli_word), CLI_REPEATS, KERNELS["interp"]
    )

    warm_up(workload, args.seed, size_bound=True)
    key = (lambda item: item.word) if workload.repeats_inputs else None
    rows, ends, first = closed_loop(
        workload.stream(args.seed), args.seconds, workload.call, workload.verify, key, kernel
    )

    rss_mb = peak_rss_mb()
    attempted, failed, reasons = failures(rows)
    digest_ok = check_digest(workload, first, ends, args.seed)
    if digest_ok is False:
        reasons.append("output digest differs from bench/digests.json")

    lat = [r.latency for r in rows if r.kind == "call"]
    tail_samples = input_latencies(rows) if workload.repeats_inputs else lat
    tail_s, beyond = tail(tail_samples, workload.tail_percentile)
    curve = curves(rows)
    attempted += CLI_REPEATS
    failed += cli_failed
    metrics = {
        "setup_s": setup_s,
        "calls_per_s": throughput(rows, ends),
        "latency_p50_ms": 1e3 * quantile(lat, 0.5),
        "latency_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": rss_mb,
        # add-one estimate: never 0, and failed/attempted when calls fail
        "error_ratio": (failed + 1) / (attempted + 1),
        "digits_exponent": exponent(workload, curve),
        "cli_call_ms": cli_ms,
    }
    info = {
        "tail_percentile": workload.tail_percentile,
        "tail_beyond": round(beyond, 1),
        "tail_over": "input minima" if workload.repeats_inputs else "calls",
        "tail_samples": len(tail_samples),
        "latency_samples": len(lat),
        "whole_blocks": len(ends),
        "digest_ok": digest_ok,
        "curves": curve,
    }
    return metrics, info, attempted, failed, reasons


def traced_run(workload, args) -> tuple[dict, dict, int, int, list[str]]:
    import bsgeo
    from layers import (
        ProbeStats,
        layer_metrics,
        probe_input,
        probe_words,
        run_cli_main,
        self_time_by_layer,
    )
    from tracing import Tracer
    from workloads import _BALL, _INT_LLNF_CACHE

    base_table = bsgeo.horocyclic.base_table
    probes = probe_words(args.seed)
    cli_expected = run_cli_main(probes[0].word)
    # per-layer times are raw, not scaled, so startup is taken from the raw median
    kernel = KERNELS[workload.kernel]
    _, cli_raw_ms, cli_failed = measure_cli(
        probes[0].word, cli_expected, TRACE_CLI_REPEATS, KERNELS["interp"]
    )

    items = []

    def untraced_call(item):
        items.append(item)
        return workload.call(item)

    warm_up(workload, args.seed)
    closed_loop(
        workload.stream(args.seed), TRACE_PASS_SHARE * args.seconds, untraced_call, no_check
    )

    # same cache state for the traced pass as for the untraced one
    _INT_LLNF_CACHE.cache_clear()
    warm_up(workload, args.seed)

    tr = Tracer()

    def traced_call(item):
        with tr.root("bench.call"):
            return workload.call(item)

    def untraced_check(item, out, index):
        with tr.paused():
            return workload.verify(item, out, index)

    tr.patch()
    try:
        rows, _, _ = closed_loop([items], math.inf, traced_call, untraced_check, kernel=kernel)
    finally:
        tr.unpatch()
    upto = len(tr.name)
    n_calls = sum(item.kind == "call" for item in items)
    t_traced = sum(r.latency for r in rows)

    # the untraced reference runs after the traced pass, on a heap as warm as
    # its own, with the same checks between calls
    _INT_LLNF_CACHE.cache_clear()
    warm_up(workload, args.seed)
    reference, _, _ = closed_loop(
        [items], math.inf, workload.call, workload.verify, kernel=kernel
    )
    t_untraced = sum(r.latency for r in reference)

    tr.patch()
    try:
        acc = ProbeStats()
        calls = [item for item in items if item.kind == "call"]
        stride = max(1, len(calls) // 64)
        deadline = time.perf_counter() + PROBE_SHARE * args.seconds
        for item in calls[::stride]:
            if time.perf_counter() >= deadline:
                break
            with tr.root("bench.probe"):
                probe_input(item, acc)
        for item in probes:
            with tr.root("bench.probe"):
                probe_input(item, acc)
        with tr.root("bench.probe"):
            if not tr.notes["oracle.ball"]:
                _BALL.cache_clear()
                index = bsgeo.ball(probes[0].params, 6)
                for w in ("", "t", "Ta", "aTA", "tat"):
                    index.lookup(bsgeo.to_alt(w))
            for _ in range(TRACE_CLI_REPEATS):
                cli_failed += run_cli_main(probes[0].word) != cli_expected
            base_table.cache_clear()
            t0 = CLOCK()
            for params in workload.pairs:
                bsgeo.base_table(params)
            base_table_s = CLOCK() - t0
    finally:
        tr.unpatch()

    attempted, failed, reasons = failures(rows)
    attempted += 2 * TRACE_CLI_REPEATS
    failed += cli_failed
    extra = {
        "base_table_s": base_table_s,
        "cli_call_ms": cli_raw_ms,
        "overhead_ratio": t_traced / t_untraced,
    }
    metrics = layer_metrics(tr, upto, n_calls, acc, extra)
    self_layer = self_time_by_layer(tr)
    total = sum(self_layer.values())
    per_sink: dict[str, list[float]] = {}
    for cls, x in acc.ops_per_model:
        per_sink.setdefault(cls, []).append(x)
    info = {
        "spans": len(tr.name),
        "traced_calls": n_calls,
        "self_time_share": {k: v / total for k, v in sorted(self_layer.items())},
        "ops_per_model_by_class": {
            k: statistics.median(v) for k, v in sorted(per_sink.items())
        },
    }
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    tr.write(str(out_dir / f"{workload.name}_seed{args.seed}_spans.tsv.gz"))
    return metrics, info, attempted, failed, reasons


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bsgeo" / "__init__.py").is_file():
        print(f"error: no bsgeo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.make(args.workload)
    env = environment(args)
    # one CPU for the run and its children, so the speed kernel measures
    # the CPU the timed code runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = traced_run if args.trace else timed_run
    metrics, info, attempted, failed, reasons = run(workload, args)

    declared = layers.PER_LAYER if args.trace else END_TO_END
    result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in declared}
    for why in reasons:
        print(f"FAIL {why}", file=sys.stderr)
    correct = failed == 0 and not reasons
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps({"env": env, "info": info, **result}, indent=1))
    print(json.dumps({"env": env, "info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
