"""Layer probes and per-layer metrics for the traced run.

The pipeline pass records spans inside ``full_pnf``.  Some public functions
are never called by the pipeline (``to_standard_valley``, ``valley_family``,
``range_of``, ``slope_dp_optimized``, ...), and some workloads never reach a
layer at all (``divides`` on ``hill_flanks``).  The probes call each layer's
public functions from outside: on a sample of the workload's own inputs
wherever a function applies, and on three short seeded BS(2, 4) words (a
difficult word, a hill and an integer) in every workload, so every per-layer
metric is measured on every run.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics

import bsgeo
import bsgeo.cli
from bsgeo import AltWord, GroupParams, stats
from workloads import Item, unary_parse_budget

P24 = GroupParams(2, 4)

PER_LAYER = (
    ("horocyclic.greedy_ms", "ms"),
    ("horocyclic.slope_dp_ms", "ms"),
    ("horocyclic.slope_dp_opt_ms", "ms"),
    ("horocyclic.dp_columns", "count"),
    ("horocyclic.dp_ops", "count"),
    ("horocyclic.base_table_s", "s"),
    ("divides.standardize_ms", "ms"),
    ("divides.family_ms", "ms"),
    ("divides.valley_pnf_ms", "ms"),
    ("divides.difficult_pnf_ms", "ms"),
    ("divides.family_size", "count"),
    ("divides.sinks", "count"),
    ("divides.range_tightness", "ratio"),
    ("divides.ops_per_model", "ratio"),
    ("pnf.hill_pnf_ms", "ms"),
    ("pnf.flatten_ms", "ms"),
    ("pnf.make_britton_pnf_ms", "ms"),
    ("pnf.flank_letters", "count"),
    ("pnf.ops", "count"),
    ("britton.reduce_ms", "ms"),
    ("britton.decompose_ms", "ms"),
    ("britton.pinch_ratio", "ratio"),
    ("britton.ops", "count"),
    ("canonical.form_us", "us"),
    ("canonical.calls", "count"),
    ("oracle.ball_s", "s"),
    ("oracle.ball_elements", "count"),
    ("oracle.lookup_us", "us"),
    ("words.parse_ms", "ms"),
    ("words.render_ms", "ms"),
    ("words.parse_ok_ratio", "ratio"),
    ("cli.main_ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


class ProbeStats:
    """Counts the probes gather beside the spans."""

    def __init__(self) -> None:
        self.inputs = 0
        self.parsed = 0
        self.ops_per_model: list[tuple[str, float]] = []


def probe_words(seed: int) -> list[Item]:
    """The seeded difficult word, hill and integer probed in every workload."""
    rng = random.Random(seed)
    b = rng.choice([x for x in range(-9, 10) if x % P24.q])  # keeps T b t unpinched
    # a leading "-" would read as an option on the command line
    difficult = AltWord((rng.randint(1, 9), b, rng.randint(-9, 9)), "Tt")
    y = rng.choice([x for x in range(-99, 100) if x % P24.p])  # keeps t y T unpinched
    hill = AltWord((rng.randint(-99, 99), y, rng.randint(-99, 99)), "tT")
    n = rng.randrange(10**11, 10**12)
    return [
        Item(P24, difficult, "probe", 3),
        Item(P24, hill, "probe", 3),
        Item(P24, AltWord((n,)), "probe", 12),
    ]


def probe_input(item: Item, acc: ProbeStats) -> None:
    """Call every public layer function that applies to ``item``."""
    u, params = item.word, item.params
    text = bsgeo.render_word(u)
    parsed = None
    if unary_parse_budget(u):
        try:
            parsed = bsgeo.to_alt(bsgeo.parse_word(text))
        except OverflowError:
            pass  # a coefficient beyond sys.maxsize: parse_word cannot expand it
    if item.cls != "probe":
        acc.inputs += 1
        acc.parsed += parsed == u
    bsgeo.canonical_form(u, params)
    dec = bsgeo.decompose(u, params)
    if not dec.core.theta:
        bsgeo.hill_pnf(u, params)
    elif params.divides:
        _probe_valley(dec.core, params, item.cls, acc)
    coeff = max(bsgeo.britton_reduce(u, params).alpha, key=abs)
    ell, slope = bsgeo.greedy_slope(coeff, params)
    bsgeo.slope_llnf(slope, params)
    if slope.theta:
        matrix = bsgeo.slope_dp_optimized(slope, params)
        bsgeo.reconstruct_from_matrix(matrix, slope.alpha[-1])


def _probe_valley(core: AltWord, params: GroupParams, cls: str, acc: ProbeStats) -> None:
    """The divides layer on a difficult core: the valley difficult_pnf builds."""
    bsgeo.difficult_pnf(core, params)
    w = bsgeo.britton_reduce(core, params)
    prof = bsgeo.height_profile(w)
    ell = max(prof)
    m = ell - prof[-1]
    vw = AltWord((0,) * ell + w.alpha + (0,) * m, "T" * ell + w.theta + "t" * m)
    V, _ = bsgeo.to_standard_valley(vw, params)
    bsgeo.valley_family(V, params)
    bsgeo.range_of(V, params)
    ops0 = stats.ops.n
    bsgeo.valley_pnf(vw, params)
    ops = stats.ops.n - ops0
    s = bsgeo.sink_count(vw)
    model = s * (s + bsgeo.norm(vw, params))
    acc.ops_per_model.append((cls, ops / model))


def cli_argv(word: AltWord) -> list[str]:
    return ["--p", str(P24.p), "--q", str(P24.q), "pnf", bsgeo.render_word(word)]


def run_cli_main(word: AltWord) -> str:
    """In-process ``cli.main`` with stdout captured; returns the output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bsgeo.cli.main(cli_argv(word))
    if code != 0:
        raise RuntimeError(f"cli.main exited with {code}")
    return buf.getvalue()


def _mean(values, scale: float = 1.0) -> float:
    return scale * statistics.fmean(values) if values else 0.0


def layer_metrics(tr, upto: int, n_calls: int, acc: ProbeStats, extra: dict) -> dict[str, float]:
    """Per-layer metrics from the spans; ``extra`` holds the directly timed ones.

    ``upto`` is the number of spans the pipeline pass recorded and ``n_calls``
    the number of calls it made.
    """
    spans = tr.by_name()
    pipeline = tr.by_name(upto)

    def ms(name: str, scale: float = 1e3) -> float:
        return _mean(spans.get(name, ([], []))[0], scale)

    def ops(name: str) -> float:
        return _mean(spans.get(name, ([], []))[1])

    notes = tr.notes
    fam = notes["divides.valley_family"]
    rng_notes = notes["divides.range_of"]
    red = notes["britton.britton_reduce"]
    t_in = sum(a for a, _ in red)
    opt = spans.get("horocyclic.slope_dp_optimized", ([], []))[0]
    rec = spans.get("horocyclic.reconstruct_from_matrix", ([], []))[0]
    cli = spans.get("cli.main", ([], []))[0]
    cli_main_ms = 1e3 * statistics.median(cli) if cli else 0.0
    return {
        "horocyclic.greedy_ms": ms("horocyclic.greedy_slope"),
        "horocyclic.slope_dp_ms": ms("horocyclic.slope_llnf"),
        "horocyclic.slope_dp_opt_ms": 1e3 * (sum(opt) + sum(rec)) / len(opt) if opt else 0.0,
        "horocyclic.dp_columns": _mean([c for (c,) in notes["horocyclic.slope_llnf"]]),
        "horocyclic.dp_ops": ops("horocyclic.slope_llnf"),
        "horocyclic.base_table_s": extra["base_table_s"],
        "divides.standardize_ms": ms("divides.to_standard_valley"),
        "divides.family_ms": ms("divides.valley_family"),
        "divides.valley_pnf_ms": ms("divides.valley_pnf"),
        "divides.difficult_pnf_ms": ms("divides.difficult_pnf"),
        "divides.family_size": _mean([n for n, _, _ in fam]),
        "divides.sinks": _mean([bsgeo.sink_count(V) for _, V, _ in fam]),
        "divides.range_tightness": _mean(
            [
                max(abs(r) for r in rho) / (bsgeo.r_valley(p) * bsgeo.sink_count(V))
                for rho, V, p in rng_notes
            ]
        ),
        "divides.ops_per_model": _mean(
            [x for c, x in acc.ops_per_model if c != "probe"]
            or [x for _, x in acc.ops_per_model]
        ),
        "pnf.hill_pnf_ms": ms("pnf.hill_pnf"),
        "pnf.flatten_ms": ms("pnf.flatten_pnf"),
        "pnf.make_britton_pnf_ms": ms("pnf.make_britton_pnf"),
        "pnf.flank_letters": _mean([n for (n,) in notes["britton.decompose"]]),
        "pnf.ops": ops("divides.full_pnf"),
        "britton.reduce_ms": ms("britton.britton_reduce"),
        "britton.decompose_ms": ms("britton.decompose"),
        "britton.pinch_ratio": sum(a - b for a, b in red) / t_in if t_in else 0.0,
        "britton.ops": ops("britton.britton_reduce"),
        "canonical.form_us": ms("canonical.canonical_form", 1e6),
        "canonical.calls": len(pipeline.get("canonical.canonical_form", ([], []))[0]) / max(1, n_calls),
        "oracle.ball_s": ms("oracle.ball", 1.0),
        "oracle.ball_elements": _mean([n for (n,) in notes["oracle.ball"]]),
        "oracle.lookup_us": ms("oracle.lookup", 1e6),
        "words.parse_ms": ms("words.parse_word"),
        "words.render_ms": ms("words.render_word"),
        "words.parse_ok_ratio": acc.parsed / acc.inputs if acc.inputs else 0.0,
        "cli.main_ms": cli_main_ms,
        "cli.startup_ms": extra["cli_call_ms"] - cli_main_ms,
        "trace.overhead_ratio": extra["overhead_ratio"],
    }


def self_time_by_layer(tr) -> dict[str, float]:
    """Seconds of self time per layer (the span-name prefix)."""
    out: dict[str, float] = {}
    for name, secs in tr.self_times().items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + secs
    return out
