"""Seeded input streams, the timed call, and output checks for each workload.

Every workload turns a seed into an endless stream of *blocks*.  A block is
a fixed schedule of (group, size class) slots whose inputs are drawn from
the seed, so any run covers the classes evenly and a whole block always has
the same mix.  The library only ever sees the generated inputs.

The timed call of every workload goes through ``bsgeo.full_pnf`` (on
``oracle_sweep`` through ``bsgeo.geodesic_length``, which wraps it), looked
up on the package at call time so that the traced run can wrap it.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import random
import sys
from dataclasses import dataclass

import bsgeo
from bsgeo import AltWord, GroupParams, UnsupportedCase
from bsgeo import oracle as oracle_mod

DEFAULT_SEED = 1
"""The seed whose first block has a committed output digest."""

WARMUP_SEED_OFFSET = 1_000_003
"""Warm-up draws its inputs from ``seed + WARMUP_SEED_OFFSET``."""

# the lru-cached originals, kept so that cache_clear works while tracing
# replaces the module attributes with wrappers
_BALL = oracle_mod.ball
_INT_LLNF_CACHE = bsgeo.horocyclic._int_llnf_cached


@dataclass
class Item:
    """One unit of work: a call on ``word`` in ``params``, or a ball build."""

    params: GroupParams
    word: AltWord | None
    cls: str
    size: int
    kind: str = "call"


class Workload:
    """Base class: subclasses define the pairs, the blocks and the checks."""

    name = ""
    pairs: tuple[GroupParams, ...] = ()
    exponent_classes: tuple[str, ...] = ()
    repeats_inputs = False
    """True when every block runs the same inputs (in another order)."""
    kernel = "interp"
    """The speed kernel that times scale by (see ``run.KERNELS``)."""
    tail_percentile = 90.0
    """The highest of p90, p95, p99 and p99.9 with at least ten samples
    beyond it in a 20 s run on the seed code.  It is fixed per workload, so
    that every run, and every later version, reports the same percentile."""

    def block(self, rng: random.Random, draw) -> list[Item]:
        """One block; ``draw(slot)`` gives the slot's stratified uniform in [0, 1)."""
        raise NotImplementedError

    def stream(self, seed: int):
        """Endless sequence of blocks for ``seed``.

        Sizes are drawn stratified: each slot gets a phase, and block b
        uses phase + b * PHI (mod 1).  Over a few blocks the draws cover
        the class evenly.  The phases do not depend on the seed, so every
        seed runs the same schedule of sizes, and the seed draws what fills
        them (the integers, letters and coefficients).  So the mix, and with
        it the throughput, varies little from seed to seed.
        """
        rng = random.Random(seed)
        layout = random.Random(0)
        phases: dict = {}
        b = 0
        while True:

            def draw(slot, b=b) -> float:
                if slot not in phases:
                    phases[slot] = layout.random()
                return (phases[slot] + b * PHI) % 1.0

            yield self.block(rng, draw)
            b += 1

    def size_bound(self) -> list[Item]:
        """One input per pair at the top of the size range (see ``warm_up``)."""
        return []

    def call(self, item: Item):
        return bsgeo.full_pnf(item.word, item.params)

    def verify(self, item: Item, out, index: int) -> str | None:
        """None if ``out`` is a correct output for ``item``, else a reason."""
        raise NotImplementedError

    def digest_text(self, item: Item, out) -> str:
        bp, flat, length = out
        return f"{flat}\t{length}"

    def reset(self) -> None:
        """Drop per-run state (only the oracle workload keeps any)."""


PHI = (math.sqrt(5) - 1) / 2


def _log_uniform(u: float, lo: int, hi: int) -> int:
    """The point at quantile ``u`` of the log-uniform distribution on [lo, hi]."""
    return int(lo * (hi / lo) ** u)


def _check_pnf(item: Item, out) -> str | None:
    """The peak-normal-form contract shared by the word workloads."""
    bp, flat, length = out
    u, params = item.word, item.params
    if len(flat) != length:
        return "len(flat) != length"
    if bp.norm != length:
        return "bp.norm != length"
    w = bsgeo.to_alt(flat)
    if bsgeo.t_sequence(w, params) != bsgeo.t_sequence(u, params):
        return "t-sequence changed"
    if not bsgeo.equal(u, w, params):
        return "output is not equal to the input"
    return None


# ---------------------------------------------------------------------------
# horo_bigint
# ---------------------------------------------------------------------------

class HoroBigint(Workload):
    """a^N with N of 50 to 800 digits, five log-equal classes of digit count.

    An odd number of classes puts the median call inside the middle class,
    not on the gap between two classes, where it would jump from run to run.
    """

    name = "horo_bigint"
    pairs = (GroupParams(1, 2), GroupParams(2, 3), GroupParams(2, 4), GroupParams(3, 6))
    CLASSES = ((50, 87), (87, 152), (152, 264), (264, 459), (459, 800))
    exponent_classes = tuple(f"d{lo}" for lo, _ in CLASSES)
    REFERENCE_EVERY = 3
    """Every third output is also checked against the optimized DP (three is
    prime to the four pairs, so every pair gets checked)."""

    def __init__(self) -> None:
        self._seen: set[int] = set()

    def block(self, rng, draw):
        items = []
        # Latin square: each pair meets each class once per block
        for i in range(len(self.CLASSES)):
            for j, params in enumerate(self.pairs):
                lo, hi = self.CLASSES[(i + j) % len(self.CLASSES)]
                digits = _log_uniform(draw((lo, j)), lo, hi)
                items.append(Item(params, AltWord((self._fresh(rng, digits),)), f"d{lo}", digits))
        return items

    def _fresh(self, rng, digits: int) -> int:
        while True:
            n = rng.randrange(10 ** (digits - 1), 10**digits)
            n = n if rng.random() < 0.5 else -n
            if n not in self._seen:
                self._seen.add(n)
                return n

    def size_bound(self):
        rng = random.Random(0)
        hi = self.CLASSES[-1][1]
        return [Item(p, AltWord((self._fresh(rng, hi),)), "bound", hi) for p in self.pairs]

    def verify(self, item, out, index):
        bp, flat, length = out
        n, params = item.word.alpha[0], item.params
        if len(flat) != length:
            return "len(flat) != length"
        if not bsgeo.llnf_shape_ok(flat, n, params):
            return "llnf shape"
        if not bsgeo.equal(bsgeo.to_alt(flat), item.word, params):
            return "output is not equal to a^N"
        if index % self.REFERENCE_EVERY == 0 and flat != reference_llnf(n, params):
            return "differs from the optimized DP"
        return None


def reference_llnf(n: int, params: GroupParams) -> str:
    """llnf(a^n) along the reference route: greedy split + optimized DP."""
    ell, slope = bsgeo.greedy_slope(n, params)
    if not slope.theta:
        return "t" * ell + bsgeo.base_table(params)[slope.alpha[0]]
    matrix = bsgeo.slope_dp_optimized(slope, params)
    return "t" * ell + bsgeo.reconstruct_from_matrix(matrix, slope.alpha[-1])


# ---------------------------------------------------------------------------
# pnf_divides
# ---------------------------------------------------------------------------

def family_valley(s: int, levels: int, params: GroupParams, rng: random.Random) -> AltWord:
    """A standard valley with exactly s sinks and nesting depth ``levels``.

    The same construction as the quadratic-scaling acceptance test.
    """
    q = params.q

    def arc_syms(depth: int) -> list:
        syms: list = [0]
        for _ in range(depth):
            b = rng.randrange(1, q)
            syms = [1 % params.p, "T"] + syms[:-1] + [syms[-1] + b, "t", 0]
        return syms

    word: list = [0]
    for _ in range(s):
        ws = arc_syms(levels)
        word = word[:-1] + [word[-1] + ws[0]] + ws[1:]
    return bsgeo.alt_from_symbols(word)


class PnfDivides(Workload):
    """Random difficult t/T walks and standard valley families, p dividing q."""

    name = "pnf_divides"
    pairs = (GroupParams(1, 3), GroupParams(2, 4), GroupParams(3, 6), GroupParams(4, 8))
    WALK_CLASSES = ((200, 447), (447, 1000), (1000, 2236), (2236, 5000))
    SINKS = (1, 4, 16, 64)
    FAMILY_NORM = 2000
    COEFF = 1000
    exponent_classes = tuple(f"walk{lo}" for lo, _ in WALK_CLASSES)
    kernel = "walk"
    tail_percentile = 95.0  # about 400 calls

    def block(self, rng, draw):
        slots = [("walk", c) for c in self.WALK_CLASSES] + [("family", s) for s in self.SINKS]
        items = []
        for i in range(len(slots)):
            for j, params in enumerate(self.pairs):
                kind, arg = slots[(i + 2 * j) % len(slots)]
                if kind == "walk":
                    lo, hi = arg
                    k = _log_uniform(draw((lo, j)), lo, hi)
                    items.append(Item(params, self._walk(rng, k), f"walk{lo}", k))
                else:
                    levels = max(1, self.FAMILY_NORM // (5 * arg))
                    v = family_valley(arg, levels, params, rng)
                    items.append(Item(params, v, f"s{arg}", len(v.theta)))
        return items

    def _walk(self, rng, k: int) -> AltWord:
        """A uniform random t/T walk that starts with T and ends with t.

        Such a word is its own difficult core.  A walk with leading t's or
        trailing T's has flanks, and the flank DP then solves 1 to 6 or more
        core variants, so at a fixed length the cost of an unconditioned
        walk varies with a coefficient of variation of about 0.7.
        """
        alpha = tuple(rng.randint(-self.COEFF, self.COEFF) for _ in range(k + 1))
        inner = "".join(rng.choice("tT") for _ in range(k - 2))
        return AltWord(alpha, "T" + inner + "t")

    def size_bound(self):
        rng = random.Random(0)
        hi = self.WALK_CLASSES[-1][1]
        return [Item(p, self._walk(rng, hi), "bound", hi) for p in self.pairs]

    def verify(self, item, out, index):
        return _check_pnf(item, out)


# ---------------------------------------------------------------------------
# hill_flanks
# ---------------------------------------------------------------------------

class HillFlanks(Workload):
    """Hills alpha_1 t ... alpha_k t gamma T beta_1 ... T beta_m, p not dividing q."""

    name = "hill_flanks"
    pairs = (GroupParams(2, 3), GroupParams(3, 5))
    CLASSES = ((100, 178), (178, 316), (316, 562), (562, 1000))
    COEFF = 10**6
    exponent_classes = tuple(f"k{lo}" for lo, _ in CLASSES)

    def block(self, rng, draw):
        items = []
        for i in range(len(self.CLASSES)):
            for j, params in enumerate(self.pairs):
                lo, hi = self.CLASSES[(i + 2 * j) % len(self.CLASSES)]
                k = _log_uniform(draw(("k", lo, j)), lo, hi)
                m = _log_uniform(draw(("m", lo, j)), lo, hi)
                items.append(Item(params, self._hill(rng, params, k, m), f"k{lo}", k + m))
        return items

    def _hill(self, rng, params: GroupParams, k: int, m: int) -> AltWord:
        c = self.COEFF
        gamma = rng.randint(-c, c)
        if gamma % params.p == 0:
            gamma += 1  # keeps t gamma T unpinched: exactly k + m flank letters
        alpha = tuple(rng.randint(-c, c) for _ in range(k))
        beta = tuple(rng.randint(-c, c) for _ in range(m))
        return AltWord(alpha + (gamma,) + beta, "t" * k + "T" * m)

    def size_bound(self):
        rng = random.Random(0)
        hi = self.CLASSES[-1][1]
        return [Item(p, self._hill(rng, p, hi, hi), "bound", 2 * hi) for p in self.pairs]

    def verify(self, item, out, index):
        return _check_pnf(item, out)


# ---------------------------------------------------------------------------
# oracle_sweep
# ---------------------------------------------------------------------------

class OracleSweep(Workload):
    """The ``oracle check`` job: uncached radius-8 balls, all words up to 6."""

    name = "oracle_sweep"
    pairs = (GroupParams(1, 2), GroupParams(2, 4), GroupParams(2, 3))
    RADIUS = 8
    WORDLEN = 6
    repeats_inputs = True
    tail_percentile = 99.0  # over 9417 distinct inputs: p99.9 has only 9.4 beyond it
    # len1 has four words per group: too few for a steady class median
    exponent_classes = tuple(f"len{n}" for n in range(2, WORDLEN + 1))

    def __init__(self) -> None:
        self.words = [
            "".join(letters)
            for n in range(self.WORDLEN + 1)
            for letters in itertools.product("tTaA", repeat=n)
        ]
        self.alts = {w: bsgeo.to_alt(w) for w in self.words}
        self.index = None

    def block(self, rng, draw):
        items = []
        for params in self.pairs:
            items.append(Item(params, None, "ball", 0, kind="ball"))
            order = list(self.words)
            rng.shuffle(order)
            for w in order:
                items.append(Item(params, self.alts[w], f"len{len(w)}", len(w)))
        return items

    def reset(self) -> None:
        self.index = None

    def call(self, item):
        if item.kind == "ball":
            _BALL.cache_clear()
            self.index = None  # free the previous ball before building the next
            self.index = bsgeo.ball(item.params, self.RADIUS)
            # The build leaves ~10^5 objects behind; the full collection they
            # cause is part of the build, not of whichever check comes next.
            gc.collect()
            return len(self.index.table)
        try:
            got = bsgeo.geodesic_length(item.word, item.params)
        except UnsupportedCase:
            got = None  # the open case: a refusal is the expected answer
        return got, self.index.lookup(item.word)[0]

    def verify(self, item, out, index):
        if item.kind == "ball":
            return None if out > 0 else "empty ball"
        got, want = out
        if got is None:
            params = item.params
            refused_ok = not params.divides and bsgeo.decompose(item.word, params).core.theta
            return None if refused_ok else "unexpected refusal"
        return None if got == want else f"geodesic_length {got} != oracle {want}"

    def digest_text(self, item, out):
        if item.kind == "ball":
            return f"ball\t{out}"
        got, want = out
        return f"{bsgeo.render_word(item.word)}\t{got}\t{want}"


WORKLOADS = {w.name: w for w in (HoroBigint, PnfDivides, HillFlanks, OracleSweep)}


def make(name: str) -> Workload:
    return WORKLOADS[name]()


def digest(workload: Workload, items: list[Item], outs: list) -> str:
    """sha256 over the rendered inputs and outputs, in order."""
    h = hashlib.sha256()
    for item, out in zip(items, outs):
        word = "" if item.word is None else bsgeo.render_word(item.word)
        line = f"{item.params.p},{item.params.q}\t{word}\t{workload.digest_text(item, out)}\n"
        h.update(line.encode())
    return h.hexdigest()


def unary_parse_budget(u: AltWord, limit: int = 10**7) -> bool:
    """True when parsing the compact text of ``u`` allocates at most ``limit`` letters.

    ``parse_word`` expands every coefficient to unary.  A coefficient beyond
    ``sys.maxsize`` fails at once with OverflowError, so only the letters
    expanded before the first such coefficient count.
    """
    total = len(u.theta)
    for a in u.alpha:
        if abs(a) > sys.maxsize:
            return total <= limit
        total += abs(a)
        if total > limit:
            return False
    return True
