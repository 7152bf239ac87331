"""Spans around the public calls of each bsgeo layer, recorded from outside.

``Tracer.patch`` replaces the public functions listed in ``TRACED`` by
wrappers, in every ``bsgeo`` module namespace that holds them, so calls made
inside the pipeline (``full_pnf`` calling ``decompose``, ...) are recorded as
well.  Each span is (name, start, end, parent, call id) plus the op-counter
delta; spans live in flat arrays until ``write`` stores them.  Functions
that run per letter or per candidate (``int_norm``, ``sym_key``, ...) are
not wrapped: their cost shows as self time of the span that calls them.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from array import array
from collections import defaultdict

import bsgeo
from bsgeo import stats

# (span name, module, attribute): the public calls at the layer boundaries
TRACED = (
    ("words.parse_word", "words", "parse_word"),
    ("words.render_word", "words", "render_word"),
    ("britton.britton_reduce", "britton", "britton_reduce"),
    ("britton.decompose", "britton", "decompose"),
    ("canonical.canonical_form", "canonical", "canonical_form"),
    ("horocyclic.base_table", "horocyclic", "base_table"),
    ("horocyclic.greedy_slope", "horocyclic", "greedy_slope"),
    ("horocyclic.slope_llnf", "horocyclic", "slope_llnf"),
    ("horocyclic.slope_dp_optimized", "horocyclic", "slope_dp_optimized"),
    ("horocyclic.reconstruct_from_matrix", "horocyclic", "reconstruct_from_matrix"),
    ("pnf.make_britton_pnf", "pnf", "make_britton_pnf"),
    ("pnf.flatten_pnf", "pnf", "flatten_pnf"),
    ("pnf.hill_pnf", "pnf", "hill_pnf"),
    # private, but it is the flank DP that full_pnf (in divides) runs: without
    # it the flank-peeling time would count as self time of divides
    ("pnf._wrap_flanks", "pnf", "_wrap_flanks"),
    ("divides.full_pnf", "divides", "full_pnf"),
    ("divides.geodesic_length", "divides", "geodesic_length"),
    ("divides.difficult_pnf", "divides", "difficult_pnf"),
    ("divides.valley_pnf", "divides", "valley_pnf"),
    ("divides.to_standard_valley", "divides", "to_standard_valley"),
    ("divides.valley_family", "divides", "valley_family"),
    ("divides.range_of", "divides", "range_of"),
    ("oracle.ball", "oracle", "ball"),
    ("oracle.lookup", "oracle", "BallIndex.lookup"),
    ("cli.main", "cli", "main"),
)

# cheap per-call observations, taken inside the wrapper: name -> f(args, result)
NOTES = {
    "britton.britton_reduce": lambda a, r: (len(a[0].theta), len(r.theta)),
    "britton.decompose": lambda a, r: (len(r.alphas) + len(r.betas),),
    "horocyclic.slope_llnf": lambda a, r: (len(a[0].theta),),
    "divides.valley_family": lambda a, r: (len(r), a[0], a[1]),
    "divides.range_of": lambda a, r: (r, a[0], a[1]),
    "oracle.ball": lambda a, r: (len(r.table),),
}


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.call = array("l")
        self.ops = array("q")
        self.notes: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._call_id = -1
        self._paused = False
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self._call_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.ops.append(0)
        self._stack.append(sid)
        return sid

    @contextlib.contextmanager
    def paused(self):
        """Record no spans inside (for the benchmark's own output checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span that starts a new call id."""
        self._call_id += 1
        sid = self._open(name)
        ops0 = stats.ops.n
        self.start[sid] = time.perf_counter()
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self.ops[sid] = stats.ops.n - ops0
            self._stack.pop()

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        notes = self.notes[name]
        clock = time.perf_counter
        counter = stats.ops

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            sid = self._open(name)
            ops0 = counter.n
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
                self.ops[sid] = counter.n - ops0
            if note is not None:
                notes.append(note(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def patch(self) -> None:
        """Wrap every TRACED function wherever a bsgeo module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "bsgeo" or n.startswith("bsgeo.")]
        for name, modname, attr in TRACED:
            mod = getattr(bsgeo, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self.wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapper)

    def unpatch(self) -> None:
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    def by_name(self, upto: int | None = None) -> dict[str, tuple[list[float], list[int]]]:
        """Span name -> (durations in seconds, op-counter deltas) of the first ``upto`` spans."""
        out: dict[str, tuple[list[float], list[int]]] = {n: ([], []) for n in self.names}
        lists = [out[n] for n in self.names]
        for i in range(len(self.name) if upto is None else upto):
            durs, ops = lists[self.name[i]]
            durs.append(self.end[i] - self.start[i])
            ops.append(self.ops[i])
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            out[self.names[self.name[i]]] += self.end[i] - self.start[i] - child[i]
        return dict(out)

    def write(self, path: str) -> None:
        """Gzipped TSV: name, start, end, parent, call id, ops."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("name\tstart\tend\tparent\tcall\tops\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.call[i]}\t{self.ops[i]}\n"
                )
