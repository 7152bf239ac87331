"""Britton peak normal forms and the flank-peeling dynamic program.

Among all Britton-reduced words u ~ w of minimal norm, the Britton peak
normal form is the one whose part u_1 before the peak is least in the
symbol order of :func:`bsgeo.words.cmp_delta`, and whose reversed part
behind the peak is then least as well.  The peak is the rightmost highest
position of the height profile, splitting u = u_1 alpha_i u_2; the peak
coefficient itself is pinned down by u_1, u_2 and the group element, so it
never takes part in comparisons.  Flattening each coefficient through
``int_llnf`` (``base_table`` for the small ones) turns the Britton peak
normal form into the geodesic peak normal form, whose length is the norm.

``_wrap_flanks`` reduces a word with flanks  alpha_1 t ... alpha_k t D
T beta_1 ... T beta_m  to normal forms of a bounded family of core words
rho D' delta with |rho|, |delta| <= r: after a carry pass brings all flank
coefficients into [0, q), the left flank is peeled from the outside in,

    pnf(x t X) = min { gamma t pnf((mu p + alpha') X) :
                       x = mu q + gamma, |gamma| < q },

and the right flank alike, read from its outer end.  Each flank is
peeled once, one level per coefficient, by the slope DP's column step
``horocyclic._step``: a level maps each carry to the norm and rank of
its least path, ranked by (predecessor rank, token), the lexicographic
order of the paths.  A carry whose norm exceeds another's by more than
the norm of their difference is dropped, as no minimal-norm word passes
through it.  What is left depends only on the previous level up to a
shift of the norm and on the coefficient mod q, so the peel is a small
finite automaton, in the spirit of the finite-state normal forms of
automatic groups; its edges are built on first use and cached per
(group, side) in a bounded table, and a level seen before is one lookup.
The core is solved once per pair (rho, delta) of final carries, and the
pair that wins on (norm, left rank, core pre-peak key, right rank, core
reversed post-peak key) is spelled from the back-pointers.  This is
exact: norms add; all paths through a flank emit the same number of
tokens and a path's tokens fix its carry, so distinct carries get
distinct ranks and the core keys only break ties between equal carries;
a single pair wins without keys.  The shifts touch only the core's
boundary coefficients, which lie outside every pinch, so each shifted
core is still Britton-reduced and the core solver maps it straight to
its normal-form word: an integer core is its own (``_integer_core``), a
difficult one is solved by ``divides``.  An integer core x has empty peak
keys, so its pairs are scored by length alone: the norms of all shifted
cores x + rho + delta come from one lengths-only pass over one shared
slope-DP cone (``horocyclic._shifted_norms``), and no candidate is
spelled.  ``_wrap_flanks`` returns the winning word; ``full_pnf``
flattens it once and takes the norm from the flattened length, and one
``BrittonPnf`` is built per call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count, repeat
from operator import is_
from typing import Callable

from . import stats
from .britton import Decomposition, decompose
from .errors import InternalError, NotAHill
from .horocyclic import (
    _path,
    _shifted_norms,
    _small_ints,
    _step,
    base_table,
    int_llnf,
    int_norm,
    r_llnf,
    residues_mod,
)
from .horocyclic import norm as _norm
from .words import AltWord, GroupParams, peak_key, peak_position

__all__ = ["BrittonPnf", "make_britton_pnf", "flatten_pnf", "hill_pnf"]


@dataclass(frozen=True)
class BrittonPnf:
    """A Britton-reduced word together with its peak factorisation.

    ``word`` is the normal-form word, ``peak_index`` the rightmost highest
    position, ``u1``/``u2`` the symbol sequences before and after the peak
    coefficient, and ``norm`` the geodesic length of the element.
    """

    word: AltWord
    peak_index: int
    u1: tuple
    peak_coeff: int
    u2: tuple
    norm: int


def make_britton_pnf(word: AltWord, params: GroupParams, norm: int | None = None) -> BrittonPnf:
    """Wrap a Britton-reduced word with its peak split and ``norm``, computed if None."""
    i = peak_position(word)
    syms = word.symbols()
    return BrittonPnf(
        word=word,
        peak_index=i,
        u1=tuple(syms[: 2 * i]),
        peak_coeff=word.alpha[i],
        u2=tuple(syms[2 * i + 1 :]),
        norm=_norm(word, params) if norm is None else norm,
    )


def flatten_pnf(b: BrittonPnf | AltWord, params: GroupParams) -> str:
    """Replace every coefficient of b (or of its word) by its llnf letters; the result is geodesic.

    Coefficients within the integer table are read from ``base_table``
    once per call; only larger ones go through ``int_llnf``.
    """
    word = b.word if isinstance(b, BrittonPnf) else b
    spelled = list(map(base_table(params).get, word.alpha))
    for i in compress(range(len(spelled)), map(is_, spelled, repeat(None))):
        spelled[i] = int_llnf(word.alpha[i], params)
    parts = [""] * (2 * len(spelled) - 1)
    parts[::2] = spelled
    parts[1::2] = word.theta
    return "".join(parts)


# ---------------------------------------------------------------------------
# flank peeling
# ---------------------------------------------------------------------------

# edges one flank-peel table holds before it is cleared: hills with 100-1000
# letter flanks built at most 424 per side in BS(1,2), (2,3), (3,5), (1,166),
# (2,4), (3,6) and (4,8); pairs with q/p near 1 make far more states (BS(5,6)
# about 20,000 edges, and BS(12,13) a new state at almost every level)
MAX_PEEL_EDGES = 1024

_START = ((0, 0),)  # the state before the first level: carry 0, relative norm 0
_state_ids = count(1)  # 0 is _START; ids are never reused


class _PeelTable:
    """The flank peel of one (group, side) as a lazily built automaton.

    A state is a level of the peel DP up to a shift of the norm: the tuple
    of (carry, norm - least norm) in rank order, the rank being the
    position.  ``ids`` interns states as integers, and ``edges`` maps
    (state id, coefficient in [0, q)) to (next state id, next state,
    back-pointers, least norm of the next level, candidate count of its
    ``_step``); the back-pointers give each rank of the next state its
    (predecessor rank, gamma).  Both are dicts of plain tuples, so clearing
    them frees the memory at once.  A full table is cleared before it takes
    another edge; as ids are never reused, a call that holds an id across a
    clear only misses.  Lookups take no lock; new edges are stored under
    ``lock``.
    """

    __slots__ = ("params", "tokens", "norms", "edges", "ids", "lock")

    def __init__(self, params: GroupParams, sign: int) -> None:
        small = _small_ints(params)
        self.params = params
        self.tokens = {g: (n + 1, small[sign * g][1]) for g, (n, _) in small.items()}
        # ||d|| of carry differences, kept here as int_norm's cache is bounded and shared
        self.norms = {g: n for g, (n, _) in small.items()}
        self.edges: dict[tuple[int, int], tuple] = {}
        self.ids = {_START: 0}
        self.lock = threading.Lock()

    def clear(self) -> None:
        """Drop every edge and state."""
        with self.lock:
            self._clear()

    def _clear(self) -> None:
        self.edges.clear()
        self.ids.clear()
        self.ids[_START] = 0

    def _norm(self, d: int) -> int:
        n = self.norms.get(d)
        if n is None:
            n = self.norms[d] = int_norm(d, self.params)
        return n

    def add(self, sid: int, state: tuple, a: int) -> tuple:
        """Run one level from ``state`` on coefficient ``a``, store its edge, return it."""
        params = self.params
        p, q, r = params.p, params.q, r_llnf(params)
        col = {carry: (n, rank) for rank, (carry, n) in enumerate(state)}
        cands: dict[int, list] = {}
        for carry in col:
            x = carry + a
            if abs(x) > r:
                raise InternalError("flank peel escaped the table radius")
            for gamma in residues_mod(x, q):
                cands.setdefault((x - gamma) // q * p, []).append((carry, gamma))
        level, back = _step(col, cands, self.tokens)
        by_norm = sorted((m, d) for d, (m, _) in level.items())
        least, nxt = by_norm[0][0], []
        for c, (n, _) in level.items():
            # c meets itself in by_norm, so the loop ends at a break
            for m, d in by_norm:
                if m + 1 >= n:
                    nxt.append((c, n - least))
                    break
                if n > m + self._norm(c - d):
                    break  # dominated by d
        nxt = tuple(nxt)
        ranks = tuple((col[back[c][0]][1], back[c][1]) for c, _ in nxt)
        n_cands = sum(map(len, cands.values()))
        with self.lock:
            if len(self.edges) >= MAX_PEEL_EDGES:
                self._clear()
            nid = self.ids.get(nxt)
            if nid is None:
                nid = self.ids[nxt] = next(_state_ids)
            edge = self.edges[sid, a] = (nid, nxt, ranks, least, n_cands)
        return edge


@lru_cache(maxsize=None)
def _peel_table(params: GroupParams, sign: int) -> _PeelTable:
    return _PeelTable(params, sign)


def _peel(flank, sign: int, params: GroupParams) -> tuple[dict, list[tuple], int]:
    """The forward rank DP over one flank, coefficients outermost first.

    A carry pass brings each coefficient into [0, q) on the way in: a^(mu q)
    t ~ t a^(mu p) moves left-flank excess inward, and T a^(mu q) ~ a^(mu p)
    T moves right-flank excess inward.  The excess left for the core is a
    multiple of p, so the core's boundary residues mod p, and with them
    Britton-reducedness, are preserved.

    A level maps each carry into the next coefficient to the norm and rank
    of its least path.  Peeling x = mu q + gamma emits the token gamma t
    (left, ``sign`` +1) or, read from the outside, -gamma t (right, ``sign``
    -1) and carries mu p inward.  A level is the slope DP's column step
    ``horocyclic._step`` over each next carry's (carry, gamma) pairs, with
    the token table gamma -> (||gamma|| + 1, sym_key(sign gamma)).

    After each level, a carry c' is dropped if some carry c has n_c' > n_c
    + ||c' - c||.  This is exact.  A completion from a carry c spells a
    word for a^c R, R the rest of the word (for the right flank, R a^c with
    multiplication on the right), so it costs at least the geodesic length
    |a^c R|, and the best one costs exactly that.  As a^c R = a^(c - c')
    a^c' R, the triangle inequality gives |a^c R| <= ||c' - c|| + |a^c' R|,
    so n_c + |a^c R| < n_c' + |a^c' R|: every word through c' is longer
    than the best word through c.  No minimal-norm word passes through c',
    so the winner and its tie-breaks are unchanged, and the ranks of the
    carries left keep the lexicographic order of their words.

    A level depends only on the previous one up to a shift of the norm and
    on the coefficient in [0, q), so with the dominated carries gone the
    peel is a small finite automaton (27-37 states per side on the
    benchmark's hills).  Its edges are built on first use and kept in the
    bounded ``_PeelTable`` of (group, side), and each later level is one
    lookup.  ``stats.ops`` is ticked with the stored candidate count of
    every level, so a call counts the same ops whatever is cached.

    Returns the last level as carry -> (norm, rank) in rank order, per
    level the back-pointers rank -> (pred rank, gamma), and the excess left
    for the core.
    """
    table = _peel_table(params, sign)
    edges, p, q = table.edges, params.p, params.q
    sid, state, base, levels, excess, ops = 0, _START, 0, [], 0, 0
    for a in flank:
        mu, a = divmod(a + excess, q)
        excess = mu * p
        edge = edges.get((sid, a))
        if edge is None:
            edge = table.add(sid, state, a)  # its _step ticks the candidates
        else:
            ops += edge[4]
        sid, state, back, least, _ = edge
        base += least
        levels.append(back)
    stats.ops.tick(ops)
    return {c: (base + n, rank) for rank, (c, n) in enumerate(state)}, levels, excess


def _integer_core(w: AltWord) -> AltWord:
    """An integer core is its own Britton peak normal form."""
    return w


def _wrap_flanks(
    dec: Decomposition,
    solve_core: Callable[[AltWord], AltWord],
    params: GroupParams,
) -> AltWord:
    """The Britton pnf word of ``dec``; ``solve_core`` maps a reduced core to its pnf word.

    The (rho, delta) pairs of final carries are scored by (norm, left
    rank, core pre-peak key, right rank, core reversed post-peak key), and
    only the winner's flanks are spelled.  An integer core x is its own
    pnf with empty peak keys, so its pairs score by (norm, left rank, right
    rank), with the norms of all shifted cores x + rho + delta from one
    lengths-only cone (``horocyclic._shifted_norms``); ``solve_core`` then
    runs on the winner only.  A difficult core is solved once per pair.
    """
    left_states, left_levels, rho_carry = _peel(dec.alphas, 1, params)
    right_states, right_levels, delta_carry = _peel(dec.betas[::-1], -1, params)
    core = dec.core

    def shifted_core(rho: int, delta: int) -> AltWord:
        alpha = list(core.alpha)
        alpha[0] += rho_carry + rho
        alpha[-1] += delta_carry + delta
        return AltWord(tuple(alpha), core.theta)

    if len(left_states) == len(right_states) == 1:
        (rho,), (delta,) = left_states, right_states  # the only pair needs no key
        w = solve_core(shifted_core(rho, delta))
    elif not core.theta:
        x = core.alpha[0] + rho_carry + delta_carry
        shifts = {rho + delta for rho in left_states for delta in right_states}
        norms = _shifted_norms(x, shifts, params)
        _, _, _, rho, delta = min(
            (left_norm + norms[rho + delta] + right_norm, left_rank, right_rank, rho, delta)
            for rho, (left_norm, left_rank) in left_states.items()
            for delta, (right_norm, right_rank) in right_states.items()
        )
        w = solve_core(shifted_core(rho, delta))
    else:
        best = None
        for rho, (left_norm, left_rank) in left_states.items():
            for delta, (right_norm, right_rank) in right_states.items():
                w = solve_core(shifted_core(rho, delta))
                pre, post = peak_key(w)
                key = (left_norm + _norm(w, params) + right_norm, left_rank, pre, right_rank, post)
                if best is None or key < best[0]:
                    best = (key, rho, delta, w)
        _, rho, delta, w = best
    _, left_gammas = _path(left_levels, left_states[rho][1])
    _, right_gammas = _path(right_levels, right_states[delta][1])
    return AltWord(
        (*left_gammas, *w.alpha, *right_gammas[::-1]),
        "t" * len(left_gammas) + w.theta + "T" * len(right_gammas),
    )


def hill_pnf(u: AltWord, params: GroupParams) -> BrittonPnf:
    """Peak normal form of a hill (t-sequence t^k T^m), in linear time."""
    dec = decompose(u, params)
    if dec.core.theta:
        raise NotAHill(f"core {dec.core} is not horocyclic")
    return make_britton_pnf(_wrap_flanks(dec, _integer_core, params), params)
