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
automatic groups, built once per (group, side) by a breadth-first search
up to an edge budget and frozen; a level on a built edge is one lookup.
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

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from operator import is_
from typing import Callable

from . import stats
from .britton import Decomposition, decompose
from .errors import InternalError, NotAHill
from .horocyclic import (
    _base_lengths,
    _path,
    _shifted_norms,
    _step,
    base_table,
    int_llnf,
    int_norm,
    r_llnf,
    residues_mod,
)
from .horocyclic import norm as _norm
from .words import AltWord, GroupParams, peak_key, sym_key

__all__ = ["BrittonPnf", "make_britton_pnf", "flatten_pnf", "hill_pnf"]


@dataclass(frozen=True)
class BrittonPnf:
    """A Britton peak normal form: the word and the geodesic length ``norm`` of its element.

    Its peak split u = u_1 alpha_i u_2 is ``words.peak_position(word)`` = i,
    and ``words.peak_key(word)`` gives the symbol keys of u_1 and of u_2
    reversed.
    """

    word: AltWord
    norm: int


def make_britton_pnf(word: AltWord, params: GroupParams, norm: int | None = None) -> BrittonPnf:
    """Wrap a Britton-reduced word with its ``norm``, computed if None."""
    return BrittonPnf(word, _norm(word, params) if norm is None else norm)


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

# edges the flank-peel automaton of one (group, side) is built up to: every
# benchmark pair and BS(1,166) fit whole (BS(3,4): 832 edges); pairs with q/p
# nearer 1 are cut off (BS(4,5) has 6,435 edges, BS(5,6) 45,288)
PEEL_EDGE_BUDGET = 2048

_START = ((0, 0),)  # the state before the first level: carry 0, relative norm 0


def _level(state: tuple, a: int, tokens: dict, norms: dict, params: GroupParams) -> tuple:
    """One peel level from ``state`` on the coefficient ``a`` in [0, q).

    A state is a level of the peel DP up to a shift of the norm: the tuple
    of (carry, norm - least norm) in rank order, the rank being the
    position.  ``norms`` holds ||d|| of every carry difference d.  Returns
    the next state, its back-pointers (each rank's (predecessor rank,
    gamma)), the least norm of the level, and the candidate count of its
    ``_step``, the only ops it ticks.
    """
    p, q, r = params.p, params.q, r_llnf(params)
    col = {carry: (n, rank) for rank, (carry, n) in enumerate(state)}
    cands: dict[int, list] = {}
    for carry in col:
        x = carry + a
        if abs(x) > r:
            raise InternalError("flank peel escaped the table radius")
        for gamma in residues_mod(x, q):
            cands.setdefault((x - gamma) // q * p, []).append((carry, gamma))
    level, back = _step(col, cands, tokens)
    by_norm = sorted((m, d) for d, (m, _) in level.items())
    least, nxt = by_norm[0][0], []
    for c, (n, _) in level.items():
        # c meets itself in by_norm, so the loop ends at a break
        for m, d in by_norm:
            if m + 1 >= n:
                nxt.append((c, n - least))
                break
            if n > m + norms[c - d]:
                break  # dominated by d
    nxt = tuple(nxt)
    ranks = tuple((col[back[c][0]][1], back[c][1]) for c, _ in nxt)
    return nxt, ranks, least, sum(map(len, cands.values()))


@lru_cache(maxsize=None)
def _peel_automaton(params: GroupParams, sign: int) -> tuple[dict, dict, dict, dict]:
    """The flank peel of one (group, side) as a finite automaton, built once.

    A breadth-first search from ``_START`` runs ``_level`` on every
    coefficient in [0, q) of every state it reaches, and stops after
    ``PEEL_EDGE_BUDGET`` edges.  Returns ``ids`` (state -> id, ``_START``
    being 0), ``edges`` ((id, a) -> (next id, next state, back-pointers,
    least norm, candidate count)), the token table gamma -> (||gamma|| +
    1, sym_key(sign gamma)) and the norms of the carry differences; none
    of them is written again.  Carries are multiples p k with |k| <= (r +
    q - 1) // q, as |x - gamma| < r + q.  The ops its levels and carry
    norms tick are not counted.
    """
    p, q = params.p, params.q
    base = _base_lengths(params)
    tokens = {g: (base[g] + 1, sym_key(sign * g)) for g in range(1 - q, q)}
    ops, ids, edges = stats.ops.n, {_START: 0}, {}
    span = 2 * p * ((r_llnf(params) + q - 1) // q)
    norms = {d: int_norm(d, params) for d in range(-span, span + 1, p)}
    states = [_START]  # in id order; the loop reaches the states it appends
    for sid, state in enumerate(states):
        for a in range(min(q, PEEL_EDGE_BUDGET - len(edges))):
            nxt, *level = _level(state, a, tokens, norms, params)
            nid = ids.setdefault(nxt, len(ids))
            if nid == len(states):
                states.append(nxt)
            edges[sid, a] = (nid, nxt, *level)
    stats.ops.n = ops
    return ids, edges, tokens, norms


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
    peel is a finite automaton (37 states per side in BS(2,3)).  It is
    built once per (group, side) by a breadth-first search, up to
    ``PEEL_EDGE_BUDGET`` edges (``_peel_automaton``), and a level on a
    built edge is one lookup.  A level off the built part (q/p near 1) runs
    ``_level`` and stores nothing, and the walk rejoins the built part when
    it reaches a known state.  ``stats.ops`` is ticked with the candidate
    count of every level, so a call counts the same ops whatever is built.
    An empty flank builds nothing.

    Returns the last level as carry -> (norm, rank) in rank order, per
    level the back-pointers rank -> (pred rank, gamma), and the excess left
    for the core.
    """
    if not flank:
        return {0: (0, 0)}, [], 0
    ids, edges, tokens, norms = _peel_automaton(params, sign)
    p, q = params.p, params.q
    sid, state, base, levels, excess, ops = 0, _START, 0, [], 0, 0
    for a in flank:
        mu, a = divmod(a + excess, q)
        excess = mu * p
        edge = edges.get((sid, a))
        if edge is None:
            state, back, least, _ = _level(state, a, tokens, norms, params)  # its _step ticks
            sid = ids.get(state)
        else:
            sid, state, back, least, n = edge
            ops += n
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
