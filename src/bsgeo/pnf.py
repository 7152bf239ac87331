"""Britton peak normal forms and the flank-peeling dynamic program.

Among all Britton-reduced words u ~ w of minimal norm, the Britton peak
normal form is the one whose part u_1 before the peak is least in the
symbol order of :func:`bsgeo.words.cmp_delta`, and whose reversed part
behind the peak is then least as well.  The peak is the rightmost highest
position of the height profile, splitting u = u_1 alpha_i u_2; the peak
coefficient itself is pinned down by u_1, u_2 and the group element, so it
never takes part in comparisons.  Flattening each coefficient through
``int_llnf`` turns the Britton peak normal form into the geodesic peak
normal form.

``peak_wrap_pnf`` reduces a word with flanks  alpha_1 t ... alpha_k t D
T beta_1 ... T beta_m  to normal forms of a bounded family of core words
rho D' delta with |rho|, |delta| <= r: after a carry pass brings all flank
coefficients into [0, q), the left flank is peeled with

    pnf(rho t X) = min { gamma t pnf((mu p + alpha') X) :
                         rho = mu q + gamma, |gamma| < q }

and the right flank symmetrically (appended T gamma, minimising the
reversed tail).  Read innermost first, the two flanks have the same shape,
so one carry pass and one peel serve both.  All candidate words in one
minimisation share their t-sequence, hence their peak position, so
candidates compare by (norm, u_1 symbols, reversed-u_2 symbols).  The
core family is memoised; horocyclic cores are immediate, difficult cores
are delegated to the caller-supplied solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import stats
from .britton import Decomposition, classify, decompose
from .errors import InternalError, NotAHill
from .horocyclic import int_llnf, int_norm, norm, r_llnf, residues_mod
from .words import AltWord, GroupParams, involute_symbols, peak_position, sym_key

__all__ = ["BrittonPnf", "make_britton_pnf", "flatten_pnf", "peak_wrap_pnf", "hill_pnf"]


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


def make_britton_pnf(word: AltWord, params: GroupParams) -> BrittonPnf:
    """Wrap a Britton-reduced word with its peak split and norm."""
    i = peak_position(word)
    syms = word.symbols()
    return BrittonPnf(
        word=word,
        peak_index=i,
        u1=tuple(syms[: 2 * i]),
        peak_coeff=word.alpha[i],
        u2=tuple(syms[2 * i + 1 :]),
        norm=norm(word, params),
    )


def flatten_pnf(b: BrittonPnf, params: GroupParams) -> str:
    """Replace every coefficient by its llnf letters; the result is geodesic."""
    parts = [int_llnf(b.word.alpha[0], params)]
    for i, th in enumerate(b.word.theta):
        parts.append(th)
        parts.append(int_llnf(b.word.alpha[i + 1], params))
    return "".join(parts)


# ---------------------------------------------------------------------------
# DP values
# ---------------------------------------------------------------------------

class _Val(NamedTuple):
    norm: int
    u1key: tuple
    u2key: tuple
    word: AltWord


def _order_key(v: _Val) -> tuple:
    # symbol-count first on both components keeps this a true
    # length-lexicographic comparison even for unequal key lengths
    return (v.norm, len(v.u1key), v.u1key, len(v.u2key), v.u2key)


def _val_from_pnf(b: BrittonPnf) -> _Val:
    u1key = tuple(sym_key(s) for s in b.u1)
    u2key = tuple(sym_key(s) for s in involute_symbols(b.u2))
    return _Val(b.norm, u1key, u2key, b.word)


_T_KEY = sym_key("t")


def _prepend(v: _Val, gamma: int, params: GroupParams) -> _Val:
    stats.ops.tick()
    word = AltWord((gamma,) + v.word.alpha, "t" + v.word.theta)
    return _Val(
        int_norm(gamma, params) + 1 + v.norm,
        (sym_key(gamma), _T_KEY) + v.u1key,
        v.u2key,
        word,
    )


def _append(v: _Val, gamma: int, params: GroupParams) -> _Val:
    stats.ops.tick()
    word = AltWord(v.word.alpha + (gamma,), v.word.theta + "T")
    return _Val(
        v.norm + 1 + int_norm(gamma, params),
        v.u1key,
        (sym_key(-gamma), _T_KEY) + v.u2key,
        word,
    )


# ---------------------------------------------------------------------------
# flank peeling
# ---------------------------------------------------------------------------

def _carry_flank(flank, params: GroupParams) -> tuple[list[int], int]:
    """Carry coefficients, given outermost first, into [0, q).

    a^(mu q) t ~ t a^(mu p) moves left-flank excess inward, and T a^(mu q)
    ~ a^(mu p) T moves right-flank excess inward.  Returns the reduced
    coefficients innermost first and the carry left for the core.  The
    carry is a multiple of p, so the core's boundary residues mod p, and
    with them Britton-reducedness, are preserved.
    """
    out = []
    carry = 0
    for a in flank:
        mu, rem = divmod(a + carry, params.q)
        out.append(rem)
        carry = mu * params.p
    return out[::-1], carry


def _wrap_flanks(
    dec: Decomposition,
    core_solver: Callable[[AltWord], BrittonPnf],
    params: GroupParams,
) -> BrittonPnf:
    # both flanks innermost first: the left one read right to left
    left, rho_carry = _carry_flank(dec.alphas, params)
    right, delta_carry = _carry_flank(dec.betas[::-1], params)
    core_alpha = list(dec.core.alpha)
    core_alpha[0] += rho_carry
    core_alpha[-1] += delta_carry
    core = AltWord(tuple(core_alpha), dec.core.theta)
    p, q = params.p, params.q
    r = r_llnf(params)

    core_cache: dict[tuple[int, int], _Val] = {}

    def core_val(rho: int, delta: int) -> _Val:
        key = (rho, delta)
        if key not in core_cache:
            ca = list(core.alpha)
            ca[0] += rho
            ca[-1] += delta
            core_cache[key] = _val_from_pnf(core_solver(AltWord(tuple(ca), core.theta)))
        return core_cache[key]

    def moves(flank: list[int], i: int, x: int) -> list[tuple[int, int]]:
        """Peeling x = mu q + gamma at level i leaves mu p + the next coefficient."""
        cons = flank[i - 2] if i >= 2 else 0
        out = []
        for gamma in residues_mod(x, q):
            nxt = (x - gamma) // q * p + cons
            if abs(nxt) > r:
                raise InternalError("flank peel escaped the table radius")
            out.append((gamma, nxt))
        return out

    def reachable(flank: list[int]) -> list[set[int]]:
        """Which outer coefficients are reachable at each level."""
        sets: list[set[int]] = [set() for _ in flank] + [{flank[-1] if flank else 0}]
        for i in range(len(flank), 0, -1):
            for x in sets[i]:
                sets[i - 1].update(nxt for _, nxt in moves(flank, i, x))
        return sets

    def peel(level: dict[int, _Val], flank, sets, join) -> _Val:
        for i in range(1, len(flank) + 1):
            nxt_level = {}
            for x in sets[i]:
                best = None
                for gamma, inner in moves(flank, i, x):
                    cand = join(level[inner], gamma, params)
                    if best is None or _order_key(cand) < _order_key(best):
                        best = cand
                nxt_level[x] = best
            level = nxt_level
        (top,) = sets[-1]
        return level[top]

    left_sets, right_sets = reachable(left), reachable(right)
    level = {
        rho: peel(
            {delta: core_val(rho, delta) for delta in right_sets[0]},
            right,
            right_sets,
            _append,
        )
        for rho in left_sets[0]
    }
    return make_britton_pnf(peel(level, left, left_sets, _prepend).word, params)


def peak_wrap_pnf(
    u: AltWord,
    core_solver: Callable[[AltWord], BrittonPnf],
    params: GroupParams,
) -> BrittonPnf:
    """Peak normal form of a word via its flank decomposition.

    ``core_solver`` receives Britton-reduced words rho D delta (the core D
    of u with its boundary coefficients shifted) and must return their
    Britton peak normal forms; it is consulted for a bounded number of
    (rho, delta) pairs and its results are memoised per call.
    """
    return _wrap_flanks(decompose(u, params), core_solver, params)


def horocyclic_core_solver(params: GroupParams) -> Callable[[AltWord], BrittonPnf]:
    """Core solver for integer cores; their only reduced form is themselves."""

    def solve(w: AltWord) -> BrittonPnf:
        if w.theta:
            raise NotAHill(f"core {w} is not horocyclic")
        return make_britton_pnf(w, params)

    return solve


def hill_pnf(u: AltWord, params: GroupParams) -> BrittonPnf:
    """Peak normal form of a hill (t-sequence t^k T^m), in linear time."""
    c = classify(u, params)
    if not (c.horocyclic or c.hill):
        raise NotAHill(f"classification is {c.label!r}")
    return peak_wrap_pnf(u, horocyclic_core_solver(params), params)
