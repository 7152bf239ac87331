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
reversed tail).  All candidate words in one minimisation share their
t-sequence, hence their peak position, so candidates compare by
(norm, u_1 symbols, reversed-u_2 symbols).  The core family is memoised;
horocyclic cores are immediate, difficult cores are delegated to the
caller-supplied solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import stats
from .britton import Decomposition, classify, decompose
from .errors import InternalError, NotAHill
from .horocyclic import int_llnf, int_norm, norm, r_llnf, residues_mod
from .words import AltWord, GroupParams, height_profile, sym_key

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
    prof = height_profile(word)
    top = max(prof)
    i = len(prof) - 1 - prof[::-1].index(top)
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


def _inv_symbols(syms: tuple) -> list:
    out = []
    for s in reversed(syms):
        out.append(-s if isinstance(s, int) else ("t" if s == "T" else "T"))
    return out


def _val_from_pnf(b: BrittonPnf) -> _Val:
    u1key = tuple(sym_key(s) for s in b.u1)
    u2key = tuple(sym_key(s) for s in _inv_symbols(b.u2))
    return _Val(b.norm, u1key, u2key, b.word)


_T_KEY = sym_key("t")


def _prepend(gamma: int, v: _Val, params: GroupParams) -> _Val:
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

def _normalize_flanks(
    dec: Decomposition, params: GroupParams
) -> tuple[list[int], list[int], AltWord]:
    """Carry flank coefficients into [0, q), pushing the excess into the core.

    a^(mu q) t ~ t a^(mu p) moves left-flank excess inward; T a^(mu q) ~
    a^(mu p) T moves right-flank excess inward.  The pushed amounts are
    multiples of p, so the core's boundary residues mod p, and with them
    Britton-reducedness, are preserved.
    """
    p, q = params.p, params.q
    A = list(dec.alphas)
    B = list(dec.betas)
    core_alpha = list(dec.core.alpha)
    for idx in range(len(A)):
        mu, rem = divmod(A[idx], q)
        A[idx] = rem
        if idx + 1 < len(A):
            A[idx + 1] += mu * p
        else:
            core_alpha[0] += mu * p
    for idx in range(len(B) - 1, -1, -1):
        mu, rem = divmod(B[idx], q)
        B[idx] = rem
        if idx:
            B[idx - 1] += mu * p
        else:
            core_alpha[-1] += mu * p
    return A, B, AltWord(tuple(core_alpha), dec.core.theta)


def _wrap_flanks(
    dec: Decomposition,
    core_solver: Callable[[AltWord], BrittonPnf],
    params: GroupParams,
) -> BrittonPnf:
    A, B, core = _normalize_flanks(dec, params)
    k, m = len(A), len(B)
    p, q = params.p, params.q
    r = r_llnf(params)
    rho_top = A[0] if k else 0
    delta_top = B[-1] if m else 0

    core_cache: dict[tuple[int, int], _Val] = {}

    def core_val(rho: int, delta: int) -> _Val:
        key = (rho, delta)
        if key not in core_cache:
            ca = list(core.alpha)
            ca[0] += rho
            ca[-1] += delta
            core_cache[key] = _val_from_pnf(core_solver(AltWord(tuple(ca), core.theta)))
        return core_cache[key]

    def left_moves(i: int, rho: int) -> list[tuple[int, int]]:
        cons = A[k - i + 1] if i >= 2 else 0
        out = []
        for gamma in residues_mod(rho, q):
            mu = (rho - gamma) // q
            nxt = mu * p + cons
            if abs(nxt) > r:
                raise InternalError("left peel escaped the table radius")
            out.append((gamma, nxt))
        return out

    def right_moves(j: int, delta: int) -> list[tuple[int, int]]:
        cons = B[j - 2] if j >= 2 else 0
        out = []
        for gamma in residues_mod(delta, q):
            mu = (delta - gamma) // q
            nxt = mu * p + cons
            if abs(nxt) > r:
                raise InternalError("right peel escaped the table radius")
            out.append((gamma, nxt))
        return out

    # which outer coefficients are reachable at each level
    left_sets: list[set[int]] = [set() for _ in range(k + 1)]
    left_sets[k] = {rho_top}
    for i in range(k, 0, -1):
        for rho in left_sets[i]:
            left_sets[i - 1].update(nxt for _, nxt in left_moves(i, rho))
    right_sets: list[set[int]] = [set() for _ in range(m + 1)]
    right_sets[m] = {delta_top}
    for j in range(m, 0, -1):
        for delta in right_sets[j]:
            right_sets[j - 1].update(nxt for _, nxt in right_moves(j, delta))

    def right_chain(rho: int) -> _Val:
        if m == 0:
            return core_val(rho, 0)
        level = {delta: core_val(rho, delta) for delta in right_sets[0]}
        for j in range(1, m + 1):
            nxt_level = {}
            for delta in right_sets[j]:
                best = None
                for gamma, inner in right_moves(j, delta):
                    cand = _append(level[inner], gamma, params)
                    if best is None or _order_key(cand) < _order_key(best):
                        best = cand
                nxt_level[delta] = best
            level = nxt_level
        return level[delta_top]

    level = {rho: right_chain(rho) for rho in left_sets[0]}
    for i in range(1, k + 1):
        nxt_level = {}
        for rho in left_sets[i]:
            best = None
            for gamma, inner in left_moves(i, rho):
                cand = _prepend(gamma, level[inner], params)
                if best is None or _order_key(cand) < _order_key(best):
                    best = cand
            nxt_level[rho] = best
        level = nxt_level
    return make_britton_pnf(level[rho_top].word, params)


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
