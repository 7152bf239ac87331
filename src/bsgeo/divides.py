"""Peak normal forms for all inputs when p divides q.

A valley is a word whose height profile stays at or below 0 and ends at 0;
non-trivial valleys are generated by  S -> SS | alpha T S beta t | alpha.
The pipeline for a difficult core (Britton reduction starting with T and
ending with t) is:

1. With ell the maximal height and m chosen so that T^ell u t^m ends at
   height 0, the word T^ell u t^m is a Britton-reduced valley.  Its normal
   form P starts with T^ell (the leading residues vanish mod p and
   multiples of p commute across valleys).  The part of P from the
   rightmost peak of T^ell u onwards is a valley that is re-normalised
   from the right (via the involution), and the two halves are glued with
   T^ell stripped.  For m = 0 that part is P's bare last coefficient,
   which comes back unchanged, so no case is special.

2. Any word v equal to a valley factors as v ~ V gamma with V a standard
   valley: trailing coefficient 0, |coefficients| < q everywhere and < p
   in front of every T.  ``canonical_form`` finds it: V is the canonical
   form of v with its last coefficient set to 0, and gamma is that last
   coefficient.  A canonical form is the Britton reduction of v with its
   coefficients carried into [0, q) before each t and [0, p) before each
   T, so it meets the standard bounds.  Because p divides q, the carry
   mu q that an arc pushes inward passes every inner T whole and leaves
   after the matching t unchanged, which is the grammar's arc rule.

3. For each standard valley V a range R(V), a set of multiples of p with
   |rho| <= r * s(V)  (r the least positive integer with
   r >= p*(r+3q-2)/q, s the sink count), and per rho a normal-form word
   V_rho with V ~ V_rho a^rho are computed bottom-up along the grammar:

       leaf:    R = {0}
       U W:     sums of ranges; V_rho = min { U_sigma W_tau }
       arc:     alpha = eps p + alpha', sigma + eps q + beta = mu q + beta'
                with |alpha'| < p, |beta'| < q, rho = mu p;
                V_rho = min { alpha' T U_sigma beta' t }

   Minima are taken in the normal-form order (norm first, then the symbol
   order on the part before the peak, which for these words is everything
   up to the trailing coefficient).  Each step is a rank DP like
   ``slope_llnf``'s.  Within one production all candidates share their
   t-sequence, so the symbol order is decided by (key of alpha', child
   rank, key of beta') at an arc and by (left rank, right rank) at a
   concatenation, where an integer a has key ``sym_key(a)`` =
   2 + 2|a| + (a < 0).  Per rho a step keeps its least (norm, key) tuple
   and a back-pointer, one plain sort of the winners by key gives the
   ranks, and only the winners become structure-sharing rope nodes.  The
   words for different shifts rho differ, so the ranks are strict.  The
   coefficients are all below q, so their norms come from the integer
   table (``horocyclic._base_lengths``), in one table of arc choices per
   group (``_arc_steps``).

   No parse tree is built.  One left-to-right stack pass over V pushes the
   pending alpha and the open level's family at each T, and at each t
   builds the arc's family and folds it into the parent level, so
   concatenations fold to the left and only the families of open levels
   are alive.  After each arc and concatenation the pass drops every
   shift rho' with ||V_rho'|| > m0 + ||rho' - rho0||, m0 the least norm at
   rho0: V_rho0 a^(rho0 - rho') spells the same element, so the next
   coefficient can absorb the difference and no geodesic passes through
   V_rho' (``_live`` has the proof).  Ranks follow the symbols of the
   words, so the winner of step 4 and its ties are unchanged.
   ``range_of`` and ``valley_family`` run the same pass without the drop
   and return the full R(V).

4. pnf(v) = min { V_rho llnf(rho + gamma) : rho in R(V) }, over the live
   shifts; only the winner's rope is spelled.

All passes are iterative, so deeply nested valleys (tens of thousands of
levels) are fine.
"""

from __future__ import annotations

from functools import lru_cache, partial
from operator import itemgetter

from . import stats
from .britton import britton_reduce, decompose, is_britton_reduced
from .canonical import canonical_form
from .errors import (
    InternalError,
    NotAValley,
    NotDifficult,
    RequiresDivides,
    UnsupportedCase,
)
from .horocyclic import _base_lengths, int_norm, residues_mod
from .pnf import BrittonPnf, _integer_core, _wrap_flanks, flatten_pnf, make_britton_pnf
from .words import (
    AltWord,
    GroupParams,
    _is_valley,
    alt_from_symbols,
    height_profile,
    involute,
    sym_key,
    to_alt,
)

__all__ = [
    "pi_residues",
    "r_valley",
    "to_standard_valley",
    "is_standard_valley",
    "range_of",
    "valley_family",
    "valley_pnf",
    "difficult_pnf",
    "full_pnf",
    "geodesic_length",
]


def _require_divides(params: GroupParams) -> None:
    if not params.divides:
        raise RequiresDivides(f"p={params.p} does not divide q={params.q}")


def pi_residues(u: AltWord, params: GroupParams) -> tuple[tuple[int, ...], str]:
    """Coefficients mod p of the Britton reduction, with its t-sequence.

    For p dividing q this image depends only on the group element.
    """
    _require_divides(params)
    w = britton_reduce(u, params)
    return tuple(a % params.p for a in w.alpha), w.theta


@lru_cache(maxsize=None)
def r_valley(params: GroupParams) -> int:
    """Least positive r with r >= p*(r + 3q - 2)/q (the range radius)."""
    p, q = params.p, params.q
    return max(1, -(-(p * (3 * q - 2)) // (q - p)))


# ---------------------------------------------------------------------------
# standardisation (valley ~ standard valley * integer)
# ---------------------------------------------------------------------------

def to_standard_valley(v: AltWord, params: GroupParams) -> tuple[AltWord, int]:
    """A standard valley V and gamma with v ~ V a^gamma, from canonical_form(v)."""
    _require_divides(params)
    c = canonical_form(v, params)
    if not _is_valley(c):
        raise NotAValley(f"{v} does not Britton-reduce to a valley")
    return AltWord(c.alpha[:-1] + (0,), c.theta), c.alpha[-1]


def is_standard_valley(V: AltWord, params: GroupParams) -> bool:
    """Trailing coefficient 0, |alpha_i| < q, and |alpha_i| < p before T."""
    p, q = params.p, params.q
    if not _is_valley(V) or not is_britton_reduced(V, params):
        return False
    if len(V.theta) == 0:
        return V.alpha == (0,)
    if V.alpha[-1] != 0:
        return False
    for i, th in enumerate(V.theta):
        bound = p if th == "T" else q
        if abs(V.alpha[i]) >= bound:
            return False
    return True


# ---------------------------------------------------------------------------
# ranges and families
# ---------------------------------------------------------------------------

Family = list[tuple[int, int, tuple]]
"""A node's family in rank order: (rho, norm, rope) per shift rho.

A rope is a structure-sharing word: ("leaf", 0), ("arc", alpha', child
rope, beta') or ("cat", left rope, right rope).
"""

_LEAF: Family = [(0, 0, ("leaf", 0))]

# a step's winners are (rho, (key..., norm, ...)) pairs; no two keys are equal
_KEY = itemgetter(1)


@lru_cache(maxsize=None)
def _arc_steps(params: GroupParams) -> tuple[dict, tuple]:
    """The choices of an arc step, each list in key order.

    Per alpha with |alpha| < p, the alpha' = alpha - eps p with |alpha'| < p
    as (alpha', ||alpha'|| + 2, key, eps q); per x mod q, the beta' with
    |beta'| < q and beta' = x (mod q) as (beta', ||beta'||, key, rho step):
    beta' = x mod q - q carries one more q, so its rho is one p higher.
    """
    p, q = params.p, params.q
    base, by_key = _base_lengths(params), itemgetter(2)
    alphas = {}
    for a in range(1 - p, p):
        options = [(a - e * p, e * q) for e in (-1, 0, 1) if abs(a - e * p) < p]
        alphas[a] = sorted(((ap, base[ap] + 2, sym_key(ap), s) for ap, s in options), key=by_key)
    betas = tuple(
        sorted(((b, base[b], sym_key(b), (g - b) // q * p) for b in residues_mod(g, q)), key=by_key)
        for g in range(q)
    )
    return alphas, betas


def _arc(child: Family, alpha: int, beta: int, params: GroupParams, steps: tuple) -> Family:
    """The family of alpha T U beta t from the family of its interior U.

    Candidates come in key order (alpha', child rank, beta'), so per rho
    the first of the least norm is the least (norm, key).  ``steps`` is
    ``_arc_steps(params)``.
    """
    p, q = params.p, params.q
    alphas, betas = steps
    best: dict[int, tuple] = {}
    n_cands = 0
    for ap, an, ak, shift in alphas[alpha]:
        shift += beta
        for rank, (sigma, n, _) in enumerate(child):
            mu, g = divmod(sigma + shift, q)
            n += an
            mu *= p
            options = betas[g]
            n_cands += len(options)
            for b, bn, bk, step in options:
                rho = mu + step
                cur = best.get(rho)
                if cur is None or n + bn < cur[3]:
                    best[rho] = (ak, rank, bk, n + bn, ap, b)
    stats.ops.tick(n_cands)
    winners = sorted(best.items(), key=_KEY)
    return [(rho, c[3], ("arc", c[4], child[c[1]][2], c[5])) for rho, c in winners]


def _cat(left: Family, right: Family) -> Family:
    """The family of the concatenation U W from the families of U and W."""
    stats.ops.tick(len(left) * len(right))
    best: dict[int, tuple] = {}
    # pairs come in (left rank, right rank) order: the first least norm wins
    for lrank, (sigma, ln, _) in enumerate(left):
        for rrank, (tau, rn, _) in enumerate(right):
            cur = best.get(sigma + tau)
            if cur is None or ln + rn < cur[2]:
                best[sigma + tau] = (lrank, rrank, ln + rn)
    winners = sorted(best.items(), key=_KEY)
    return [(rho, c[2], ("cat", left[c[0]][2], right[c[1]][2])) for rho, c in winners]


def _live(fam: Family, diff_norms: dict[int, int], params: GroupParams) -> Family:
    """The shifts of a family that a geodesic can pass through.

    With m0 the least norm (at rho0), every rho' with
    ||V_rho'|| > m0 + ||rho' - rho0|| is dropped.  Every family word ends
    in coefficient 0, and V ~ V_rho' a^rho' ~ V_rho0 a^rho0, so
    V_rho' ~ V_rho0 a^(rho0 - rho').  A word that uses V_rho' goes on with
    some coefficient c that the trailing 0 absorbs (beta' at an arc, the
    next word's first coefficient at a concatenation, rho + gamma at the
    root).  Putting V_rho0 there and c + rho0 - rho' after it spells the
    same element, and by ||c + d|| <= ||c|| + ||d|| its norm falls by at
    least ||V_rho'|| - m0 - ||rho' - rho0|| > 0.  So no word through
    V_rho' is geodesic, and the winner of step 4, which is, never passes
    through it, whatever gamma is.  Ranks order words by their symbols
    whichever other words a family holds, and the filter keeps the rank
    order, so each step on the winner's path still picks the same word,
    now among fewer candidates, with the same tie-breaks.  (A surviving
    shift whose least word in the full R(V) passed through a dropped
    shift gets another word, which no winner uses.)  ``diff_norms``
    memoises ||rho' - rho0|| over one pass.
    """
    if len(fam) == 1:
        return fam
    rho0, m0, _ = min(fam, key=itemgetter(1))
    live = []
    for f in fam:
        excess = f[1] - m0
        if excess:
            d = f[0] - rho0
            dn = diff_norms.get(d)
            if dn is None:
                dn = diff_norms[d] = int_norm(d, params)
            if excess > dn:
                continue
        live.append(f)
    return live


def _root_family(V: AltWord, params: GroupParams, drop: bool) -> Family:
    """The family of a standard valley V by one left-to-right stack pass.

    The pass reads V along the grammar: on T it pushes the pending alpha
    and the open level's folded family; on t it pops, builds the arc's
    family from the interior (the leaf family for an empty one, with beta
    the coefficient before the t) and folds it into the parent level, so
    concatenations fold to the left.  Only the families of open levels are
    alive.  With ``drop`` every arc and concatenation keeps only its live
    shifts (``_live``); without it the result is the full R(V).
    """
    steps = _arc_steps(params)
    diff_norms: dict[int, int] = {}
    stack: list[tuple[int, Family | None]] = []
    acc: Family | None = None
    pending = V.alpha[0]
    for th, nxt in zip(V.theta, V.alpha[1:]):
        if th == "T":
            stack.append((pending, acc))
            acc = None
        else:
            alpha, parent = stack.pop()
            acc = _arc(acc or _LEAF, alpha, pending, params, steps)
            if drop:
                acc = _live(acc, diff_norms, params)
            if parent is not None:
                acc = _cat(parent, acc)
                if drop:
                    acc = _live(acc, diff_norms, params)
        pending = nxt
    if stack:
        raise InternalError("unbalanced valley")
    return acc or _LEAF


def _rope_symbols(rope: tuple) -> list:
    """Symbols of the word a rope spells, trailing coefficient included.

    ``out`` always ends in the open coefficient, to which the next word
    adds its first one.
    """
    out: list = [0]
    stack = [rope]
    while stack:
        node = stack.pop()
        if node[0] == "cat":
            stack += (node[2], node[1])
        elif node[0] == "arc":
            out[-1] += node[1]
            out += ("T", 0)
            stack += (("t", node[3]), node[2])
        else:  # a leaf adds its value; ("t", beta') closes an arc
            out[-1] += node[1]
            if node[0] == "t":
                out += ("t", 0)
    return out


def _full_family(V: AltWord, params: GroupParams) -> Family:
    _require_divides(params)
    if not is_standard_valley(V, params):
        raise NotAValley(f"{V} is not a standard valley")
    return _root_family(V, params, drop=False)


def range_of(V: AltWord, params: GroupParams) -> tuple[int, ...]:
    """The full shift range R(V) of a standard valley (sorted multiples of p).

    No shift is dropped: this is the paper's R(V), not the live part that
    the normal-form pass keeps.
    """
    return tuple(sorted(rho for rho, _, _ in _full_family(V, params)))


def valley_family(V: AltWord, params: GroupParams) -> dict[int, tuple[AltWord, int]]:
    """All shifted normal forms: rho -> (V_rho, norm) with V ~ V_rho a^rho.

    Covers the full R(V), with no shift dropped.
    """
    return {
        rho: (alt_from_symbols(_rope_symbols(rope)), n)
        for rho, n, rope in _full_family(V, params)
    }


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def _valley_word(v: AltWord, params: GroupParams) -> AltWord:
    """The peak normal form word of a valley: min over V_rho llnf(rho + gamma).

    A valley with no t-letter is an integer, its own normal form, and comes
    back unchanged.
    """
    if not v.theta:
        return v
    V, gamma = to_standard_valley(v, params)
    root = _root_family(V, params, drop=True)
    stats.ops.tick(len(root))
    # the family is in rank order, and min keeps the first of equal norms
    rho, _, rope = min(root, key=lambda f: f[1] + int_norm(f[0] + gamma, params))
    syms = _rope_symbols(rope)
    syms[-1] += rho + gamma
    return alt_from_symbols(syms)


def valley_pnf(v: AltWord, params: GroupParams) -> BrittonPnf:
    """Peak normal form of a valley: min over V_rho llnf(rho + gamma)."""
    _require_divides(params)
    return make_britton_pnf(_valley_word(v, params), params)


def _difficult_word(w: AltWord, params: GroupParams) -> AltWord:
    """Pnf word of a Britton-reduced difficult word via its two valley halves."""
    prof = height_profile(w)
    ell = max(prof)
    m = ell - prof[-1]
    vw = AltWord((0,) * ell + w.alpha + (0,) * m, "T" * ell + w.theta + "t" * m)
    P = _valley_word(vw, params)
    profP = height_profile(P)
    K = len(P.theta)
    jstar = max(i for i in range(K - m + 1) if profP[i] == 0)
    tail = AltWord(P.alpha[jstar:], P.theta[jstar:])
    Q = involute(_valley_word(involute(tail), params))
    KQ = len(Q.theta)
    # both halves are Britton-reduced, so their t-sequences must survive
    if P.theta != vw.theta or KQ != len(tail.theta):
        raise InternalError("the carry pass cancelled a pair of a reduced valley")
    if any(P.alpha[:ell]) or Q.theta[KQ - m :] != "t" * m or any(Q.alpha[KQ - m + 1 :]):
        raise InternalError("valley pnf lost the T^ell prefix or the t^m suffix")
    return AltWord(
        P.alpha[ell:jstar] + Q.alpha[: KQ - m + 1],
        P.theta[ell:jstar] + Q.theta[: KQ - m],
    )


def difficult_pnf(u: AltWord, params: GroupParams) -> BrittonPnf:
    """Peak normal form of a difficult word: Britton-reduce, then ``_difficult_word``."""
    _require_divides(params)
    w = britton_reduce(u, params)
    if not (w.theta and w.theta[0] == "T" and w.theta[-1] == "t"):
        raise NotDifficult(f"t-sequence {w.theta!r} must start with T and end with t")
    return make_britton_pnf(_difficult_word(w, params), params)


def full_pnf(w: str | AltWord, params: GroupParams) -> tuple[BrittonPnf, str, int]:
    """Peak normal form of an arbitrary word.

    Returns (Britton peak normal form, flattened geodesic letters, geodesic
    length).  ``decompose`` Britton-reduces the input once, and the flank
    peel hands each shifted core to ``_difficult_word`` or, for an integer
    core, keeps it.  Only the winning word is spelled, and its length is
    the norm, so a^N runs one slope pass.  For p not dividing q this works
    whenever the core is horocyclic (hills in particular) and raises
    UnsupportedCase otherwise.
    """
    u = to_alt(w) if isinstance(w, str) else w
    dec = decompose(u, params)
    if dec.core.theta == "":
        solve_core = _integer_core
    elif params.divides:
        solve_core = partial(_difficult_word, params=params)
    else:
        raise UnsupportedCase(
            "computing geodesics of difficult words (t-sequence starting with"
            f" T and ending with t) is an open problem for p={params.p},"
            f" q={params.q} with p not dividing q"
        )
    word = _wrap_flanks(dec, solve_core, params)
    flat = flatten_pnf(word, params)
    return make_britton_pnf(word, params, len(flat)), flat, len(flat)


def geodesic_length(w: str | AltWord, params: GroupParams) -> int:
    """The geodesic length of the element represented by w."""
    return full_pnf(w, params)[2]
