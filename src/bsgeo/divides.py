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
   V_rho with V ~ V_rho a^rho are computed by one bottom-up pass:

       leaf:    R = {0}
       U W:     sums of ranges; V_rho = min { U_sigma W_tau }
       arc:     alpha = eps p + alpha', sigma + eps q + beta = mu q + beta'
                with |alpha'| < p, |beta'| < q, rho = mu p;
                V_rho = min { alpha' T U_sigma beta' t }

   Minima are taken in the normal-form order (norm first, then the symbol
   order on the part before the peak, which for these words is everything
   up to the trailing coefficient).  The pass is a rank DP like
   ``slope_llnf``'s.  Within one tree node all candidates share their
   t-sequence, so the symbol order is decided by (key of alpha', child
   rank, key of beta') at an arc and by (left rank, right rank) at a
   concatenation, where an integer a has key ``sym_key(a)`` =
   2 + 2|a| + (a < 0).  Per rho a node keeps its least (norm, key) tuple
   and a back-pointer, one plain sort of the winners by key gives the
   node's ranks, and only the winners become structure-sharing rope
   nodes.  The words for different shifts rho differ, so the ranks are
   strict.  The norms and keys of the coefficients, all below q, come from
   one table per group (``horocyclic._small_ints``).

4. pnf(v) = min { V_rho llnf(rho + gamma) : rho in R(V) }.

All tree passes are iterative, so deeply nested valleys (tens of thousands
of levels) are fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

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
from .horocyclic import _small_ints, int_norm, residues_mod
from .pnf import BrittonPnf, _integer_core, _wrap_flanks, flatten_pnf, make_britton_pnf
from .words import (
    AltWord,
    GroupParams,
    _is_valley,
    alt_from_symbols,
    height_profile,
    involute,
    to_alt,
)

__all__ = [
    "pi_residues",
    "ValleyNode",
    "ValleyTree",
    "valley_parse",
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
# valley parse trees
# ---------------------------------------------------------------------------

@dataclass
class ValleyNode:
    """One production of the valley grammar.

    kind 'leaf' carries an integer value; kind 'arc' is
    alpha T <child> beta t; kind 'cat' concatenates two valleys.  ``sinks``
    follows the grammar recursion: 1 for leaves, the child's count for
    arcs, and the sum for concatenations.
    """

    kind: str
    value: int = 0
    alpha: int = 0
    beta: int = 0
    child: int = -1
    left: int = -1
    right: int = -1
    sinks: int = 1


@dataclass
class ValleyTree:
    """Flat parse tree; children always precede their parents in ``nodes``."""

    nodes: list[ValleyNode]
    root: int

    def reassemble(self) -> AltWord:
        """The valley word spelled by the tree (inverse of valley_parse)."""
        view = partial(_node_view, self.nodes)
        return alt_from_symbols(_walk_symbols(self.root, view))


def valley_parse(v: AltWord) -> ValleyTree:
    """Deterministic parse of a valley along the grammar.

    The word is split at its returns to height zero; every T...t arc takes
    the coefficient in front of its T as alpha and the coefficient before
    its t as beta (the interior keeps a zero there), and a nonzero trailing
    coefficient becomes a final leaf.  Concatenations fold to the left.
    """
    if not _is_valley(v):
        raise NotAValley(f"height profile of {v} leaves [min..0] or ends above 0")
    nodes: list[ValleyNode] = []

    def fold(ids: list[int]) -> int:
        cur = ids[0]
        for nid in ids[1:]:
            nodes.append(
                ValleyNode(
                    "cat",
                    left=cur,
                    right=nid,
                    sinks=nodes[cur].sinks + nodes[nid].sinks,
                )
            )
            cur = len(nodes) - 1
        return cur

    sib_stack: list[list[int]] = [[]]
    alpha_stack: list[int] = []
    pending = v.alpha[0]
    for i, th in enumerate(v.theta):
        nxt = v.alpha[i + 1]
        if th == "T":
            alpha_stack.append(pending)
            sib_stack.append([])
            pending = nxt
        else:
            sibs = sib_stack.pop()
            if sibs:
                interior = fold(sibs)
            else:
                nodes.append(ValleyNode("leaf", value=0))
                interior = len(nodes) - 1
            nodes.append(
                ValleyNode(
                    "arc",
                    alpha=alpha_stack.pop(),
                    beta=pending,
                    child=interior,
                    sinks=nodes[interior].sinks,
                )
            )
            sib_stack[-1].append(len(nodes) - 1)
            pending = nxt
    top = sib_stack.pop()
    if sib_stack or alpha_stack:
        raise InternalError("unbalanced valley")
    if pending != 0 or not top:
        nodes.append(ValleyNode("leaf", value=pending))
        top.append(len(nodes) - 1)
    return ValleyTree(nodes, fold(top))


def _node_view(nodes: list[ValleyNode], nid: int) -> tuple:
    node = nodes[nid]
    if node.kind == "leaf":
        return ("leaf", node.value)
    if node.kind == "arc":
        return ("arc", node.alpha, node.child, node.beta)
    return ("cat", node.left, node.right)


def _walk_symbols(root, view: Callable[[object], tuple]) -> list:
    """Symbols of the word spelled from root, trailing coefficient included.

    ``view`` reads a node as ("leaf", value), ("arc", alpha, child, beta)
    or ("cat", left, right).
    """
    out: list = []
    stack: list[tuple] = [(root, 0, 0)]
    while stack:
        node, phase, extra = stack.pop()
        parts = view(node)
        if parts[0] == "leaf":
            out.append(parts[1])
        elif parts[0] == "arc":
            if phase == 0:
                out.append(parts[1])
                out.append("T")
                stack.append((node, 1, 0))
                stack.append((parts[2], 0, 0))
            else:
                out[-1] += parts[3]
                out.append("t")
                out.append(0)
        else:
            if phase == 0:
                stack.append((node, 1, 0))
                stack.append((parts[1], 0, 0))
            elif phase == 1:
                carry = out.pop()
                stack.append((node, 2, (carry, len(out))))
                stack.append((parts[2], 0, 0))
            else:
                carry, idx = extra
                out[idx] += carry
    return out


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
"""A node's family in rank order: (rho, norm, rope) per shift rho."""


def _families(tree: ValleyTree, params: GroupParams) -> list[Family]:
    """Per node the least word V_rho for every rho in its range, ranked.

    The rank DP of step 3 in the module docstring.  A candidate is a tuple
    (norm, key..., back-pointer...), and a rope is built only for each
    rho's winner.  Ropes are the views ``_walk_symbols`` reads: ("leaf", 0),
    ("arc", alpha', child rope, beta') or ("cat", left rope, right rope).
    """
    p, q = params.p, params.q
    small = _small_ints(params)
    fams: list[Family] = []
    for node in tree.nodes:
        if node.kind == "leaf":
            fams.append([(0, 0, ("leaf", 0))])
            continue
        best: dict[int, tuple] = {}
        if node.kind == "arc":
            child = fams[node.child]
            n_cands = 0
            for eps in (-1, 0, 1):
                ap = node.alpha - eps * p
                if abs(ap) >= p:
                    continue
                an, ak = small[ap]
                shift = eps * q + node.beta
                for rank, (sigma, n, _) in enumerate(child):
                    x = sigma + shift
                    bs = residues_mod(x, q)
                    n_cands += len(bs)
                    for b in bs:
                        bn, bk = small[b]
                        cand = (n + an + bn + 2, ak, rank, bk, ap, b)
                        rho = (x - b) // q * p
                        cur = best.get(rho)
                        if cur is None or cand < cur:
                            best[rho] = cand
            winners = sorted(best.items(), key=lambda kv: kv[1][1:4])
            fam = [(rho, c[0], ("arc", c[4], child[c[2]][2], c[5])) for rho, c in winners]
        else:
            left, right = fams[node.left], fams[node.right]
            n_cands = len(left) * len(right)
            # pairs come in (left rank, right rank) order: the first least norm wins
            for lrank, (sigma, ln, _) in enumerate(left):
                for rrank, (tau, rn, _) in enumerate(right):
                    n = ln + rn
                    cur = best.get(sigma + tau)
                    if cur is None or n < cur[0]:
                        best[sigma + tau] = (n, lrank, rrank)
            winners = sorted(best.items(), key=lambda kv: kv[1][1:])
            fam = [(rho, c[0], ("cat", left[c[1]][2], right[c[2]][2])) for rho, c in winners]
        stats.ops.tick(n_cands)
        fams.append(fam)
    return fams


def _rope_symbols(rope: tuple) -> list:
    return _walk_symbols(rope, lambda node: node)


def _parse_standard(V: AltWord, params: GroupParams) -> ValleyTree:
    if not is_standard_valley(V, params):
        raise NotAValley(f"{V} is not a standard valley")
    return valley_parse(V)


def range_of(V: AltWord, params: GroupParams) -> tuple[int, ...]:
    """The shift range R(V) of a standard valley (sorted multiples of p)."""
    _require_divides(params)
    tree = _parse_standard(V, params)
    return tuple(sorted(rho for rho, _, _ in _families(tree, params)[tree.root]))


def valley_family(V: AltWord, params: GroupParams) -> dict[int, tuple[AltWord, int]]:
    """All shifted normal forms: rho -> (V_rho, norm) with V ~ V_rho a^rho."""
    _require_divides(params)
    tree = _parse_standard(V, params)
    root = _families(tree, params)[tree.root]
    return {rho: (alt_from_symbols(_rope_symbols(rope)), n) for rho, n, rope in root}


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def _valley_word(v: AltWord, params: GroupParams) -> AltWord:
    """The peak normal form word of a valley: min over V_rho llnf(rho + gamma)."""
    V, gamma = to_standard_valley(v, params)
    tree = valley_parse(V)
    root = _families(tree, params)[tree.root]
    stats.ops.tick(len(root))
    # the family is in rank order, and min keeps the first of equal norms
    rho, _, rope = min(root, key=lambda f: f[1] + int_norm(f[0] + gamma, params))
    syms = _rope_symbols(rope)
    syms[-1] += rho + gamma
    return alt_from_symbols(syms)


def valley_pnf(v: AltWord, params: GroupParams) -> BrittonPnf:
    """Peak normal form of a valley: min over V_rho llnf(rho + gamma)."""
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
