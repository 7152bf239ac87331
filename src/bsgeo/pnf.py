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

``_wrap_flanks`` reduces a word with flanks  alpha_1 t ... alpha_k t D
T beta_1 ... T beta_m  to normal forms of a bounded family of core words
rho D' delta with |rho|, |delta| <= r: after a carry pass brings all flank
coefficients into [0, q), the left flank is peeled from the outside in,

    pnf(x t X) = min { gamma t pnf((mu p + alpha') X) :
                       x = mu q + gamma, |gamma| < q },

and the right flank alike, read from its outer end.  Each flank is peeled
once, one level per coefficient, by the slope DP's column step
``horocyclic._step``: a level maps each carry to the norm and rank of its
least path, ranked by (predecessor rank, token), the lexicographic order
of the paths.  The core is solved once per pair (rho, delta) of final
carries, and the pair that wins on (norm, left rank, core pre-peak key,
right rank, core reversed post-peak key) is spelled from the
back-pointers.  This is exact: norms add; all paths through a flank emit
the same number of tokens and a path's tokens fix its carry, so distinct
carries get distinct ranks and the core keys only break ties between equal
carries.  The shifts touch only the core's boundary coefficients, which
lie outside every pinch, so each shifted core is still Britton-reduced and
the core solver maps it straight to its normal-form word: an integer core
is its own (``_integer_core``), a difficult one is solved by ``divides``.
One ``BrittonPnf`` is built per call, for the winning word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .britton import Decomposition, decompose
from .errors import InternalError, NotAHill
from .horocyclic import _path, _small_ints, _step, int_llnf, norm, r_llnf, residues_mod
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
# flank peeling
# ---------------------------------------------------------------------------

def _peel(flank, sign: int, params: GroupParams) -> tuple[dict, list[dict], int]:
    """The forward rank DP over one flank, coefficients outermost first.

    A carry pass brings each coefficient into [0, q) on the way in: a^(mu q)
    t ~ t a^(mu p) moves left-flank excess inward, and T a^(mu q) ~ a^(mu p)
    T moves right-flank excess inward.  The excess left for the core is a
    multiple of p, so the core's boundary residues mod p, and with them
    Britton-reducedness, are preserved.

    A state is the carry into the next coefficient.  Peeling x = mu q +
    gamma emits the token gamma t (left, ``sign`` +1) or, read from the
    outside, -gamma t (right, ``sign`` -1) and carries mu p inward.  A level
    is the slope DP's column step ``horocyclic._step`` over each next
    carry's (carry, gamma) pairs, with the token table gamma -> (||gamma||
    + 1, sym_key(sign gamma)).  Returns the last level as carry -> (norm,
    rank), per level the back-pointers carry -> (pred carry, gamma), and
    the excess left for the core.
    """
    p, q, r = params.p, params.q, r_llnf(params)
    small = _small_ints(params)
    tokens = {g: (n + 1, small[sign * g][1]) for g, (n, _) in small.items()}
    states, levels, excess = {0: (0, 0)}, [], 0
    for a in flank:
        mu, a = divmod(a + excess, q)
        excess = mu * p
        cands: dict[int, list] = {}
        for carry in states:
            x = carry + a
            if abs(x) > r:
                raise InternalError("flank peel escaped the table radius")
            for gamma in residues_mod(x, q):
                cands.setdefault((x - gamma) // q * p, []).append((carry, gamma))
        states, back = _step(states, cands, tokens)
        levels.append(back)
    return states, levels, excess


def _integer_core(w: AltWord) -> AltWord:
    """An integer core is its own Britton peak normal form."""
    return w


def _wrap_flanks(
    dec: Decomposition,
    solve_core: Callable[[AltWord], AltWord],
    params: GroupParams,
) -> BrittonPnf:
    """Britton pnf of ``dec``; ``solve_core`` maps a reduced core to its pnf word."""
    left_states, left_levels, rho_carry = _peel(dec.alphas, 1, params)
    right_states, right_levels, delta_carry = _peel(dec.betas[::-1], -1, params)
    core = dec.core
    best = None
    for rho, (left_norm, left_rank) in left_states.items():
        for delta, (right_norm, right_rank) in right_states.items():
            alpha = list(core.alpha)
            alpha[0] += rho_carry + rho
            alpha[-1] += delta_carry + delta
            w = solve_core(AltWord(tuple(alpha), core.theta))
            pre, post = peak_key(w)
            key = (left_norm + norm(w, params) + right_norm, left_rank, pre, right_rank, post)
            if best is None or key < best[0]:
                best = (key, rho, delta, w)
    _, rho, delta, w = best
    _, left_gammas = _path(left_levels, rho)
    _, right_gammas = _path(right_levels, delta)
    word = AltWord(
        (*left_gammas, *w.alpha, *right_gammas[::-1]),
        "t" * len(left_gammas) + w.theta + "T" * len(right_gammas),
    )
    return make_britton_pnf(word, params)


def hill_pnf(u: AltWord, params: GroupParams) -> BrittonPnf:
    """Peak normal form of a hill (t-sequence t^k T^m), in linear time."""
    dec = decompose(u, params)
    if dec.core.theta:
        raise NotAHill(f"core {dec.core} is not horocyclic")
    return _wrap_flanks(dec, _integer_core, params)
