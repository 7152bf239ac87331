"""The value-copying flank peel, kept as a test reference for ``pnf._wrap_flanks``.

Both flanks are peeled innermost first.  Every candidate is a value
(norm, pre-peak key, reversed post-peak key, word) that copies the whole
word and both keys, and the right flank is peeled again for every left
carry rho.  It is quadratic in flank length, but it minimises the peak
order directly over whole words, so it checks the rank DP's join.
"""

from __future__ import annotations

from typing import NamedTuple

from bsgeo import AltWord, make_britton_pnf
from bsgeo.horocyclic import int_norm, r_llnf, residues_mod
from bsgeo.words import peak_key, sym_key


class _Val(NamedTuple):
    norm: int
    u1key: tuple
    u2key: tuple
    word: AltWord


def _order_key(v: _Val) -> tuple:
    return (v.norm, len(v.u1key), v.u1key, len(v.u2key), v.u2key)


def _val_from_pnf(b) -> _Val:
    return _Val(b.norm, *peak_key(b.word), b.word)


_T_KEY = sym_key("t")


def _prepend(v: _Val, gamma: int, params) -> _Val:
    word = AltWord((gamma,) + v.word.alpha, "t" + v.word.theta)
    return _Val(
        int_norm(gamma, params) + 1 + v.norm,
        (sym_key(gamma), _T_KEY) + v.u1key,
        v.u2key,
        word,
    )


def _append(v: _Val, gamma: int, params) -> _Val:
    word = AltWord(v.word.alpha + (gamma,), v.word.theta + "T")
    return _Val(
        v.norm + 1 + int_norm(gamma, params),
        v.u1key,
        (sym_key(-gamma), _T_KEY) + v.u2key,
        word,
    )


def _carry_innermost_first(flank, params) -> tuple[list[int], int]:
    out = []
    carry = 0
    for a in flank:
        mu, rem = divmod(a + carry, params.q)
        out.append(rem)
        carry = mu * params.p
    return out[::-1], carry


def reference_wrap_flanks(dec, core_solver, params):
    """The Britton peak normal form of ``dec.reassemble()``, by the old peel."""
    left, rho_carry = _carry_innermost_first(dec.alphas, params)
    right, delta_carry = _carry_innermost_first(dec.betas[::-1], params)
    core_alpha = list(dec.core.alpha)
    core_alpha[0] += rho_carry
    core_alpha[-1] += delta_carry
    core = AltWord(tuple(core_alpha), dec.core.theta)
    p, q = params.p, params.q
    r = r_llnf(params)

    def core_val(rho: int, delta: int) -> _Val:
        ca = list(core.alpha)
        ca[0] += rho
        ca[-1] += delta
        return _val_from_pnf(make_britton_pnf(core_solver(AltWord(tuple(ca), core.theta)), params))

    def moves(flank, i, x):
        cons = flank[i - 2] if i >= 2 else 0
        out = []
        for gamma in residues_mod(x, q):
            nxt = (x - gamma) // q * p + cons
            if abs(nxt) > r:
                raise AssertionError("flank peel escaped the table radius")
            out.append((gamma, nxt))
        return out

    def reachable(flank):
        sets = [set() for _ in flank] + [{flank[-1] if flank else 0}]
        for i in range(len(flank), 0, -1):
            for x in sets[i]:
                sets[i - 1].update(nxt for _, nxt in moves(flank, i, x))
        return sets

    def peel(level, flank, sets, join):
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
