"""Reference builders for ``horocyclic.base_table``.

``full_level_base_table`` is the string-DP reference: it runs the whole-word
column step ``horocyclic._column_step`` for every level, with no early stop,
and keeps the ll-least word per row.  Production builds the table with the
integer rank DP instead.  ``reference_base_table`` is the staircase search.

Geodesics of integers that use the letter t at all can be written as
t^j a0 T a1 ... T aj, and the length-lexicographic minimum is of that
staircase shape (leading t's are the cheapest letters).  This search tries
every staircase candidate no longer than the unary spelling, with every
run length, seeded with the unary words.  Its cost grows exponentially
with r, so it only checks small pairs, but it does not assume the residue
restriction or the per-level minimum of the column DP.
"""

from __future__ import annotations

from bsgeo import GroupParams
from bsgeo.horocyclic import _column_step, r_llnf
from bsgeo.words import _run, ll_key


def full_level_base_table(params: GroupParams) -> dict[int, str]:
    """llnf(rho) for |rho| <= r_llnf(params) + 2q - 1 from all radius // 2 column levels."""
    bound = r_llnf(params) + 2 * params.q - 1
    rows = range(-bound, bound + 1)
    best = col = {rho: _run(rho) for rho in rows}
    for j in range(1, bound // 2 + 1):
        col = _column_step(col, 0, rows, params, bound)
        best = {rho: min(w, "t" * j + col[rho], key=ll_key) for rho, w in best.items()}
    return best


def reference_base_table(params: GroupParams) -> dict[int, str]:
    """llnf(rho) for |rho| <= r_llnf(params) + 2q - 1, by exhaustive search."""
    p, q = params.p, params.q
    bound = r_llnf(params) + 2 * q - 1
    best = {rho: _run(rho) for rho in range(-bound, bound + 1)}

    def consider(val: int, word: str) -> None:
        if -bound <= val <= bound and ll_key(word) < ll_key(best[val]):
            best[val] = word

    lmax = bound  # candidates longer than the unary spelling never win
    for j in range(1, lmax // 2 + 1):
        budget = lmax - 2 * j

        def dfs(level: int, val: int, left: int, parts: list[str]) -> None:
            if level == j:
                consider(val, "t" * j + "".join(parts))
                return
            if abs(val) - left > bound or val % p:
                return  # cannot come back into range / cannot descend
            carried = (val // p) * q
            for nxt in range(-left, left + 1):
                parts.append("T" + _run(nxt))
                dfs(level + 1, carried + nxt, left - abs(nxt), parts)
                parts.pop()

        for a0 in range(-budget, budget + 1):
            dfs(0, a0, budget - abs(a0), [_run(a0)])

    return dict(best)
