"""The letter-at-a-time Britton pass, kept as a test reference for ``britton._pinch_pass``.

Production pushes the rest of a run of equal letters in one slice; this
pass pushes and tests every letter on its own, ticking ``stats.ops`` once
per letter.
"""

from __future__ import annotations

from bsgeo import stats


def reference_pinch_pass(u, params) -> tuple[list[int], list[str]]:
    """Coefficients and letters of the leftmost-innermost Britton reduction of u."""
    p, q = params.p, params.q
    alphas = [u.alpha[0]]
    thetas: list[str] = []
    for idx, th in enumerate(u.theta):
        stats.ops.tick()
        nxt = u.alpha[idx + 1]
        c = alphas[-1]
        if thetas and thetas[-1] == "t" and th == "T" and c % p == 0:
            thetas.pop()
            alphas.pop()
            alphas[-1] += (c // p) * q + nxt
        elif thetas and thetas[-1] == "T" and th == "t" and c % q == 0:
            thetas.pop()
            alphas.pop()
            alphas[-1] += (c // q) * p + nxt
        else:
            thetas.append(th)
            alphas.append(nxt)
    return alphas, thetas
