"""The confluent rewriting system for BS(p, q) and the word problem.

The group is presented by the terminating, confluent string rewriting
system over {t, T, a, A}

    aA -> 0        Aa -> 0
    tT -> 0        Tt -> 0
    a^q t -> t a^p     At -> a^(q-1) t A^p
    a^p T -> T a^q     AT -> a^(p-1) T A^q

(0 denotes the empty word).  Irreducible descendants are unique, so two
words are equal in BS(p, q) iff their irreducible forms coincide; these
forms are used as hash keys by the brute-force oracle.

``canonical_form`` runs on the alternating representation with binary
coefficients in a single left-to-right carry pass: the irreducible words
are exactly those whose coefficient before each t lies in [0, q), whose
coefficient before each T lies in [0, p), and which contain no adjacent
t T or T t pair.
"""

from __future__ import annotations

from . import stats
from .words import AltWord, GroupParams


def canonical_form(u: AltWord, params: GroupParams) -> AltWord:
    """The unique irreducible form of u under the rewriting system.

    Two alternating words denote the same element of BS(p, q) iff their
    canonical forms are identical.
    """
    p, q = params.p, params.q
    alphas = [u.alpha[0]]
    thetas: list[str] = []
    for idx, th in enumerate(u.theta):
        stats.ops.tick()
        nxt = u.alpha[idx + 1]
        c = alphas[-1]
        if th == "t":
            mu, beta = divmod(c, q)
            carry = mu * p
        else:
            mu, beta = divmod(c, p)
            carry = mu * q
        if beta == 0 and thetas and thetas[-1] != th:
            # adjacent inverse letters cancel; the carry joins the merged run
            thetas.pop()
            alphas.pop()
            alphas[-1] += carry + nxt
        else:
            alphas[-1] = beta
            thetas.append(th)
            alphas.append(carry + nxt)
    return AltWord(tuple(alphas), "".join(thetas))


def equal(u: AltWord, v: AltWord, params: GroupParams) -> bool:
    """Equality in BS(p, q), decided via canonical forms."""
    return canonical_form(u, params) == canonical_form(v, params)
