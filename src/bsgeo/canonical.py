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
coefficients: the irreducible words are exactly the Britton-reduced words
whose coefficient before each t lies in [0, q) and before each T in
[0, p) (Lyndon-Schupp IV.2).  So it is the Britton pass of
``britton._pinch_pass`` plus one left-to-right carry pass, which moves
mu p across a^(mu q + beta) t and mu q across a^(mu p + beta) T.  The carry
cancels nothing: the carry into t c T is a multiple of p and that into
T c t a multiple of q, so c keeps the nonzero residue that left the pair
unpinched.
"""

from __future__ import annotations

from .britton import _pinch_pass
from .words import AltWord, GroupParams


def canonical_form(u: AltWord, params: GroupParams) -> AltWord:
    """The unique irreducible form of u under the rewriting system.

    Two alternating words denote the same element of BS(p, q) iff their
    canonical forms are identical.
    """
    p, q = params.p, params.q
    alphas, thetas = _pinch_pass(u, params)
    for i, th in enumerate(thetas):
        if th == "t":
            mu, alphas[i] = divmod(alphas[i], q)
            alphas[i + 1] += mu * p
        else:
            mu, alphas[i] = divmod(alphas[i], p)
            alphas[i + 1] += mu * q
    return AltWord(tuple(alphas), "".join(thetas))


def equal(u: AltWord, v: AltWord, params: GroupParams) -> bool:
    """Equality in BS(p, q), decided via canonical forms."""
    return canonical_form(u, params) == canonical_form(v, params)
