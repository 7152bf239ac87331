"""Letter-level rewriting, kept as a test reference for ``canonical.canonical_form``.

``bs_step`` applies the single letter rules of the rewriting system in
``bsgeo.canonical`` and exists only for small-scale confluence checks;
irreducible descendants can be exponentially longer than the input in
unary.  ``bs_normal_form`` is the judge of ``canonical_form`` that shares no
code with it.  ``equal_via_inverse`` decides equality by Britton-reducing
u * v^-1; it shares the pinch pass with ``equal`` (``canonical_form`` is that
pass plus a carry pass), so it cross-checks the carry pass and the
concatenation, not the pinching.
"""

from __future__ import annotations

from bsgeo import AltWord, GroupParams, LimitExceeded, alt_concat, britton_reduce, involute, to_alt
from bsgeo.canonical import canonical_form


def equal_via_inverse(u: AltWord, v: AltWord, params: GroupParams) -> bool:
    """Equality decided by Britton-reducing u * v^-1 to the empty word.

    Cross-checks ``equal`` along a route without the carry pass.
    """
    red = britton_reduce(alt_concat(u, involute(v)), params)
    return red.theta == "" and red.alpha == (0,)


# ---------------------------------------------------------------------------
# letter-level rules, for demonstration and confluence spot checks only
# ---------------------------------------------------------------------------

def _match_rule(w: str, i: int, params: GroupParams) -> tuple[int, str] | None:
    """If some rule's left side starts at position i, return (lhs_len, rhs)."""
    p, q = params.p, params.q
    c = w[i]
    nxt = w[i + 1] if i + 1 < len(w) else ""
    if c == "a" and nxt == "A":
        return (2, "")
    if c == "A" and nxt == "a":
        return (2, "")
    if c == "t" and nxt == "T":
        return (2, "")
    if c == "T" and nxt == "t":
        return (2, "")
    if c == "a" and w[i : i + q] == "a" * q and w[i + q : i + q + 1] == "t":
        return (q + 1, "t" + "a" * p)
    if c == "A" and nxt == "t":
        return (2, "a" * (q - 1) + "t" + "A" * p)
    if c == "a" and w[i : i + p] == "a" * p and w[i + p : i + p + 1] == "T":
        return (p + 1, "T" + "a" * q)
    if c == "A" and nxt == "T":
        return (2, "a" * (p - 1) + "T" + "A" * q)
    return None


def bs_step(w: str, params: GroupParams) -> str | None:
    """Apply the leftmost applicable rewriting rule once, if any.

    Returns the rewritten letter word, or None when w is irreducible.
    """
    for i in range(len(w)):
        m = _match_rule(w, i, params)
        if m is not None:
            n, rhs = m
            return w[:i] + rhs + w[i + n :]
    return None


def bs_matches(w: str, params: GroupParams) -> list[int]:
    """All positions where some rule applies (for randomised reductions)."""
    return [i for i in range(len(w)) if _match_rule(w, i, params) is not None]


def bs_step_at(w: str, i: int, params: GroupParams) -> str:
    """Apply the rule matching at position i (which must exist)."""
    m = _match_rule(w, i, params)
    if m is None:
        raise ValueError(f"no rule applies at position {i}")
    n, rhs = m
    return w[:i] + rhs + w[i + n :]


def bs_normal_form(w: str, params: GroupParams, max_steps: int = 100_000) -> str:
    """Iterate bs_step to the irreducible descendant (tiny inputs only)."""
    for _ in range(max_steps):
        nxt = bs_step(w, params)
        if nxt is None:
            return w
        w = nxt
    raise LimitExceeded(f"no normal form within {max_steps} steps")


def canonical_matches_letters(w: str, params: GroupParams) -> bool:
    """Check canonical_form against the letter-level normal form."""
    return canonical_form(to_alt(w), params) == to_alt(bs_normal_form(w, params))
