"""Brute-force ground truth via breadth-first enumeration of the Cayley ball.

``ball`` enumerates every word over {t, T, a, A} up to a radius in
length-lexicographic order and keys the elements by their canonical
(irreducible) forms.  The first word reaching an element is therefore its
length-lexicographic normal form and its length the geodesic length.  The
module deliberately depends only on the word and rewriting primitives, not
on any of the normal-form algorithms it is used to validate.

``oracle_britton_pnf`` realises the peak-normal-form definition by bounded
enumeration: all Britton-reduced words equal to the input share one
t-sequence, and a coefficient tuple is equivalent to the input iff the
left-to-right carry pass reproduces the canonical coefficients.  A
depth-first search with an exact norm target (norms of small integers are
looked up in the ball, iterative deepening finds the minimum) lists all
minimal-norm representatives, and the winner under the peak order (symbol
order of the pre-peak part, then of the reversed post-peak part) is
returned.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .britton import britton_reduce, is_britton_reduced
from .canonical import canonical_form
from .errors import InternalError, LimitExceeded, OutOfBall
from .words import (
    LETTERS,
    AltWord,
    GroupParams,
    alt_from_int,
    parse_alt,
    peak_key,
    render_word,
    to_alt,
)

__all__ = [
    "BallIndex",
    "ball",
    "oracle_geolen",
    "oracle_llnf",
    "oracle_britton_pnf",
    "save_ball",
    "load_ball",
]

# the most words ``all_words`` yields before raising LimitExceeded: radius 10
# (1.4M words, seconds) passes, radius 11 (5.6M words) and beyond are refused
MAX_CANDIDATES = 2 * 10**6


def all_words(length: int, what: str):
    """Every word of at most ``length`` letters, in length-lexicographic order.

    Raises LimitExceeded at once if they number more than MAX_CANDIDATES.
    The count grows level by level and stops at the first level past the
    limit, so a huge ``length`` is refused with no power of it taken.
    """
    count = level = 1
    for n in range(1, length + 1):
        level *= 4
        count += level
        if count > MAX_CANDIDATES:
            raise LimitExceeded(
                f"{what} {length} exceeds {n - 1}, the most that {MAX_CANDIDATES} words admit"
            )
    return ("".join(w) for n in range(length + 1) for w in itertools.product(LETTERS, repeat=n))


class BallIndex:
    """All elements within ``radius``: canonical form -> (length, llnf word)."""

    __slots__ = ("params", "radius", "table")

    def __init__(
        self, params: GroupParams, radius: int, table: dict[AltWord, tuple[int, str]]
    ) -> None:
        self.params = params
        self.radius = radius
        self.table = table

    def lookup(self, w: AltWord) -> tuple[int, str]:
        key = canonical_form(w, self.params)
        try:
            return self.table[key]
        except KeyError:
            raise OutOfBall(
                f"element of {render_word(w)!r} exceeds ball radius {self.radius}"
            ) from None


@lru_cache(maxsize=32)
def ball(params: GroupParams, radius: int) -> BallIndex:
    """Enumerate all words up to ``radius`` in length-lexicographic order."""
    table: dict[AltWord, tuple[int, str]] = {}
    for word in all_words(radius, "ball radius"):
        key = canonical_form(to_alt(word), params)
        if key not in table:
            table[key] = (len(word), word)
    return BallIndex(params, radius, table)


def oracle_geolen(w: AltWord, index: BallIndex) -> int:
    """Geodesic length by lookup; raises OutOfBall if out of range."""
    return index.lookup(w)[0]


def oracle_llnf(w: AltWord, index: BallIndex) -> str:
    """The length-lexicographically first word equal to w, by lookup."""
    return index.lookup(w)[1]


def save_ball(index: BallIndex, path: str) -> None:
    """Write 'canonical<TAB>length<TAB>llnf' lines, one element per line."""
    with open(path, "w", encoding="ascii") as fh:
        for key in sorted(index.table, key=lambda k: index.table[k]):
            n, word = index.table[key]
            fh.write(f"{render_word(key)}\t{n}\t{word}\n")


def load_ball(path: str, params: GroupParams, radius: int) -> BallIndex:
    """Read a ball file written by :func:`save_ball`."""
    table: dict[AltWord, tuple[int, str]] = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            key_text, n, word = line.split("\t")
            table[parse_alt(key_text)] = (int(n), word)
    return BallIndex(params, radius, table)


# ---------------------------------------------------------------------------
# peak normal forms by bounded enumeration
# ---------------------------------------------------------------------------

def oracle_britton_pnf(
    w: AltWord,
    params: GroupParams,
    k_max: int,
    coeff_max: int,
    index: BallIndex | None = None,
) -> AltWord:
    """The Britton peak normal form of w by exhaustive enumeration.

    Searches all Britton-reduced coefficient tuples over the invariant
    t-sequence with |alpha_i| <= coeff_max, finds the minimal norm by
    iterative deepening (coefficient norms come from a ball of radius
    coeff_max), and among the minimal-norm representatives returns the one
    with the least pre-peak part and then the least reversed post-peak
    part.  Raises LimitExceeded when the t-sequence is longer than k_max
    or a required norm is outside the ball.
    """
    p, q = params.p, params.q
    red = britton_reduce(w, params)
    k = len(red.theta)
    if k > k_max:
        raise LimitExceeded(f"t-sequence of length {k} exceeds k_max={k_max}")
    if index is None:
        index = ball(params, coeff_max)
    tgt = canonical_form(w, params).alpha
    theta = red.theta

    norms = {
        a: oracle_geolen(alt_from_int(a), index)
        for a in range(-coeff_max, coeff_max + 1)
    }

    def candidates_with_norm(total: int) -> list[tuple[int, ...]]:
        found: list[tuple[int, ...]] = []
        prefix: list[int] = []

        def dfs(pos: int, carry: int, used: int) -> None:
            remaining = k - pos  # letters still to pay for
            if used + remaining > total:
                return
            if pos == k:
                a = tgt[k] - carry
                if abs(a) <= coeff_max and used + norms[a] == total:
                    found.append((*prefix, a))
                return
            th = theta[pos]
            mod = q if th == "t" else p
            want = (tgt[pos] - carry) % mod
            a = -coeff_max + (want - (-coeff_max)) % mod
            while a <= coeff_max:
                ok = True
                if pos:
                    pair = theta[pos - 1] + th
                    if pair == "tT" and a % p == 0:
                        ok = False
                    elif pair == "Tt" and a % q == 0:
                        ok = False
                if ok:
                    mu = (a + carry - tgt[pos]) // mod
                    nxt_carry = mu * (p if th == "t" else q)
                    prefix.append(a)
                    dfs(pos + 1, nxt_carry, used + norms[a] + 1)
                    prefix.pop()
                a += mod
            return

        dfs(0, 0, 0)
        return found

    for a in red.alpha:
        if a not in norms:
            raise LimitExceeded(f"coefficient {a} outside the enumeration bound")
    upper = k + sum(norms[a] for a in red.alpha)
    total = k
    while total <= upper:
        tuples = candidates_with_norm(total)
        if tuples:
            break
        total += 1
    else:
        raise LimitExceeded("no representative found within the bounds")

    best = min(tuples, key=lambda coeffs: peak_key(AltWord(coeffs, theta)))
    word = AltWord(best, theta)
    if not is_britton_reduced(word, params):
        raise InternalError("enumerated pnf is not Britton-reduced")
    return word
