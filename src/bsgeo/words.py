"""Words over {t, T, a, A} and their alternating integer form.

The Baumslag-Solitar group BS(p, q) = <a, t | t a^p t^-1 = a^q> is generated
by a and t; we write A = a^-1 and T = t^-1, so group words are strings over
the four letters t, T, a, A.  Runs of a/A are handled as arbitrary-precision
integers: every word corresponds to an alternating sequence

    u = alpha_0 theta_1 alpha_1 ... theta_k alpha_k

with alpha_i in Z and theta_i in {t, T} (AltWord).  This module holds the two
representations, parsing and printing of the compact text notation
(e.g. "7t14T-2tt9T2T23"), the involution w -> w^-1, lengths, height profiles,
sink/peak statistics, and the two orders used throughout:

  * cmp_ll     length-lexicographic order on letter words, t < T < a < A
  * cmp_delta  length-lexicographic order on symbol sequences over
               Z union {t, T}, where t < T < every integer, integers are
               ordered by absolute value, and among +n/-n the non-negative
               one comes first

All values are immutable and all functions are pure, so everything here is
safe to use from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExpansionLimit, LimitExceeded, ParseError

LETTERS = "tTaA"

# letter ranks for the length-lexicographic order t < T < a < A
_LL_RANK = str.maketrans("tTaA", "0123")

_INVOLUTE_LETTER = str.maketrans("tTaA", "TtAa")


@dataclass(frozen=True)
class GroupParams:
    """The pair (p, q) with 1 <= p < q fixing the group BS(p, q)."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if not (1 <= self.p < self.q):
            raise ValueError(f"require 1 <= p < q, got p={self.p}, q={self.q}")

    @property
    def divides(self) -> bool:
        """True iff p divides q (the fully solved case)."""
        return self.q % self.p == 0


@dataclass(frozen=True)
class AltWord:
    """Alternating form alpha_0 theta_1 alpha_1 ... theta_k alpha_k.

    ``alpha`` has exactly one more entry than ``theta``; coefficients may be
    zero.  By construction there are no aA/Aa factors.  Hashable, hence
    directly usable as a dictionary key.
    """

    alpha: tuple[int, ...] = (0,)
    theta: str = ""

    def __post_init__(self) -> None:
        if len(self.alpha) != len(self.theta) + 1:
            raise ValueError("alpha must have len(theta) + 1 entries")
        if self.theta.strip("tT"):
            raise ValueError("theta may only contain t and T")

    @property
    def k(self) -> int:
        """Number of t/T letters."""
        return len(self.theta)

    def symbols(self) -> list:
        """Interleaved symbol sequence [alpha_0, theta_1, alpha_1, ...]."""
        out: list = [self.alpha[0]]
        for i, th in enumerate(self.theta):
            out.append(th)
            out.append(self.alpha[i + 1])
        return out

    def __str__(self) -> str:
        return render_word(self)


def alt_from_int(n: int) -> AltWord:
    """The horocyclic word a^n as an AltWord."""
    return AltWord((n,))


def alt_from_symbols(symbols: list) -> AltWord:
    """Inverse of :meth:`AltWord.symbols`."""
    return AltWord(tuple(symbols[0::2]), "".join(symbols[1::2]))


def to_alt(w: str) -> AltWord:
    """Convert a letter word to its alternating form, summing a/A runs.

    >>> to_alt("aaAt").alpha
    (1, 0)
    """
    alpha = [0]
    theta: list[str] = []
    for c in w:
        if c == "a":
            alpha[-1] += 1
        elif c == "A":
            alpha[-1] -= 1
        elif c in "tT":
            theta.append(c)
            alpha.append(0)
        else:
            raise ValueError(f"invalid letter {c!r}")
    return AltWord(tuple(alpha), "".join(theta))


def to_raw(u: AltWord, max_len: int) -> str:
    """Expand an alternating word into plain letters.

    Raises ExpansionLimit if the output would exceed ``max_len`` letters;
    coefficients can grow exponentially under Britton reduction, so callers
    must bound the expansion.
    """
    n = word_length(u)
    if n > max_len:
        raise ExpansionLimit(f"expansion to {n} letters exceeds limit {max_len}")
    return _letters(u)


def _letters(u: AltWord) -> str:
    return _run(u.alpha[0]) + "".join(th + _run(a) for th, a in zip(u.theta, u.alpha[1:]))


def _run(n: int) -> str:
    return "a" * n if n >= 0 else "A" * (-n)


def alt_concat(u: AltWord, v: AltWord) -> AltWord:
    """Concatenation in Z * {t,T}*, merging the boundary coefficients."""
    return AltWord(
        u.alpha[:-1] + (u.alpha[-1] + v.alpha[0],) + v.alpha[1:],
        u.theta + v.theta,
    )


def involute(u: AltWord) -> AltWord:
    """The formal inverse: reverse, negate integers, swap t and T.

    >>> involute(AltWord((1, 2), "t")).alpha
    (-2, -1)
    """
    return AltWord(
        tuple(-a for a in reversed(u.alpha)),
        u.theta[::-1].translate(_INVOLUTE_LETTER),
    )


def involute_symbols(syms) -> list:
    """Formal inverse of a symbol sequence over Z union {t, T}."""
    return [
        -s if isinstance(s, int) else s.translate(_INVOLUTE_LETTER)
        for s in reversed(syms)
    ]


def word_length(u: AltWord) -> int:
    """|u| = k + sum |alpha_i|."""
    return len(u.theta) + sum(abs(a) for a in u.alpha)


def height_profile(u: AltWord) -> tuple[int, ...]:
    """Heights h(0..k): h(0)=0, each t steps +1, each T steps -1."""
    h = 0
    out = [0]
    for th in u.theta:
        h += 1 if th == "t" else -1
        out.append(h)
    return tuple(out)


def _is_valley(u: AltWord) -> bool:
    """The height profile stays at or below 0 and ends at 0."""
    prof = height_profile(u)
    return max(prof) == 0 and prof[-1] == 0


def height(u: AltWord) -> int:
    """max_i h(i)."""
    return max(height_profile(u))


def peak_position(u: AltWord) -> int:
    """The rightmost position attaining the maximal height."""
    prof = height_profile(u)
    top = max(prof)
    return len(prof) - 1 - prof[::-1].index(top)


def sink_count(u: AltWord) -> int:
    """Number of positions i with theta_i != t and theta_{i+1} != T.

    Boundary letters are treated as absent, so position 0 counts when
    theta_1 != T and position k counts when theta_k != t; a single integer
    has exactly one sink.
    """
    k = len(u.theta)
    n = 0
    for i in range(k + 1):
        if (i == 0 or u.theta[i - 1] != "t") and (i == k or u.theta[i] != "T"):
            n += 1
    return n


def peak_count(u: AltWord) -> int:
    """Dual of sink_count: positions with theta_i != T and theta_{i+1} != t.

    These are the sinks of u with every t and T swapped.
    """
    return sink_count(AltWord(u.alpha, u.theta.translate(_INVOLUTE_LETTER)))


# ---------------------------------------------------------------------------
# text notation
# ---------------------------------------------------------------------------

# t^n adds n letters to the t-sequence, so a word with more t and T letters
# than this is refused (LimitExceeded) before any of them is allocated
MAX_T_LETTERS = 10**7


def parse_alt(text: str) -> AltWord:
    """Parse the compact notation straight into an alternating word.

    Tokens: the letters t, T, a, A; a letter followed by ^n with n >= 1;
    or a signed integer n standing for a^n (A^-n when n < 0, nothing when
    n == 0).  Whitespace between tokens is ignored.  a/A tokens and integers
    add to the current coefficient, which is never spelled out in letters;
    t^n and T^n still add n letters to the t-sequence, at most
    ``MAX_T_LETTERS`` in all.

    >>> parse_alt("t^2 5T-2 a^3")
    AltWord(alpha=(0, 0, 5, 1), theta='ttT')
    """
    alpha, theta, letters = [0], [], 0
    i, n = 0, len(text)
    try:
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
            elif c in LETTERS:
                e, i = 1, i + 1
                if i < n and text[i] == "^":
                    j = start = i + 1
                    while j < n and text[j].isdecimal():
                        j += 1
                    if start == j:
                        raise ParseError("expected a positive exponent after '^'", start)
                    # checked on the digits, so a huge n is never converted
                    digits = text[start:j].lstrip("0")
                    if c in "tT" and len(digits) > len(str(MAX_T_LETTERS)):
                        raise LimitExceeded(f"a t-run of more than {MAX_T_LETTERS} letters")
                    e, i = int(text[start:j]), j
                    if e <= 0:
                        raise ParseError("exponent must be positive", start)
                if c in "tT":
                    letters += e
                    if letters > MAX_T_LETTERS:
                        raise LimitExceeded(f"more than {MAX_T_LETTERS} t and T letters")
                    theta.append(c * e)
                    alpha.extend([0] * e)
                else:
                    alpha[-1] += e if c == "a" else -e
            elif c == "-" or c.isdecimal():
                j = start = i + 1 if c == "-" else i
                while j < n and text[j].isdecimal():
                    j += 1
                if start == j:
                    raise ParseError("expected digits after '-'", i)
                alpha[-1] += int(text[i:j])
                i = j
            else:
                raise ParseError(f"unexpected character {c!r}", i)
    except ValueError:  # int() beyond the interpreter's int/str digit limit
        raise ParseError("too many digits to convert to an integer", i) from None
    return AltWord(tuple(alpha), "".join(theta))


def parse_word(text: str) -> str:
    """Parse the compact notation (see ``parse_alt``) into a letter word.

    >>> parse_word("t^3 5T2T1T1")
    'tttaaaaaTaaTaTa'
    """
    return _letters(parse_alt(text))


def render_word(u: AltWord) -> str:
    """Render an alternating word in the compact notation.

    Nonzero coefficients print as signed integers, zero coefficients print
    as nothing, and runs of four or more equal letters fold to letter^n.
    ``parse_alt`` inverts this rendering.
    """
    tokens: list[str] = []
    if u.alpha[0]:
        tokens.append(str(u.alpha[0]))
    k = len(u.theta)
    i = 1
    while i <= k:
        c = u.theta[i - 1]
        j = i
        while j < k and u.theta[j] == c and u.alpha[j] == 0:
            j += 1
        run = j - i + 1
        tokens.append(f"{c}^{run}" if run >= 4 else c * run)
        if u.alpha[j]:
            tokens.append(str(u.alpha[j]))
        i = j + 1
    out: list[str] = []
    for tok in tokens:
        if out and out[-1][-1].isdigit() and (tok[0].isdigit() or tok[0] == "-"):
            out.append(" ")
        out.append(tok)
    return "".join(out)


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

def ll_key(w: str) -> tuple[int, str]:
    """Sort key realising the length-lexicographic order with t < T < a < A."""
    return (len(w), w.translate(_LL_RANK))


def cmp_ll(u: str, v: str) -> int:
    """-1, 0, or +1 as u comes before, equals, or comes after v."""
    ku, kv = ll_key(u), ll_key(v)
    return -1 if ku < kv else (0 if ku == kv else 1)


def sym_key(s) -> int:
    """Order key for a single symbol of Z union {t, T}.

    t < T < alpha for every integer alpha; integers compare by absolute
    value, and among n and -n the non-negative one is smaller.  The key is
    0 for t, 1 for T and 2 + 2|a| + (a < 0) for an integer a.
    """
    if s == "t":
        return 0
    if s == "T":
        return 1
    return 2 + 2 * abs(s) + (s < 0)


def peak_key(u: AltWord) -> tuple[tuple, tuple]:
    """Peak-order key: symbol keys before the peak, then involuted ones after it.

    Words with one t-sequence share their peak, so comparing these keys
    compares pre-peak parts and then reversed post-peak parts symbol-wise.
    """
    i = peak_position(u)
    syms = u.symbols()
    return (
        tuple(sym_key(s) for s in syms[: 2 * i]),
        tuple(sym_key(s) for s in involute_symbols(syms[2 * i + 1 :])),
    )


def delta_key(x) -> tuple:
    """Sort key for the order cmp_delta (symbol count first, then symbols)."""
    syms = x.symbols() if isinstance(x, AltWord) else list(x)
    return (len(syms), tuple(sym_key(s) for s in syms))


def cmp_delta(u, v) -> int:
    """Length-lexicographic comparison of symbol sequences over Z u {t,T}.

    Length is the number of symbols (an integer counts as one symbol); ties
    are broken symbol-wise by :func:`sym_key`.  A proper prefix is shorter
    and therefore smaller.  Accepts AltWords or raw symbol sequences.
    """
    ku, kv = delta_key(u), delta_key(v)
    return -1 if ku < kv else (0 if ku == kv else 1)
