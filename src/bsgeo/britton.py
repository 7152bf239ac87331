"""Britton reduction, t-sequences, and structural classification.

A Britton reduction step replaces a factor t a^(mu p) T by a^(mu q), or
T a^(mu q) t by a^(mu p).  It never increases the norm, the number of local
peaks, or the number of sinks.  Reduced words are far from unique, but the
surviving t/T pattern (the t-sequence) depends only on the group element.

Every Britton-reduced word u splits uniquely as

    u = alpha_1 t ... alpha_k t  D  T beta_1 ... T beta_m

where the core D is either a single integer (u is then a hill) or starts
with T and ends with t (D is then "difficult").  ``decompose`` computes this
split; flanks are listed in word order, outermost coefficient first on the
left flank and last on the right flank.

One stack pass (``_pinch_pass``) does all pinching.  ``britton_reduce``
wraps its result, ``is_britton_reduced`` asks whether it pinched anything,
and ``canonical.canonical_form`` follows it with a carry pass.
"""

from __future__ import annotations

from collections import namedtuple

from . import stats
from .words import AltWord, GroupParams, _is_valley


_OTHER = {"t": "T", "T": "t"}


def _pinch_pass(u: AltWord, params: GroupParams) -> tuple[list[int], list[str]]:
    """Coefficients and letters of a Britton reduction of u, leftmost-innermost.

    Single left-to-right stack pass: whenever the letter about to be pushed
    forms a pinch t a^(mu p) T or T a^(mu q) t with the top of the stack, the
    pair is removed and the transported coefficient merged.  Coefficients are
    kept as integers, so each step costs one arithmetic operation.  Only a
    letter that differs from the stack top can pinch, so once a letter of a
    run of equal letters is pushed, the rest of the run is pushed in one
    slice.  ``stats.ops`` counts one op per letter of u.
    """
    p, q = params.p, params.q
    alpha, theta = u.alpha, u.theta
    alphas = [alpha[0]]
    thetas: list[str] = []
    stats.ops.tick(len(theta))
    i, k = 0, len(theta)
    while i < k:
        th = theta[i]
        if thetas and thetas[-1] != th:
            # t a^(mu p) T -> a^(mu q) and T a^(mu q) t -> a^(mu p)
            c, (m, n) = alphas[-1], (p, q) if th == "T" else (q, p)
            if c % m == 0:
                thetas.pop()
                alphas.pop()
                alphas[-1] += (c // m) * n + alpha[i + 1]
                i += 1
                continue
        j = theta.find(_OTHER[th], i + 1)
        if j < 0:
            j = k
        if j == i + 1:  # a run of one letter, the common case in short words
            thetas.append(th)
            alphas.append(alpha[j])
        else:
            thetas += theta[i:j]
            alphas += alpha[i + 1 : j + 1]
        i = j
    return alphas, thetas


def britton_reduce(u: AltWord, params: GroupParams) -> AltWord:
    """A Britton-reduced word equal to u, pinching leftmost-innermost."""
    alphas, thetas = _pinch_pass(u, params)
    return AltWord(tuple(alphas), "".join(thetas))


def is_britton_reduced(u: AltWord, params: GroupParams) -> bool:
    """True iff no factor t a^(mu p) T or T a^(mu q) t remains.

    Until the first pinch the stack top is the previous letter with its
    own coefficient, so the pass pinches nothing exactly when no adjacent
    pair of u is a pinch.
    """
    return len(_pinch_pass(u, params)[1]) == len(u.theta)


def t_sequence(u: AltWord, params: GroupParams) -> str:
    """The t/T pattern of the Britton reduction; an invariant of the element."""
    return britton_reduce(u, params).theta


class Classification(namedtuple("Classification", "horocyclic hill valley difficult")):
    """Structural predicates of a Britton-reduced word.

    The categories overlap (every horocyclic word is a hill and a valley;
    every non-trivial valley is difficult), so all flags are reported next
    to a single headline label.
    """

    __slots__ = ()

    @property
    def label(self) -> str:
        if self.horocyclic:
            return "horocyclic"
        if self.hill:
            return "hill"
        if self.difficult:
            return "difficult"
        if self.valley:
            return "valley"
        return "general"

    def describe(self) -> str:
        """Headline label plus the remaining non-implied flags in parens."""
        extras = []
        if not self.horocyclic:
            for name in ("hill", "valley", "difficult"):
                if getattr(self, name) and name != self.label:
                    extras.append(name)
        return self.label + (f" ({', '.join(extras)})" if extras else "")


def classify(u: AltWord, params: GroupParams) -> Classification:
    """Classify the Britton reduction of u."""
    w = britton_reduce(u, params)
    k = len(w.theta)
    horocyclic = k == 0
    hill = _is_hill_pattern(w.theta)
    valley = _is_valley(w)
    difficult = k > 0 and w.theta[0] == "T" and w.theta[-1] == "t"
    return Classification(horocyclic, hill, valley, difficult)


def _is_hill_pattern(theta: str) -> bool:
    # hills are exactly the words whose t-sequence matches t* T*
    first_T = theta.find("T")
    return first_T < 0 or "t" not in theta[first_T:]


class Decomposition(namedtuple("Decomposition", "alphas core betas")):
    """The unique split flanks-core-flanks of a Britton-reduced word.

    ``alphas`` are the coefficients in front of the leading t's in word
    order (outermost first); ``betas`` those behind the trailing T's in word
    order (outermost last).  Reassembling alphas, core, betas reproduces the
    reduced word exactly.
    """

    __slots__ = ()

    def reassemble(self) -> AltWord:
        alpha = self.alphas + self.core.alpha + self.betas
        theta = "t" * len(self.alphas) + self.core.theta + "T" * len(self.betas)
        return AltWord(alpha, theta)


def decompose(u: AltWord, params: GroupParams) -> Decomposition:
    """Split britton_reduce(u) into t-flank, core, and T-flank."""
    w = britton_reduce(u, params)
    k = len(w.theta)
    i = k - len(w.theta.lstrip("t"))
    j = k - i - len(w.theta[i:].rstrip("T"))
    core = AltWord(w.alpha[i : k + 1 - j], w.theta[i : k - j])
    return Decomposition(w.alpha[:i], core, w.alpha[k + 1 - j :])
