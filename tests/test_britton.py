"""Britton reduction, t-sequences, classification, and decomposition."""

from __future__ import annotations

import random

from conftest import P12, P13, P23, P24, P35, iter_words, random_alt
from reference_britton import reference_pinch_pass

from bsgeo import (
    AltWord,
    britton_reduce,
    classify,
    decompose,
    equal,
    is_britton_reduced,
    norm,
    parse_word,
    peak_count,
    sink_count,
    t_sequence,
    to_alt,
    to_raw,
)
from bsgeo import stats
from bsgeo.britton import _pinch_pass

APPENDIX = to_alt(parse_word("7t14T-2tt9T2T23"))

# identity-valued snippets for relation-insertion tests:
# t a^p T A^q and a^q t A^p T spell out the defining relation
def _identity_snippets(params):
    p, q = params.p, params.q
    return [
        "tT",
        "Tt",
        "aA",
        "Aa",
        "t" + "a" * p + "T" + "A" * q,
        "a" * q + "t" + "A" * p + "T",
    ]


class TestReduce:
    def test_appendix(self):
        assert britton_reduce(APPENDIX, P13) == AltWord((157,))

    def test_relation(self):
        assert britton_reduce(AltWord((0, 1, 0), "tT"), P13) == AltWord((3,))

    def test_no_redex(self):
        u = AltWord((1, 1, 1), "Tt")
        assert britton_reduce(u, P24) == u

    def test_nested(self):
        u = to_alt("t" * 3 + "a" + "T" * 3)
        assert britton_reduce(u, P12) == AltWord((8,))

    def test_is_reduced(self):
        assert is_britton_reduced(AltWord((157,)), P24)
        assert not is_britton_reduced(AltWord((0, 2, 0), "tT"), P24)
        assert is_britton_reduced(AltWord((5, 2, 0), "Tt"), P13)

    def test_reduction_is_fixed_point(self, rng):
        for _ in range(300):
            u = random_alt(rng)
            for params in (P13, P24):
                red = britton_reduce(u, params)
                assert is_britton_reduced(red, params)
                assert britton_reduce(red, params) == red
                assert equal(u, red, params)

    def test_norm_and_sinks_never_increase(self, rng):
        for _ in range(300):
            u = random_alt(rng)
            for params in (P13, P24):
                red = britton_reduce(u, params)
                assert norm(red, params) <= norm(u, params)
                assert sink_count(red) <= sink_count(u)
                assert peak_count(red) <= peak_count(u)


class TestTSequence:
    def test_examples(self):
        assert t_sequence(APPENDIX, P13) == ""
        assert t_sequence(AltWord((1, 1, 1), "Tt"), P24) == "Tt"
        assert t_sequence(AltWord((0, 1, 0), "tT"), P13) == ""

    def test_invariance_under_relation_insertions(self, rng):
        for _ in range(200):
            u = random_alt(rng, max_k=4, max_coeff=6)
            for params in (P13, P24):
                w = to_raw(u, 10**4)
                for _ in range(3):
                    pos = rng.randint(0, len(w))
                    w = w[:pos] + rng.choice(_identity_snippets(params)) + w[pos:]
                v = to_alt(w)
                assert equal(u, v, params)
                assert t_sequence(u, params) == t_sequence(v, params)


class TestClassify:
    def test_examples(self):
        assert classify(AltWord((157,)), P13).label == "horocyclic"
        assert classify(AltWord((1, 1, 1), "tT"), P24).label == "hill"
        c = classify(AltWord((1, 1, 1), "Tt"), P24)
        assert c.label == "difficult"
        assert c.valley and c.difficult and not c.hill
        assert c.describe() == "difficult (valley)"

    def test_horocyclic_implies_hill_and_valley(self):
        c = classify(AltWord((5,)), P13)
        assert c.horocyclic and c.hill and c.valley
        assert c.describe() == "horocyclic"

    def test_general(self):
        c = classify(AltWord((0, 1, 1, 0), "tTt"), P24)
        assert c.label == "general"
        assert not (c.hill or c.valley or c.difficult)

    def test_non_valley_difficult(self):
        # ends above start: difficult but not a valley
        c = classify(AltWord((0, 1, 0, 0), "Ttt"), P13)
        assert c.label == "difficult"
        assert not c.valley


class TestDecompose:
    def test_hill_split(self):
        d = decompose(AltWord((1, 1, 1), "tT"), P24)
        assert d.alphas == (1,)
        assert d.core == AltWord((1,))
        assert d.betas == (1,)

    def test_horocyclic(self):
        d = decompose(AltWord((157,)), P13)
        assert d.alphas == () and d.betas == ()
        assert d.core == AltWord((157,))

    def test_difficult_core_is_whole_word(self):
        u = AltWord((1, 1, 1), "Tt")
        d = decompose(u, P24)
        assert d.alphas == () and d.betas == ()
        assert d.core == u

    def test_reassembly_matches_reduction(self, rng):
        for _ in range(300):
            u = random_alt(rng)
            for params in (P13, P24, P23):
                d = decompose(u, params)
                assert d.reassemble() == britton_reduce(u, params)
                core = d.core
                assert core.theta == "" or (
                    core.theta[0] == "T" and core.theta[-1] == "t"
                )


def test_empty_word():
    assert britton_reduce(AltWord((0,)), P13) == AltWord((0,))
    d = decompose(AltWord((0,)), P13)
    assert d.core == AltWord((0,))


def _has_pinch_factor(u, params):
    """Direct scan for a factor t a^(mu p) T or T a^(mu q) t."""
    for i in range(1, len(u.theta)):
        pair, c = u.theta[i - 1 : i + 1], u.alpha[i]
        if (pair == "tT" and c % params.p == 0) or (pair == "Tt" and c % params.q == 0):
            return True
    return False


def _pinchable_alt(rng, params, max_k=8, max_coeff=10**6):
    """A random AltWord whose coefficients are often multiples of p or q."""
    k = rng.randint(0, max_k)
    alpha = []
    for _ in range(k + 1):
        c = rng.randint(-max_coeff, max_coeff)
        r = rng.random()
        if r < 0.3:
            c -= c % params.p
        elif r < 0.6:
            c -= c % params.q
        alpha.append(c)
    return AltWord(tuple(alpha), "".join(rng.choice("tT") for _ in range(k)))


class TestIsBrittonReducedScan:
    def test_every_short_letter_word(self):
        for params in (P24, P35):
            for w in iter_words(6):
                u = to_alt(w)
                assert is_britton_reduced(u, params) == (not _has_pinch_factor(u, params))

    def test_random_large_coefficients(self):
        rng = random.Random(1301)
        for params in (P24, P35):
            seen = set()
            for _ in range(2000):
                u = _pinchable_alt(rng, params)
                reduced = not _has_pinch_factor(u, params)
                seen.add(reduced)
                assert is_britton_reduced(u, params) == reduced
            assert seen == {True, False}


def _runs_alt(rng, params, max_runs=8, max_run=40):
    """A random word made of runs of equal letters, with cascading pinches.

    Each piece is a run t^k or T^k with zero coefficients inside, or a
    cascade t^k a^(c p^k) T^k (or T^k a^(c q^k) t^k) that pinches k times.
    """
    p, q = params.p, params.q
    syms: list = [rng.randint(-9, 9)]
    for _ in range(rng.randint(0, max_runs)):
        k = rng.randint(1, max_run)
        if rng.random() < 0.4:
            up = rng.random() < 0.5
            inner = rng.randint(-3, 3) * (p if up else q) ** rng.randint(0, k)
            if rng.random() < 0.3:
                inner += 1  # stops the cascade somewhere inside
            first, second = ("t", "T") if up else ("T", "t")
            body = [first, 0] * (k - 1) + [first, inner] + [second, 0] * k
        else:
            body = [rng.choice("tT"), rng.choice((0, 0, 0, rng.randint(-9, 9)))] * k
        syms[-1] += rng.randint(-2, 2) * rng.choice((1, p, q))
        syms += body
    return AltWord(tuple(syms[0::2]), "".join(syms[1::2]))


class TestPinchPassByRuns:
    # the run-at-a-time pass against the letter-at-a-time reference: same
    # stack contents and the same op ticks
    def _check(self, u, params):
        stats.ops.reset()
        got = _pinch_pass(u, params)
        got_ops = stats.ops.reset()
        want = reference_pinch_pass(u, params)
        assert (got, got_ops) == (want, stats.ops.reset()), u

    def test_every_short_letter_word(self):
        for params in (P13, P24, P35):
            for w in iter_words(6):
                self._check(to_alt(w), params)

    def test_long_runs_and_cascades(self):
        rng = random.Random(2207)
        for params in (P12, P13, P23, P24, P35):
            for _ in range(300):
                self._check(_runs_alt(rng, params), params)

    def test_full_cascade(self):
        # t^k a^(p^k) T^k collapses to a^(q^k) with k pinches
        for params in (P23, P35):
            k = 30
            u = AltWord((0,) * k + (params.p**k,) + (0,) * k, "t" * k + "T" * k)
            self._check(u, params)
            assert britton_reduce(u, params) == AltWord((params.q**k,))

    def test_decompose_on_runs(self):
        rng = random.Random(2208)
        for params in (P13, P23, P24):
            for _ in range(200):
                u = _runs_alt(rng, params)
                alphas, thetas = reference_pinch_pass(u, params)
                theta = "".join(thetas)
                i = len(theta) - len(theta.lstrip("t"))
                j = len(theta) - len(theta.rstrip("T")) if theta.strip("T") else len(theta) - i
                d = decompose(u, params)
                assert (len(d.alphas), len(d.betas)) == (i, j), u
                assert d.reassemble() == AltWord(tuple(alphas), theta)
