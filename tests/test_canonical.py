"""Rewriting system: irreducible forms, confluence, and the word problem."""

from __future__ import annotations

import random

from conftest import P12, P13, P23, P24, P35, P36, DIVIDING, random_alt

from bsgeo import (
    AltWord,
    alt_concat,
    britton_reduce,
    canonical_form,
    equal,
    parse_word,
    to_alt,
)
from reference_rewriting import (
    bs_matches,
    bs_normal_form,
    bs_step,
    bs_step_at,
    canonical_matches_letters,
    equal_via_inverse,
)

APPENDIX = to_alt(parse_word("7t14T-2tt9T2T23"))


class TestBsStep:
    def test_aq_t_rule(self):
        assert bs_step("aaat", P13) == "ta"

    def test_cancellation(self):
        assert bs_step("tT", P13) == ""

    def test_irreducible(self):
        assert bs_step("ta", P13) is None

    def test_negative_rules(self):
        assert bs_step("At", P13) == "aatA"  # a^(q-1) t A^p
        assert bs_step("AT", P24) == "aTAAAA"  # a^(p-1) T A^q


class TestCanonicalForm:
    def test_carry_before_t(self):
        assert canonical_form(AltWord((3, 0), "t"), P13) == AltWord((0, 1), "t")

    def test_cancel(self):
        assert canonical_form(AltWord((0, 0, 0), "tT"), P13) == AltWord((0,))

    def test_negative_carry(self):
        assert canonical_form(AltWord((-1, 0), "t"), P13) == AltWord((2, -1), "t")

    def test_idempotent_on_random(self, rng):
        for _ in range(200):
            u = random_alt(rng)
            for params in (P13, P24):
                c = canonical_form(u, params)
                assert canonical_form(c, params) == c

    def test_invariant_under_single_rules(self, rng):
        # applying any single letter rule does not change the canonical form
        for _ in range(200):
            w = "".join(rng.choice("tTaA") for _ in range(rng.randint(0, 8)))
            for params in (P13, P24):
                for i in bs_matches(w, params):
                    w2 = bs_step_at(w, i, params)
                    assert canonical_form(to_alt(w), params) == canonical_form(
                        to_alt(w2), params
                    )


class TestConfluence:
    def test_random_reduction_orders_agree(self, rng):
        # all maximal reduction sequences end in the same irreducible word
        for trial in range(1000):
            n = rng.randint(0, 8)
            w = "".join(rng.choice("tTaA") for _ in range(n))
            params = (P13, P24)[trial % 2]
            target = None
            for _ in range(3):
                cur = w
                while True:
                    ms = bs_matches(cur, params)
                    if not ms:
                        break
                    cur = bs_step_at(cur, rng.choice(ms), params)
                if target is None:
                    target = cur
                else:
                    assert cur == target

    def test_canonical_equals_letter_normal_form(self, rng):
        for _ in range(300):
            w = "".join(rng.choice("tTaA") for _ in range(rng.randint(0, 8)))
            for params in (P13, P24):
                assert canonical_matches_letters(w, params)


class TestEqual:
    def test_appendix_value(self):
        assert equal(APPENDIX, AltWord((157,)), P13)

    def test_trivial(self):
        assert equal(AltWord((0, 0, 0), "tT"), AltWord((0,)), P13)

    def test_defining_relation(self):
        assert equal(AltWord((0, 1, 0), "tT"), AltWord((3,)), P13)

    def test_congruence(self, rng):
        for _ in range(100):
            u = random_alt(rng, max_k=3)
            v = alt_concat(u, AltWord((0, 0, 0), "tT"))  # u * t t^-1
            w = random_alt(rng, max_k=3)
            assert equal(u, v, P24)
            assert equal(alt_concat(w, u), alt_concat(w, v), P24)

    def test_equal_via_inverse_concurs(self, rng):
        for _ in range(200):
            u, v = random_alt(rng, max_k=4), random_alt(rng, max_k=4)
            for params in DIVIDING[:3]:
                assert equal(u, v, params) == equal_via_inverse(u, v, params)


def test_bs_normal_form_examples():
    assert bs_normal_form("aaat", P13) == "ta"
    assert bs_normal_form("tT", P13) == ""


class TestCanonicalMatchesLettersWider:
    def test_more_pairs(self):
        rng = random.Random(1302)
        # dividing and non-dividing pairs beyond BS(1,3) and BS(2,4)
        for _ in range(300):
            w = "".join(rng.choice("tTaA") for _ in range(rng.randint(0, 8)))
            for params in (P12, P23, P35, P36):
                assert canonical_matches_letters(w, params)


class TestCanonicalKeepsBrittonPattern:
    def test_unreduced_random_words(self):
        rng = random.Random(1303)
        for _ in range(1000):
            u = random_alt(rng, max_k=10, max_coeff=rng.choice((4, 12, 10**6)))
            for params in (P12, P23, P24, P35, P36):
                red = britton_reduce(u, params)
                c = canonical_form(u, params)
                assert c.theta == red.theta
                assert canonical_form(red, params) == c
