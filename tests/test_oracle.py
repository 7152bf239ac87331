"""The brute-force ball oracle and the enumeration-based peak normal form."""

from __future__ import annotations

import itertools
import time

from conftest import P12, P13, P24, iter_words

import pytest

from bsgeo import (
    AltWord,
    LimitExceeded,
    OutOfBall,
    alt_from_int,
    ball,
    britton_reduce,
    canonical_form,
    full_pnf,
    int_llnf,
    ll_key,
    load_ball,
    oracle_britton_pnf,
    oracle_geolen,
    oracle_llnf,
    save_ball,
    to_alt,
)


class TestBall:
    def test_radius_zero(self):
        index = ball(P13, 0)
        assert len(index.table) == 1
        assert index.table[AltWord((0,))] == (0, "")

    def test_minus_four_entry(self):
        index = ball(P13, 4)
        assert index.table[canonical_form(alt_from_int(-4), P13)] == (4, "tATA")

    def test_short_word_wins(self):
        index = ball(P12, 3)
        assert index.table[canonical_form(alt_from_int(2), P12)] == (2, "aa")

    def test_first_hit_is_ll_minimal(self):
        # group all candidate words per element independently and take the
        # ll-least one; the ball must store exactly that witness
        index = ball(P12, 4)
        groups: dict[AltWord, list[str]] = {}
        for word in iter_words(4):
            groups.setdefault(canonical_form(to_alt(word), P12), []).append(word)
        assert set(groups) == set(index.table)
        for key, words in groups.items():
            best = min(words, key=ll_key)
            assert index.table[key] == (len(best), best)

    def test_guard(self):
        with pytest.raises(LimitExceeded):
            ball(P12, 20)
        # refused before any power of the radius is taken, with a short message
        t0 = time.perf_counter()
        with pytest.raises(LimitExceeded) as info:
            ball(P12, 10**6)
        assert time.perf_counter() - t0 < 1
        assert len(str(info.value)) < 200


class TestLookups:
    def test_identity(self):
        index = ball(P13, 4)
        assert oracle_geolen(to_alt("tT"), index) == 0
        assert oracle_llnf(to_alt("tT"), index) == ""

    def test_minus_four(self):
        index = ball(P13, 4)
        assert oracle_geolen(alt_from_int(-4), index) == 4
        assert oracle_llnf(alt_from_int(-4), index) == "tATA"

    def test_out_of_ball(self):
        index = ball(P13, 2)
        with pytest.raises(OutOfBall):
            oracle_geolen(alt_from_int(99), index)

    def test_llnf_agreement_on_horocyclic_elements(self):
        # every horocyclic element of the radius-7 ball
        index = ball(P13, 7)
        for key, (length, word) in index.table.items():
            if key.theta == "":
                assert int_llnf(key.alpha[0], P13) == word


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        index = ball(P13, 3)
        path = tmp_path / "ball.tsv"
        save_ball(index, str(path))
        loaded = load_ball(str(path), P13, 3)
        assert loaded.table == index.table

    def test_radius_zero_file(self, tmp_path):
        index = ball(P13, 0)
        path = tmp_path / "b0.tsv"
        save_ball(index, str(path))
        assert path.read_text() == "\t0\t\n"


class TestOracleBrittonPnf:
    def test_plain_integer(self):
        assert oracle_britton_pnf(alt_from_int(2), P13, 4, 8) == AltWord((2,))

    def test_reducible_input(self):
        assert oracle_britton_pnf(AltWord((0, 1, 0), "tT"), P13, 4, 8) == AltWord((3,))

    def test_fixed_point(self):
        u = AltWord((1, 1, 1), "Tt")
        assert oracle_britton_pnf(u, P24, 4, 8) == u

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            oracle_britton_pnf(to_alt("ttttt"), P24, 4, 8)

    def test_agrees_with_pipeline_on_sample(self):
        index = ball(P24, 8)
        for word in iter_words(4):
            u = to_alt(word)
            if len(britton_reduce(u, P24).theta) > 4:
                continue
            got = oracle_britton_pnf(u, P24, 4, 8, index)
            assert got == full_pnf(u, P24)[0].word


class TestNormBounds:
    def test_geodesic_le_norm_le_length(self):
        from bsgeo import norm, word_length

        index = ball(P13, 8)
        for word in iter_words(5):
            u = to_alt(word)
            assert oracle_geolen(u, index) <= norm(u, P13) <= word_length(u)


class TestStaircaseFamilies:
    def test_interleaving_words_all_equal(self):
        # the 2^k words obtained by moving single letters a across the
        # ascent are pairwise equal and of equal length; their shared value
        # is (q^(k+1)-1)/(q-1).  (Their geodesy fails at small k because the
        # unary or split spelling is shorter, which the oracle confirms.)
        for params, index in ((P12, ball(P12, 8)),):
            for k in (1, 2):
                words = []
                for bits in itertools.product((0, 1), repeat=k):
                    w = (
                        "".join("a" * e + "t" for e in bits)
                        + "a"
                        + "".join("T" + "a" * (1 - e) for e in reversed(bits))
                    )
                    words.append(w)
                assert len(set(map(len, words))) == 1
                keys = {canonical_form(to_alt(w), params) for w in words}
                assert len(keys) == 1
                value = (params.q ** (k + 1) - 1) // (params.q - 1)
                assert keys.pop() == canonical_form(alt_from_int(value), params)
                assert oracle_geolen(alt_from_int(value), index) <= len(words[0])
