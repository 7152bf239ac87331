"""Word representations, notation, statistics, and the two orders."""

from __future__ import annotations

import doctest
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsgeo.words
from bsgeo import (
    AltWord,
    ExpansionLimit,
    GroupParams,
    LimitExceeded,
    ParseError,
    alt_from_symbols,
    cmp_delta,
    cmp_ll,
    height,
    height_profile,
    involute,
    ll_key,
    parse_alt,
    parse_word,
    peak_count,
    peak_position,
    render_word,
    sink_count,
    to_alt,
    to_raw,
    word_length,
)

APPENDIX = "7t14T-2tt9T2T23"
APPENDIX_LETTERS = (
    "a" * 7 + "t" + "a" * 14 + "T" + "A" * 2 + "tt" + "a" * 9 + "T" + "aa" + "T" + "a" * 23
)

raw_words = st.text(alphabet="tTaA", max_size=12)
alt_words = st.builds(
    lambda coeffs, theta: AltWord(tuple(coeffs[: len(theta) + 1]), theta),
    st.lists(st.integers(-9, 9), min_size=13, max_size=13),
    st.text(alphabet="tT", max_size=12),
)


def test_doctests():
    failures, _ = doctest.testmod(bsgeo.words)
    assert failures == 0


def test_group_params_validation():
    GroupParams(1, 2)
    with pytest.raises(ValueError):
        GroupParams(2, 2)
    with pytest.raises(ValueError):
        GroupParams(0, 3)
    assert GroupParams(2, 6).divides
    assert not GroupParams(2, 3).divides


class TestParse:
    def test_appendix_word(self):
        w = parse_word(APPENDIX)
        assert w == APPENDIX_LETTERS
        assert len(w) == 63

    def test_empty(self):
        assert parse_word("") == ""

    def test_exponent_and_space(self):
        assert parse_word("t^3 5T2T1T1") == "ttt" + "aaaaa" + "T" + "aa" + "T" + "a" + "T" + "a"

    def test_zero_coefficient_is_empty(self):
        assert parse_word("0t0") == "t"

    @pytest.mark.parametrize(
        "text,offset",
        [("xy", 0), ("a^0", 2), ("a^-3", 2), ("ta^", 3), ("t-", 1), ("aa%", 2)],
    )
    def test_errors_carry_offsets(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse_word(text)
        assert err.value.offset == offset

    def test_alt_keeps_coefficients_as_integers(self):
        # 10^30 letters could never be spelled out
        assert parse_alt("1" + "0" * 30 + "t a^3 A^5") == AltWord((10**30, -2), "t")
        assert parse_alt("t^3 5T2T1T1") == to_alt(parse_word("t^3 5T2T1T1"))

    def test_t_letters_are_bounded(self, monkeypatch):
        # an exponent over the bound is refused before anything is allocated
        limit = bsgeo.words.MAX_T_LETTERS
        for text in (f"t^{limit + 1}", "t^" + "9" * 5000):
            with pytest.raises(LimitExceeded):
                parse_alt(text)
        # the bound counts every t and T letter; leading zeros do not count
        monkeypatch.setattr(bsgeo.words, "MAX_T_LETTERS", 12)
        assert parse_alt("t^0000000010 TT 1") == AltWord((0,) * 12 + (1,), "t" * 10 + "TT")
        with pytest.raises(LimitExceeded):
            parse_alt("t^10 T^2 t")

    @pytest.mark.parametrize("text", ["7" * 5000, "-" + "7" * 5000, "a^" + "7" * 5000])
    def test_digits_beyond_the_int_limit_are_a_parse_error(self, text):
        # the CLI lifts the interpreter's int/str digit cap; a library call
        # under the default cap gets a ParseError, not a bare ValueError
        if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
            pytest.skip("this interpreter converts integers of any length")
        with pytest.raises(ParseError):
            parse_alt(text)

    def test_non_decimal_digit_is_a_parse_error(self):
        # "²" counts as a digit for str.isdigit but int() rejects it
        with pytest.raises(ParseError) as err:
            parse_alt("a^²")
        assert err.value.offset == 2


class TestRender:
    def test_compact_examples(self):
        assert render_word(to_alt(APPENDIX_LETTERS)) == APPENDIX
        assert render_word(AltWord((157,))) == "157"
        assert render_word(AltWord((0, 1, 0), "tT")) == "t1T"
        assert render_word(AltWord((0,))) == ""

    def test_long_runs_fold(self):
        w = to_alt("tttt" + "aa" + "TTT" + "A" + "T" + "AA")
        assert render_word(w) == "t^4 2TTT-1T-2"
        assert parse_word(render_word(w)) == "ttttaaTTTATAA"

    @given(alt_words)
    @settings(max_examples=300)
    def test_roundtrip(self, u):
        assert to_alt(parse_word(render_word(u))) == to_alt(to_raw(u, 10**6))

    @given(alt_words)
    @settings(max_examples=300)
    def test_alt_roundtrip(self, u):
        assert parse_alt(render_word(u)) == u


class TestAltRaw:
    def test_to_alt_merges(self):
        assert to_alt("aaAt") == AltWord((1, 0), "t")
        assert to_alt("") == AltWord((0,))
        assert to_alt(APPENDIX_LETTERS) == AltWord(
            (7, 14, -2, 0, 9, 2, 23), "tTttTT"
        )

    @given(raw_words)
    def test_to_alt_never_longer(self, w):
        assert word_length(to_alt(w)) <= len(w)

    def test_to_raw(self):
        assert to_raw(AltWord((2, -1), "T"), 10) == "aaTA"
        assert to_raw(AltWord((0,)), 10) == ""
        with pytest.raises(ExpansionLimit):
            to_raw(AltWord((10**6,)), 100)

    @given(alt_words)
    def test_raw_roundtrip(self, u):
        assert to_alt(to_raw(u, 10**6)) == to_alt(parse_word(render_word(u)))


class TestInvolution:
    def test_examples(self):
        assert involute(AltWord((1, 2), "t")) == AltWord((-2, -1), "T")
        assert involute(AltWord((0,))) == AltWord((0,))
        assert involute(AltWord((5, 2, 1, 1), "TTT")) == AltWord((-1, -1, -2, -5), "ttt")

    @given(alt_words)
    def test_involution_preserves_shape(self, u):
        # reversing a path preserves its profile shape, so sink and peak
        # counts are invariant under the group inverse
        assert involute(involute(u)) == u
        assert sink_count(involute(u)) == sink_count(u)
        assert peak_count(involute(u)) == peak_count(u)

    @given(alt_words)
    def test_upside_down_swaps_sinks_and_peaks(self, u):
        # flipping every letter (without reversing) turns the profile upside
        # down and exchanges sinks with local peaks
        flipped = AltWord(
            tuple(-a for a in u.alpha),
            u.theta.translate(str.maketrans("tT", "Tt")),
        )
        assert sink_count(u) == peak_count(flipped)
        assert peak_count(u) == sink_count(flipped)


class TestStatistics:
    def test_word_length(self):
        assert word_length(AltWord((5, 2, 1, 1), "TTT")) == 12
        assert word_length(AltWord((0,))) == 0
        assert word_length(AltWord((157,))) == 157

    def test_height_profile(self):
        assert height_profile(AltWord((0, 0, 0), "tT")) == (0, 1, 0)
        assert height(AltWord((0, 0, 0), "tT")) == 1
        assert height_profile(AltWord((7,))) == (0,)
        assert height_profile(AltWord((1, 1, 1), "Tt")) == (0, -1, 0)
        assert height(AltWord((1, 1, 1), "Tt")) == 0

    @given(alt_words)
    def test_profile_steps_by_one(self, u):
        prof = height_profile(u)
        assert all(abs(a - b) == 1 for a, b in zip(prof, prof[1:]))

    def test_sinks_and_peaks(self):
        assert sink_count(AltWord((5,))) == 1
        assert peak_count(AltWord((5,))) == 1
        assert sink_count(AltWord((0, 0, 0, 0), "TtT")) == 2  # positions 1 and 3
        assert sink_count(AltWord((0, 0), "t")) == 1  # position 0

    @given(alt_words)
    def test_peak_sink_difference(self, u):
        assert abs(peak_count(u) - sink_count(u)) <= 1

    def test_peak_position(self):
        assert peak_position(AltWord((1, 1, 1), "Tt")) == 2
        assert peak_position(AltWord((3,))) == 0
        assert peak_position(AltWord((0, 5, 0), "tT")) == 1


class TestOrders:
    def test_ll_examples(self):
        assert cmp_ll("taTA", "AAAA") == -1
        assert cmp_ll("a", "a") == 0
        assert cmp_ll("t", "aa") == -1

    @given(raw_words, raw_words, raw_words)
    def test_ll_total_order(self, u, v, w):
        assert cmp_ll(u, v) == -cmp_ll(v, u)
        if cmp_ll(u, v) <= 0 and cmp_ll(v, w) <= 0:
            assert cmp_ll(u, w) <= 0
        assert (cmp_ll(u, v) == 0) == (u == v)

    def test_ll_sorting_matches_enumeration(self):
        words = ["", "t", "T", "a", "A", "tt", "tT", "ta", "tA", "Tt"]
        assert sorted(words, key=ll_key) == words

    def test_delta_examples(self):
        assert cmp_delta(["t"], ["T"]) == -1
        assert cmp_delta([2], [-2]) == -1
        assert cmp_delta(AltWord((2,)), AltWord((1, 0), "t")) == -1  # fewer symbols

    def test_delta_symbol_order(self):
        # t < T < 0 < 1 < -1 < 2 < -2 < ...
        syms = [["t"], ["T"], [0], [1], [-1], [2], [-2]]
        assert sorted(syms, key=bsgeo.words.delta_key) == syms

    @given(alt_words, alt_words, alt_words)
    def test_delta_total_order(self, u, v, w):
        assert cmp_delta(u, v) == -cmp_delta(v, u)
        if cmp_delta(u, v) <= 0 and cmp_delta(v, w) <= 0:
            assert cmp_delta(u, w) <= 0
        assert (cmp_delta(u, v) == 0) == (u.symbols() == v.symbols())

    def test_delta_prefix_precedes(self):
        assert cmp_delta([1, "t"], [1, "t", 5]) == -1


def test_alt_from_symbols_roundtrip():
    u = AltWord((3, -1, 0), "tT")
    assert alt_from_symbols(u.symbols()) == u
