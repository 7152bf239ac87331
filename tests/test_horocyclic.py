"""Normal forms of horocyclic elements: greedy phase, slope DP, norms."""

from __future__ import annotations

import random

from conftest import P12, P13, P23, P24, P26, P36, random_slope
from reference_base_table import full_level_base_table, reference_base_table

import pytest

from bsgeo import (
    AltWord,
    GroupParams,
    LimitExceeded,
    NotHorocyclic,
    PreconditionError,
    ball,
    base_table,
    greedy_slope,
    int_llnf,
    int_norm,
    llnf_horocyclic,
    llnf_shape_ok,
    norm,
    oracle_llnf,
    parse_word,
    r_llnf,
    reconstruct_from_matrix,
    render_word,
    slope_dp_optimized,
    slope_dp_table,
    slope_llnf,
    to_alt,
    alt_from_int,
)
from bsgeo import full_pnf, horocyclic, stats
from bsgeo.horocyclic import _int_llnf_cached, _small_ints
from bsgeo.words import sym_key

SMALL_PAIRS = tuple(GroupParams(p, q) for q in range(2, 9) for p in range(1, q))

# the staircase search grows exponentially with r: BS(4,5) (r = 36) alone takes
# about 5 s, so the other pairs stop at r <= 25
REFERENCE_PAIRS = tuple(
    params for params in SMALL_PAIRS if r_llnf(params) <= 25 or params == GroupParams(4, 5)
)

APPENDIX = to_alt(parse_word("7t14T-2tt9T2T23"))

# pairs beyond q <= 8, up to the widest tables MAX_TABLE_RADIUS admits
WIDE_PAIRS = [(9, 10), (12, 13), (1, 100), (15, 16), (1, 166)]


def test_r_llnf_values():
    assert r_llnf(P13) == 4
    assert r_llnf(P12) == 3
    assert r_llnf(P24) == 9
    assert r_llnf(P23) == 10
    assert r_llnf(P26) == 10


class TestBaseTable:
    def test_entries(self):
        table = base_table(P13)
        assert table[0] == ""
        assert table[-4] == "tATA"
        assert table[9] == "ttaTT"
        # covers at least the DP lookup range |rho| <= r + q
        assert set(range(-7, 8)) <= set(table)
        assert set(table) == set(range(-9, 10))  # sized r + 2q - 1

    def test_against_oracle(self):
        for params in (P12, P13, P24):
            index = ball(params, 8)
            for rho, word in base_table(params).items():
                if len(word) <= 8:
                    assert word == oracle_llnf(alt_from_int(rho), index), (params, rho)

    @pytest.mark.parametrize("params", REFERENCE_PAIRS, ids=lambda P: f"BS({P.p},{P.q})")
    def test_matches_staircase_search(self, params):
        assert base_table(params) == reference_base_table(params)

    # BS(15,16) (radius 496) and BS(1,166) (radius 498) are the widest tables
    # that MAX_TABLE_RADIUS admits
    @pytest.mark.parametrize("p, q", WIDE_PAIRS)
    def test_early_stop_matches_all_levels(self, p, q):
        params = GroupParams(p, q)
        assert base_table(params) == full_level_base_table(params)

    def test_production_never_runs_the_string_dp(self, monkeypatch):
        cases = [
            (P13, to_alt(parse_word("7t14T-2tt9T2T23"))),
            (P24, to_alt(parse_word("3t5T7t9T11"))),
            (GroupParams(12, 13), to_alt(parse_word("100t3T-50"))),
        ]

        def answers(params, u):
            return base_table(params), int_llnf(10**40, params), full_pnf(u, params)[1:]

        want = [answers(params, u) for params, u in cases]

        def refuse(*args):
            raise AssertionError("the string column step ran on the production path")

        monkeypatch.setattr(horocyclic, "_column_step", refuse)
        for cached in (base_table, _small_ints, _int_llnf_cached):
            cached.cache_clear()
        assert [answers(params, u) for params, u in cases] == want

    @pytest.mark.parametrize("p, q", [(40, 41), (1, 250)])
    def test_cost_guard(self, p, q):
        # radius r + 2q - 1 is 3321 and 750: both refused before any work
        with pytest.raises(LimitExceeded):
            base_table(GroupParams(p, q))


class TestGreedy:
    def test_appendix_chain(self):
        ell, slope = greedy_slope(157, P13)
        assert ell == 3
        assert render_word(slope) == "5T2T1T1"

    def test_below_threshold(self):
        assert greedy_slope(2, P13) == (0, AltWord((2,)))

    def test_intermediate(self):
        ell, slope = greedy_slope(52, P13)
        assert (ell, render_word(slope)) == (2, "5T2T1")

    def test_negative_symmetric(self):
        ell_pos, _ = greedy_slope(157, P13)
        ell_neg, slope = greedy_slope(-157, P13)
        assert ell_neg == ell_pos
        assert render_word(slope) == "-5T-2T-1T-1"

    def test_output_bounds(self, rng):
        for _ in range(500):
            alpha = rng.randint(-10**6, 10**6)
            for params in (P13, P24, P23):
                q = params.q
                ell, slope = greedy_slope(alpha, params)
                assert len(slope.theta) == ell
                assert abs(slope.alpha[0]) < 2 * q
                assert all(abs(c) < q for c in slope.alpha[1:])


class TestSlopeDP:
    def test_appendix_slope(self):
        slope = to_alt(parse_word("5T2T1T1"))
        assert slope_llnf(slope, P13) == "taaTTTATAA"

    def test_empty_slope(self):
        assert slope_llnf(AltWord((0,)), P13) == ""

    def test_intermediate_column_value(self):
        slope = to_alt(parse_word("5T2T1"))
        assert render_word(to_alt(slope_llnf(slope, P13))) == "t2TTT-2"

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            slope_llnf(AltWord((0, 7, 0), "TT"), P13)  # |7| >= q
        with pytest.raises(PreconditionError):
            slope_llnf(AltWord((9, 0), "T"), P13)  # |9| >= 2q
        with pytest.raises(PreconditionError):
            slope_llnf(AltWord((0, 0), "t"), P13)  # not a slope

    def test_optimized_agrees_with_baseline(self, rng):
        for _ in range(300):
            params = (P12, P13, P24)[rng.randrange(3)]
            s = random_slope(rng, params)
            if not s.theta:
                continue
            cols = slope_dp_table(s, params)
            matrix = slope_dp_optimized(s, params)
            r = r_llnf(params)
            for rho in range(-r, r + 1):
                assert reconstruct_from_matrix(matrix, rho) == cols[-1][rho]


class TestRankDP:
    """The production rank DP against the whole-word reference DP.

    These draw from their own generators so that the shared ``rng`` stream,
    and with it the inputs of every later test, stays as it was.
    """

    @pytest.mark.parametrize("params", SMALL_PAIRS, ids=lambda P: f"BS({P.p},{P.q})")
    def test_long_slopes_match_reference(self, params):
        rng = random.Random(f"slopes{params}")
        q = params.q
        for _ in range(2):
            s = random_slope(rng, params, max_len=400)
            while len(s.theta) < 50:
                s = random_slope(rng, params, max_len=400)
            last = slope_dp_table(s, params)[-1]
            # every admissible last coefficient, so the whole final column is read
            for gamma in range(-(q - 1), q):
                s2 = AltWord(s.alpha[:-1] + (gamma,), s.theta)
                assert slope_llnf(s2, params) == last[gamma], (params, s2)

    @pytest.mark.parametrize("p, q", WIDE_PAIRS)
    def test_wide_pairs_match_reference(self, p, q):
        params = GroupParams(p, q)
        rng = random.Random(f"wide{params}")
        for _ in range(2):
            s = random_slope(rng, params, max_len=12)
            while len(s.theta) < 4:
                s = random_slope(rng, params, max_len=12)
            last = slope_dp_table(s, params)[-1]
            for gamma in range(-(q - 1), q):
                s2 = AltWord(s.alpha[:-1] + (gamma,), s.theta)
                assert slope_llnf(s2, params) == last[gamma], (params, s2)

    @pytest.mark.parametrize("p, q", [(12, 13), (15, 16)])
    def test_cone_is_narrow(self, p, q):
        # the full columns have 2r + 1 = 601 and 931 rows, and a full-width
        # DP ticks 1,155 and 1,803 candidates per column
        params = GroupParams(p, q)
        rng = random.Random(f"cone{params}")
        base_table(params)
        for _ in range(3):
            digits = rng.randint(60, 120)
            _, slope = greedy_slope(rng.randrange(10 ** (digits - 1), 10**digits), params)
            stats.ops.reset()
            slope_llnf(slope, params)
            assert stats.ops.reset() <= 4 * q * len(slope.theta)

    @pytest.mark.parametrize("params", (P12, P13, P23, P24, P26, P36))
    def test_int_llnf_big_integers(self, params):
        rng = random.Random(f"ints{params}")
        for _ in range(4):
            digits = rng.randint(30, 300)
            alpha = rng.randrange(10 ** (digits - 1), 10**digits) * rng.choice((1, -1))
            ell, slope = greedy_slope(alpha, params)
            want = "t" * ell + slope_dp_table(slope, params)[-1][slope.alpha[-1]]
            assert int_llnf(alpha, params) == want

    @pytest.mark.parametrize("params", (P12, P24))
    def test_op_count_is_linear(self, params):
        rng = random.Random(f"ops{params}")
        base_table(params)  # built once per pair; its search is not per call

        def ops(digits: int) -> int:
            alpha = rng.randrange(10 ** (digits - 1), 10**digits)
            _int_llnf_cached.cache_clear()
            stats.ops.reset()
            int_llnf(alpha, params)
            return stats.ops.reset()

        ratio = ops(3200) / ops(800)
        assert 3 <= ratio <= 5, ratio


class TestIntLlnf:
    def test_values(self):
        assert int_llnf(157, P13) == "ttttaaTTTATAA"
        assert len(int_llnf(157, P13)) == 13
        assert int_llnf(1, P13) == "a"
        assert int_llnf(0, P13) == ""
        assert int_llnf(8, P13) == "ttaTTA"

    def test_norm_examples(self):
        assert int_norm(157, P13) == 13
        # ||5|| = 5 in BS(1,3): the unary word and t1T2 tie at five letters
        assert int_norm(5, P13) == 5
        assert norm(AltWord((5, 2, 1, 1), "TTT"), P13) == 3 + 5 + 2 + 1 + 1
        assert norm(AltWord((0,)), P13) == 0
        assert norm(AltWord((157,)), P13) == 13

    def test_shape_predicate(self, rng):
        for _ in range(500):
            alpha = rng.randint(-10**5, 10**5)
            for params in (P13, P24, P23):
                assert llnf_shape_ok(int_llnf(alpha, params), alpha, params)

    def test_consistent_with_base_table(self):
        for params in (P12, P13, P24, P23):
            for rho, word in base_table(params).items():
                assert int_llnf(rho, params) == word

    def test_monotone_prefix_along_greedy_chain(self, rng):
        # once the greedy phase splits i times, every larger value with the
        # same construction keeps the t^i prefix
        for _ in range(100):
            alpha = rng.randint(2 * 3, 10**5)
            ell, _ = greedy_slope(alpha, P13)
            for alpha2 in (alpha, alpha + 3, alpha * 2 + 1):
                ell2, _ = greedy_slope(alpha2, P13)
                word = int_llnf(alpha2, P13)
                lead = len(word) - len(word.lstrip("t"))
                assert lead >= ell2
                if alpha2 >= alpha:
                    assert ell2 >= ell

    def test_cache_is_bounded(self):
        alphas = range(1000, 2100)
        _int_llnf_cached.cache_clear()
        fresh = [int_llnf(a, P23) for a in alphas]
        assert _int_llnf_cached.cache_info().currsize <= 1024
        # the early alphas were evicted and are solved again, the rest are hits
        assert [int_llnf(a, P23) for a in alphas] == fresh

    def test_small_int_table(self):
        for params in (P12, P13, P23, P24, P36):
            small = _small_ints(params)
            assert sorted(small) == list(range(1 - params.q, params.q))
            assert all(n == int_norm(a, params) for a, (n, _) in small.items())
            assert sorted(small, key=lambda a: small[a][1]) == sorted(small, key=sym_key)


class TestLlnfHorocyclic:
    def test_appendix(self):
        assert llnf_horocyclic(APPENDIX, P13) == "ttttaaTTTATAA"

    def test_small_tie(self):
        # length-3 tie between aaa and taT resolved lexicographically (t < a)
        assert llnf_horocyclic(to_alt("aaa"), P13) == "taT"

    def test_identity(self):
        assert llnf_horocyclic(to_alt("tT"), P13) == ""

    def test_rejects_nonhorocyclic(self):
        with pytest.raises(NotHorocyclic):
            llnf_horocyclic(AltWord((1, 1, 1), "Tt"), P24)

    def test_idempotence(self, rng):
        for _ in range(200):
            alpha = rng.randint(-10**4, 10**4)
            for params in (P13, P24):
                word = int_llnf(alpha, params)
                assert llnf_horocyclic(to_alt(word), params) == word

    def test_geodesic_against_oracle(self):
        for params in (P12, P13, P24):
            index = ball(params, 8)
            for alpha in range(-20, 21):
                word = int_llnf(alpha, params)
                if len(word) <= 8:
                    assert word == oracle_llnf(alt_from_int(alpha), index)


def _ell_thresholds(params: GroupParams, above: int, count: int) -> list[int]:
    """The first ``count`` magnitudes above ``above`` where the greedy split takes one more step.

    The split takes at least one step from |x| = 2q on, and at least k + 1
    from q * ceil(T_k / p) on, T_k the magnitude of its k-th step.
    """
    p, q = params.p, params.q
    out = [2 * q]
    while len(out) < count or out[-count] <= above:
        out.append(q * -(-out[-1] // p))
    return out[-count:]


class TestLengthsOnly:
    """``int_norm`` and the shared cone count lengths without spelling words."""

    @pytest.mark.parametrize(
        "params",
        SMALL_PAIRS + tuple(GroupParams(p, q) for p, q in WIDE_PAIRS),
        ids=lambda P: f"BS({P.p},{P.q})",
    )
    def test_int_norm_is_llnf_length(self, params):
        rng = random.Random(f"norms{params}")
        for digits in (1, 3, 8, 15, 30):
            alpha = rng.randrange(10 ** (digits - 1), 10**digits) * rng.choice((1, -1))
            assert int_norm(alpha, params) == len(int_llnf(alpha, params)), alpha

    @pytest.mark.parametrize(
        "params", SMALL_PAIRS + (GroupParams(12, 13),), ids=lambda P: f"BS({P.p},{P.q})"
    )
    def test_shared_cone_matches_int_norm(self, params):
        # every shift |s| <= 2r, at random x and at x next to the magnitudes
        # where the greedy split takes one more step (there the fallback runs)
        rng = random.Random(f"shifts{params}")
        r = r_llnf(params)
        shifts = range(-2 * r, 2 * r + 1)
        if len(shifts) > 41:
            shifts = sorted(rng.sample(shifts, 41))
        xs = [rng.randint(-(10**30), 10**30) if r <= 30 else rng.randint(-(10**12), 10**12)]
        for t in _ell_thresholds(params, r + 2 * params.q, 4):
            d = rng.randint(-2 * r, 2 * r)
            xs += [t + d, -(t + d)]
        for x in xs:
            got = horocyclic._shifted_norms(x, shifts, params)
            assert got == {s: len(int_llnf(x + s, params)) for s in shifts}, x

    def test_far_shifts_share_one_cone(self, monkeypatch):
        # away from the thresholds no shift falls back to int_norm, and one
        # lengths-only pass serves them all
        passes = []
        real = horocyclic._cone_lengths

        def counting(cone, rows, params):
            passes.append(len(cone))
            return real(cone, rows, params)

        monkeypatch.setattr(horocyclic, "int_norm", None)
        monkeypatch.setattr(horocyclic, "_cone_lengths", counting)
        x, r = 3 * 10**20 + 12345, r_llnf(P23)
        got = horocyclic._shifted_norms(x, range(-r, r + 1), P23)
        assert len(passes) == 1
        monkeypatch.undo()
        assert got == {s: int_norm(x + s, P23) for s in range(-r, r + 1)}

    @pytest.mark.parametrize("params", (P12, P23, P36))
    def test_integer_pnf_runs_no_lengths_pass(self, params, monkeypatch):
        # a^N spells its llnf once, and its norm is that word's length
        lengths, spelled = [], []
        real_lengths, real_slope = horocyclic._cone_lengths, horocyclic.slope_llnf

        def counting_lengths(*args):
            lengths.append(args)
            return real_lengths(*args)

        def counting_slope(*args):
            spelled.append(args)
            return real_slope(*args)

        monkeypatch.setattr(horocyclic, "_cone_lengths", counting_lengths)
        monkeypatch.setattr(horocyclic, "slope_llnf", counting_slope)
        n = 10**40 + 7
        _int_llnf_cached.cache_clear()
        bp, flat, length = full_pnf(AltWord((n,)), params)
        assert (len(lengths), len(spelled)) == (0, 1)
        assert bp.norm == length == len(flat) and flat == int_llnf(n, params)
