"""Valleys, standardisation, ranges, families, and the full pipeline."""

from __future__ import annotations

import random

from conftest import P12, P13, P23, P24, P26, P36, iter_words, random_alt, random_valley
from reference_families import (
    reference_families,
    reference_valley_family,
    reference_valley_pnf,
)

import pytest

from bsgeo import (
    AltWord,
    GroupParams,
    InternalError,
    NotAValley,
    NotDifficult,
    RequiresDivides,
    UnsupportedCase,
    alt_concat,
    alt_from_int,
    alt_from_symbols,
    ball,
    britton_reduce,
    classify,
    decompose,
    difficult_pnf,
    equal,
    flatten_pnf,
    full_pnf,
    geodesic_length,
    is_britton_reduced,
    is_standard_valley,
    norm,
    oracle_geolen,
    parse_word,
    pi_residues,
    r_valley,
    range_of,
    render_word,
    sink_count,
    t_sequence,
    to_alt,
    to_standard_valley,
    valley_family,
    valley_parse,
    valley_pnf,
)
import bsgeo.britton
import bsgeo.divides
import bsgeo.pnf
from bsgeo import stats
from bsgeo.divides import _families
from bsgeo.horocyclic import _small_ints

APPENDIX = "7t14T-2tt9T2T23"


def test_r_valley_values():
    assert r_valley(P13) == 4
    assert r_valley(P12) == 4
    assert r_valley(P24) == 10
    assert r_valley(P26) == 8


class TestPiResidues:
    def test_example(self):
        assert pi_residues(AltWord((1, 1, 1), "Tt"), P24) == ((1, 1, 1), "Tt")

    def test_p_one_collapses(self):
        assert pi_residues(AltWord((5, 2, 0), "Tt"), P13) == ((0, 0, 0), "Tt")

    def test_requires_divides(self):
        with pytest.raises(RequiresDivides):
            pi_residues(AltWord((1,)), P23)

    def test_invariant_of_element(self, rng):
        for _ in range(200):
            v = random_valley(rng)
            u = britton_reduce(v, P24)
            padded = alt_concat(alt_concat(AltWord((0, 0), "t"), u), AltWord((0, 0), "T"))
            w = britton_reduce(alt_concat(alt_concat(AltWord((0, 0), "T"), padded), AltWord((0, 0), "t")), P24)
            assert equal(u, w, P24)
            assert pi_residues(u, P24) == pi_residues(w, P24)


class TestValleyParse:
    def test_leaf(self):
        tree = valley_parse(AltWord((5,)))
        assert tree.nodes[tree.root].kind == "leaf"
        assert tree.reassemble() == AltWord((5,))

    def test_single_arc(self):
        v = AltWord((5, 2, 0), "Tt")
        tree = valley_parse(v)
        root = tree.nodes[tree.root]
        assert root.kind == "arc"
        assert root.alpha == 5 and root.beta == 2
        assert tree.nodes[root.child].kind == "leaf"
        assert tree.nodes[root.child].value == 0
        assert tree.reassemble() == v

    def test_two_arcs_concatenate(self):
        v = AltWord((1, 1, 1, 1, 1), "TtTt")
        tree = valley_parse(v)
        root = tree.nodes[tree.root]
        assert root.kind == "cat"
        assert tree.nodes[root.right].kind == "leaf"  # trailing 1
        inner = tree.nodes[root.left]
        assert inner.kind == "cat"
        assert tree.nodes[inner.left].kind == "arc"
        assert tree.nodes[inner.right].kind == "arc"
        assert root.sinks == 3
        assert tree.reassemble() == v

    def test_two_arcs_no_trailing(self):
        v = AltWord((1, 1, 1, 1, 0), "TtTt")
        tree = valley_parse(v)
        root = tree.nodes[tree.root]
        assert root.kind == "cat"
        assert tree.nodes[root.left].kind == "arc"
        assert tree.nodes[root.right].kind == "arc"
        assert tree.reassemble() == v

    def test_rejects_non_valley(self):
        with pytest.raises(NotAValley):
            valley_parse(AltWord((0, 0), "t"))

    def test_reassembly_roundtrip(self, rng):
        for _ in range(300):
            v = random_valley(rng, depth=4)
            assert valley_parse(v).reassemble() == v

    def test_sink_recursion_matches_count_on_standard(self, rng):
        for _ in range(200):
            v = britton_reduce(random_valley(rng, depth=4), P24)
            V, _ = to_standard_valley(v, P24)
            tree = valley_parse(V)
            assert tree.nodes[tree.root].sinks == sink_count(V)


class TestStandardize:
    def test_worked_example(self):
        V, gamma = to_standard_valley(AltWord((5, 2, 0), "Tt"), P13)
        assert render_word(V) == "T2t"
        assert gamma == 5

    def test_integer(self):
        assert to_standard_valley(AltWord((7,)), P13) == (AltWord((0,)), 7)

    def test_already_standard(self):
        v = AltWord((0, 1, 0), "Tt")
        assert is_standard_valley(v, P13)
        assert to_standard_valley(v, P13) == (v, 0)

    def test_zero_arc_is_reducible(self):
        # T a^0 t pinches away, so the zero arc is not a standard valley
        v = AltWord((0, 0, 0), "Tt")
        assert not is_standard_valley(v, P13)
        assert to_standard_valley(v, P13) == (AltWord((0,)), 0)

    def test_contract_on_random_valleys(self, rng):
        for _ in range(400):
            params = (P13, P24, P26)[rng.randrange(3)]
            raw = random_valley(rng, depth=4)
            v = britton_reduce(raw, params)
            V, gamma = to_standard_valley(v, params)
            assert is_standard_valley(V, params)
            shifted = alt_concat(V, alt_from_int(gamma))
            assert is_britton_reduced(shifted, params)
            assert equal(v, shifted, params)
            # the unreduced valley standardises alike, with no reduction first
            assert to_standard_valley(raw, params) == (V, gamma)
            assert valley_pnf(raw, params) == valley_pnf(v, params)

    def test_requires_divides(self):
        with pytest.raises(RequiresDivides):
            to_standard_valley(AltWord((1,)), P23)


class TestRanges:
    def test_trivial(self):
        assert range_of(AltWord((0,)), P13) == (0,)
        assert range_of(AltWord((0, 1, 0), "Tt"), P13) == (0, 1)

    def test_worked_example_range(self):
        assert range_of(AltWord((0, 2, 0), "Tt"), P13) == (0, 1)

    def test_concatenation_gives_sumset(self, rng):
        for _ in range(100):
            params = (P13, P24)[rng.randrange(2)]
            u = britton_reduce(random_valley(rng, depth=3, max_coeff=4), params)
            w = britton_reduce(random_valley(rng, depth=3, max_coeff=4), params)
            U, _ = to_standard_valley(u, params)
            W, _ = to_standard_valley(w, params)
            UW = alt_concat(U, W)
            if not is_standard_valley(UW, params):
                continue  # concatenation may create a pinch at the junction
            ru, rw = range_of(U, params), range_of(W, params)
            assert set(range_of(UW, params)) == {a + b for a in ru for b in rw}

    def test_bounds(self, rng):
        for _ in range(300):
            params = (P13, P24, P26)[rng.randrange(3)]
            v = britton_reduce(random_valley(rng, depth=4), params)
            V, _ = to_standard_valley(v, params)
            r = r_valley(params)
            s = sink_count(V)
            for rho in range_of(V, params):
                assert rho % params.p == 0
                assert abs(rho) <= r * s


class TestFamilies:
    def test_trivial(self):
        fam = valley_family(AltWord((0,)), P13)
        assert set(fam) == {0}
        assert fam[0] == (AltWord((0,)), 0)

    def test_worked_example_family(self):
        fam = valley_family(AltWord((0, 2, 0), "Tt"), P13)
        assert render_word(fam[0][0]) == "T2t"
        assert render_word(fam[1][0]) == "T-1t"
        assert fam[1][1] == 3

    def test_family_contract(self, rng):
        for _ in range(200):
            params = (P13, P24)[rng.randrange(2)]
            v = britton_reduce(random_valley(rng, depth=3), params)
            V, _ = to_standard_valley(v, params)
            fam = valley_family(V, params)
            assert set(fam) == set(range_of(V, params))
            for rho, (word, n) in fam.items():
                assert is_standard_valley(word, params)
                assert equal(V, alt_concat(word, alt_from_int(rho)), params)
                assert n == norm(word, params)

    def test_family_minimality_equation(self, rng):
        # pnf(V a^c) = min over rho of V_rho llnf(rho + c), verified
        # against the valley solver and the ball oracle
        from bsgeo import make_britton_pnf

        index = ball(P13, 8)
        for _ in range(60):
            v = britton_reduce(random_valley(rng, depth=2, max_coeff=4), P13)
            V, _ = to_standard_valley(v, P13)
            fam = valley_family(V, P13)
            for c in range(-6, 7):
                target = alt_concat(V, alt_from_int(c))
                got = flatten_pnf(valley_pnf(target, P13), P13)
                cands = [
                    flatten_pnf(
                        make_britton_pnf(alt_concat(w, alt_from_int(rho + c)), P13), P13
                    )
                    for rho, (w, _) in fam.items()
                ]
                best_len = min(len(cand) for cand in cands)
                assert len(got) == best_len
                assert got in [cand for cand in cands if len(cand) == best_len]
                if len(got) <= 8:
                    assert len(got) == oracle_geolen(target, index)


class TestValleyPnf:
    def test_integer(self):
        b = valley_pnf(AltWord((7,)), P13)
        assert b.word == AltWord((7,))

    def test_worked_example(self):
        v = AltWord((5, 2, 0), "Tt")
        b = valley_pnf(v, P13)
        assert flatten_pnf(b, P13) == "TAttaaT"
        assert b.norm == 7 == oracle_geolen(v, ball(P13, 8))

    def test_multiple_of_p_commutes(self, rng):
        for _ in range(300):
            params = (P13, P24, P26)[rng.randrange(3)]
            v = britton_reduce(random_valley(rng, depth=3), params)
            p = alt_from_int(params.p)
            assert equal(alt_concat(p, v), alt_concat(v, p), params)

    def test_geodesic_on_sweep(self):
        index = ball(P24, 8)
        for word in iter_words(5):
            u = to_alt(word)
            if classify(u, P24).valley:
                b = valley_pnf(u, P24)
                assert b.norm == oracle_geolen(u, index)
                assert equal(u, to_alt(flatten_pnf(b, P24)), P24)

    def test_rejects(self):
        with pytest.raises(NotAValley):
            valley_pnf(AltWord((0, 0), "t"), P13)
        with pytest.raises(RequiresDivides):
            valley_pnf(AltWord((1,)), P23)


class TestDifficult:
    def test_valley_case(self):
        u = AltWord((1, 1, 1), "Tt")
        assert difficult_pnf(u, P24).word == u

    def test_positive_height_no_tail(self):
        # height 1, already ends at its maximum: strip the T prefix only
        u = AltWord((0, 1, 0, 0), "Ttt")
        b = difficult_pnf(u, P13)
        assert equal(u, b.word, P13)
        assert t_sequence(b.word, P13) == "Ttt"
        assert b.norm <= norm(u, P13)

    def test_positive_height_with_tail(self):
        # height 1 reached before the end: exercises the two-valley glue
        u = AltWord((0, 1, 0, 1, 1, 2, 0), "TttTTt")
        assert is_britton_reduced(u, P24)
        b = difficult_pnf(u, P24)
        assert equal(u, b.word, P24)
        assert t_sequence(b.word, P24) == u.theta
        again = difficult_pnf(b.word, P24)
        assert again.word == b.word

    @pytest.mark.parametrize("half", [0, 1], ids=["left", "right"])
    def test_cancelled_pair_is_an_internal_error(self, monkeypatch, half):
        # a carry pass that loses a T c t pair in either valley half must raise,
        # also under python -O
        real = bsgeo.divides._valley_word
        calls = []

        def cancelling(v, params):
            w = real(v, params)
            calls.append(v)
            if len(calls) != half + 1:
                return w
            i = w.theta.index("Tt")
            alpha = w.alpha[:i] + (sum(w.alpha[i : i + 3]),) + w.alpha[i + 3 :]
            return AltWord(alpha, w.theta[:i] + w.theta[i + 2 :])

        monkeypatch.setattr(bsgeo.divides, "_valley_word", cancelling)
        with pytest.raises(InternalError, match="cancelled a pair"):
            difficult_pnf(AltWord((0, 1, 1, 1, 1, 1, 0), "TttTTt"), P24)
        assert len(calls) == 2

    def test_sweep_against_oracle(self):
        index = ball(P24, 8)
        for word in iter_words(5):
            u = britton_reduce(to_alt(word), P24)
            if not (u.theta and u.theta[0] == "T" and u.theta[-1] == "t"):
                continue
            b = difficult_pnf(u, P24)
            assert b.norm == oracle_geolen(u, index)

    def test_rejects(self):
        with pytest.raises(NotDifficult):
            difficult_pnf(AltWord((5,)), P24)
        with pytest.raises(RequiresDivides):
            difficult_pnf(AltWord((1, 1, 1), "Tt"), P23)


class TestFullPnf:
    def test_appendix(self):
        bp, flat, length = full_pnf(parse_word(APPENDIX), P13)
        assert flat == "ttttaaTTTATAA"
        assert render_word(to_alt(flat)) == "t^4 2TTT-1T-2"
        assert length == 13

    def test_empty(self):
        bp, flat, length = full_pnf("", P13)
        assert flat == "" and length == 0

    def test_exhaustive_small_sweep(self):
        index = ball(P12, 8)
        for word in iter_words(4):
            u = to_alt(word)
            bp, flat, length = full_pnf(u, P12)
            assert length == oracle_geolen(u, index)
            assert equal(u, to_alt(flat), P12)
            assert t_sequence(to_alt(flat), P12) == t_sequence(u, P12)

    def test_unsupported_case(self):
        with pytest.raises(UnsupportedCase):
            full_pnf(AltWord((1, 1, 1), "Tt"), P23)
        # hills still work for p not dividing q
        bp, flat, length = full_pnf(AltWord((1, 1, 1), "tT"), P23)
        assert equal(AltWord((1, 1, 1), "tT"), to_alt(flat), P23)

    def test_difficult_core_is_reduced_twice(self, monkeypatch):
        # decompose reduces the input and difficult_pnf its core; the two
        # valley halves are standardised by the carry pass alone
        calls = []
        real = bsgeo.britton.britton_reduce

        def counting(u, params):
            calls.append(u)
            return real(u, params)

        monkeypatch.setattr(bsgeo.britton, "britton_reduce", counting)
        monkeypatch.setattr(bsgeo.divides, "britton_reduce", counting)
        u = AltWord((0, 1, 1, 1, 1, 1, 0), "TttTTt")  # height 1 inside, 0 at the end: m = 1
        bp, flat, length = full_pnf(u, P24)
        assert (flat, length) == ("TatataTaTat", 11)
        assert 1 <= len(calls) <= 2

    def test_flanked_core_is_reduced_and_wrapped_once(self, monkeypatch):
        # the flank peel solves every (rho, delta) core to a word; only the
        # winner becomes a BrittonPnf, and no shifted core is reduced again
        u = to_alt(parse_word("5t1T1t1T7"))  # 2 left carries x 2 right carries
        assert decompose(u, P24).core.theta == "Tt"
        reduced, wrapped = [], []
        real_reduce = bsgeo.britton.britton_reduce
        real_wrap = bsgeo.pnf.make_britton_pnf

        def counting_reduce(u, params):
            reduced.append(u)
            return real_reduce(u, params)

        def counting_wrap(w, params, norm=None):
            wrapped.append(w)
            return real_wrap(w, params, norm)

        monkeypatch.setattr(bsgeo.britton, "britton_reduce", counting_reduce)
        monkeypatch.setattr(bsgeo.divides, "britton_reduce", counting_reduce)
        monkeypatch.setattr(bsgeo.pnf, "make_britton_pnf", counting_wrap)
        monkeypatch.setattr(bsgeo.divides, "make_britton_pnf", counting_wrap)
        bp, flat, length = full_pnf(u, P24)
        assert equal(u, to_alt(flat), P24)
        assert (len(reduced), len(wrapped)) == (1, 1)

    @pytest.mark.parametrize("params", [P24, P36], ids=["BS(2,4)", "BS(3,6)"])
    def test_difficult_pnf_matches_full_pnf_on_unreduced_words(self, params):
        rng = random.Random(15)
        compared = 0
        while compared < 300:
            u = random_alt(rng, max_k=10, max_coeff=12)
            w = britton_reduce(u, params)
            if is_britton_reduced(u, params) or not (w.theta[:1] == "T" and w.theta[-1:] == "t"):
                continue
            assert difficult_pnf(u, params).word == full_pnf(u, params)[0].word, u
            compared += 1

    def test_geodesic_length_examples(self):
        assert geodesic_length(parse_word(APPENDIX), P13) == 13
        assert geodesic_length("a" * 6, P13) == 4  # 2q ~ t 2p T
        assert geodesic_length("tT", P13) == 0


class TestFamiliesReference:
    # the rank DP against the rope-comparing families: words, norms, ranks,
    # the candidate count and the valley pnf, on valleys far past the oracle

    PAIRS = (P13, P24, P36, GroupParams(4, 8), P26, GroupParams(3, 9))

    @staticmethod
    def _family_style(rng, params, max_sinks=16, max_depth=8):
        """A standard valley of up to max_sinks nests of arcs up to max_depth deep."""
        p, q = params.p, params.q
        word: list = [0]
        for _ in range(rng.randint(1, max_sinks)):
            syms: list = [0]
            for _ in range(rng.randint(1, max_depth)):
                a = rng.randint(1 - p, p - 1)
                b = rng.choice([b for b in range(1 - q, q) if b])
                syms = [a, "T"] + syms[:-1] + [syms[-1] + b, "t", 0]
            word = word[:-1] + [word[-1] + syms[0]] + syms[1:]
        return to_standard_valley(alt_from_symbols(word), params)[0]

    def _check(self, v, params):
        V, _ = to_standard_valley(v, params)
        tree = valley_parse(V)
        _small_ints(params)  # built once per group; its llnf calls tick too
        stats.ops.reset()
        fams = _families(tree, params)
        ticks = stats.ops.reset()
        ref, n_cands = reference_families(tree, params)
        assert ticks == n_cands
        for fam, ref_fam in zip(fams, ref):
            assert [rho for rho, _, _ in fam] == sorted(ref_fam, key=lambda r: ref_fam[r].rank)
            assert {rho: n for rho, n, _ in fam} == {r: rope.norm for r, rope in ref_fam.items()}
        assert valley_family(V, params) == reference_valley_family(V, params)
        assert range_of(V, params) == tuple(sorted(ref[tree.root]))
        assert valley_pnf(v, params) == reference_valley_pnf(v, params), v

    def test_family_style_valleys(self):
        rng = random.Random(11)
        for params in self.PAIRS:
            for _ in range(6):
                V = self._family_style(rng, params)
                c = rng.randint(-10**4, 10**4)
                self._check(alt_concat(V, alt_from_int(c)), params)

    def test_random_reduced_valleys(self):
        rng = random.Random(12)
        for params in self.PAIRS:
            for _ in range(100):
                v = random_valley(rng, depth=rng.randint(2, 10), max_coeff=10**4)
                self._check(britton_reduce(v, params), params)
