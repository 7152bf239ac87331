"""Peak normal forms: flattening, hills, and the flank-peeling DP."""

from __future__ import annotations

import random
import sys
import threading

from conftest import P12, P13, P23, P24, P35, P36, iter_words, random_alt
from reference_peel import reference_wrap_flanks

import pytest

from bsgeo import (
    AltWord,
    NotAHill,
    GroupParams,
    ball,
    britton_reduce,
    classify,
    decompose,
    difficult_pnf,
    equal,
    flatten_pnf,
    full_pnf,
    hill_pnf,
    involute,
    make_britton_pnf,
    oracle_britton_pnf,
    oracle_geolen,
    parse_word,
    to_alt,
)
from bsgeo import horocyclic, pnf, stats
from bsgeo.pnf import _integer_core, _wrap_flanks
from bsgeo.words import peak_position

APPENDIX = to_alt(parse_word("7t14T-2tt9T2T23"))


def _split(b):
    """(peak index, u1, peak coefficient, u2) of a Britton pnf's word."""
    i, syms = peak_position(b.word), b.word.symbols()
    return i, tuple(syms[: 2 * i]), b.word.alpha[i], tuple(syms[2 * i + 1 :])


class TestBrittonPnfSplit:
    def test_single_integer(self):
        b = make_britton_pnf(AltWord((5,)), P13)
        assert _split(b) == (0, (), 5, ())
        assert b.norm == 5

    def test_peak_is_rightmost_highest(self):
        b = make_britton_pnf(AltWord((1, 2, 3), "Tt"), P24)
        i, u1, peak_coeff, u2 = _split(b)
        assert i == 2
        assert u1 == (1, "T", 2, "t")
        assert peak_coeff == 3
        assert u2 == ()

    def test_middle_peak(self):
        b = make_britton_pnf(AltWord((0, 5, 0), "tT"), P24)
        i, u1, _, u2 = _split(b)
        assert i == 1
        assert u1 == (0, "t")
        assert u2 == ("T", 0)


class TestFlatten:
    def test_integer(self):
        assert flatten_pnf(make_britton_pnf(AltWord((157,)), P13), P13) == "ttttaaTTTATAA"

    def test_small_coefficients_stay_unary(self):
        assert flatten_pnf(make_britton_pnf(AltWord((1, 1), "t"), P24), P24) == "ata"

    def test_coefficients_flatten_in_place(self):
        assert flatten_pnf(make_britton_pnf(AltWord((9, 0), "t"), P13), P13) == "ttaTTt"


class TestHillPnf:
    def test_relation_collapses(self):
        b = hill_pnf(AltWord((0, 1, 0), "tT"), P13)
        assert b.word == AltWord((3,))
        assert flatten_pnf(b, P13) == "taT"

    def test_horocyclic(self):
        assert hill_pnf(AltWord((157,)), P13).word == AltWord((157,))

    def test_fixed_point(self):
        u = AltWord((1, 1, 1), "tT")
        assert hill_pnf(u, P24).word == u

    def test_rejects_difficult(self):
        with pytest.raises(NotAHill):
            hill_pnf(AltWord((1, 1, 1), "Tt"), P24)

    def test_geodesic_on_sweep(self):
        # includes parameters with p not dividing q
        for params in (P12, P23):
            index = ball(params, 8)
            for word in iter_words(5):
                u = to_alt(word)
                c = classify(u, params)
                if not (c.horocyclic or c.hill):
                    continue
                b = hill_pnf(u, params)
                flat = flatten_pnf(b, params)
                assert equal(u, to_alt(flat), params)
                assert len(flat) == oracle_geolen(u, index) == b.norm

    def test_words_match_enumeration_nondividing(self):
        # exact Britton pnf words for p not dividing q, where the flank peel's
        # tie-breaking decides the word and lengths alone cannot catch it
        index = ball(P23, 8)
        compared = 0
        for word in iter_words(5):
            u = to_alt(word)
            c = classify(u, P23)
            if not (c.horocyclic or c.hill):
                continue
            if len(britton_reduce(u, P23).theta) > 4:
                continue  # outside the stated k_max bound
            want = oracle_britton_pnf(u, P23, 4, 8, index)
            assert hill_pnf(u, P23).word == want, word
            compared += 1
        assert compared == 1255


class TestPeakWrap:
    def test_no_flanks_delegates(self):
        u = AltWord((42,))
        b = hill_pnf(u, P13)
        assert b.word == u

    def test_flank_coefficients_within_range(self, rng):
        # peeled words keep |alpha_i| < q and the wrap stays geodesic
        index = ball(P24, 8)
        for word in iter_words(4):
            u = to_alt(word)
            c = classify(u, P24)
            if not c.hill:
                continue
            b = hill_pnf(u, P24)
            assert len(flatten_pnf(b, P24)) == oracle_geolen(u, index)

    def test_large_flank_coefficients(self):
        # 14 t 0 T 2  in BS(1,3): flank normalisation must carry 14 inward
        u = AltWord((14, 0, 2), "tT")
        index = ball(P13, 8)
        b = hill_pnf(u, P13)
        flat = flatten_pnf(b, P13)
        assert equal(u, to_alt(flat), P13)
        assert len(flat) == oracle_geolen(u, index)


class TestSymmetry:
    def test_pnf_length_invariant_under_involution(self, rng):
        for _ in range(200):
            u = random_alt(rng, max_k=4, max_coeff=8)
            c = classify(u, P24)
            if not (c.horocyclic or c.hill):
                continue
            b1 = hill_pnf(u, P24)
            b2 = hill_pnf(involute(u), P24)
            assert b1.norm == b2.norm

    def test_idempotence(self, rng):
        for _ in range(200):
            u = random_alt(rng, max_k=4, max_coeff=8)
            c = classify(u, P13)
            if not (c.horocyclic or c.hill):
                continue
            b = hill_pnf(u, P13)
            again = hill_pnf(to_alt(flatten_pnf(b, P13)), P13)
            assert again.word == b.word


class TestFlankPeelReference:
    # exact words against the value-copying peel, on flanks far longer than
    # the enumeration oracle reaches

    @staticmethod
    def _flanked(rng, core_theta, core_max, flank_max=40, coeff_max=10**6):
        k, m = rng.randint(0, flank_max), rng.randint(0, flank_max)
        alpha = [rng.randint(-coeff_max, coeff_max) for _ in range(k)]
        alpha += [rng.randint(-core_max, core_max) for _ in range(len(core_theta) + 1)]
        alpha += [rng.randint(-coeff_max, coeff_max) for _ in range(m)]
        return AltWord(tuple(alpha), "t" * k + core_theta + "T" * m)

    def _check(self, dec, solver, params):
        got = make_britton_pnf(_wrap_flanks(dec, solver, params), params)
        want = reference_wrap_flanks(dec, solver, params)
        assert (got.word, got.norm) == (want.word, want.norm), dec

    def test_random_hills(self):
        rng = random.Random(8)
        wide = (GroupParams(5, 6), GroupParams(12, 13))  # q/p near 1: the most carries per level
        for params in (P23, GroupParams(3, 5), P13, P24, *wide):
            solver = _integer_core
            for _ in range(60):
                coeff_max = rng.choice((10, 1000, 10**6))
                u = self._flanked(rng, "", coeff_max, coeff_max=coeff_max)
                self._check(decompose(u, params), solver, params)

    @pytest.mark.parametrize("params", [P23, GroupParams(5, 6), P24])
    def test_each_flank_level_is_one_shared_step(self, params, monkeypatch):
        # the flank peel runs every level on the slope DP's column step: a
        # cold build once per edge up to the budget, then a hill only off it
        rng = random.Random(10)
        u = self._flanked(rng, "", 50, flank_max=30, coeff_max=10**6)
        dec = decompose(u, params)
        want = hill_pnf(u, params)  # warm the integer caches
        step, calls = horocyclic._step, []

        def counted(*args):
            calls.append(1)
            return step(*args)

        for module in (horocyclic, pnf):
            monkeypatch.setattr(module, "_step", counted)
        edges = PEEL_SIZES[params.p, params.q][1]
        pnf._peel_automaton.cache_clear()
        for sign in (1, -1):
            calls.clear()
            pnf._peel_automaton(params, sign)
            assert len(calls) == min(edges, pnf.PEEL_EDGE_BUDGET)
        calls.clear()
        assert hill_pnf(u, params) == want
        if edges <= pnf.PEEL_EDGE_BUDGET:
            assert not calls
        else:
            assert len(calls) <= len(dec.alphas) + len(dec.betas)

    def test_dominated_carry_is_dropped(self, monkeypatch):
        # after the flank 1 t 0 t 0 t of BS(2,3) the step keeps carries 0 and
        # 2, and carry 2 is three letters longer: 3 > ||2|| = 2, so it goes
        _, _, tokens, norms = pnf._peel_automaton(P23, 1)
        levels = []

        def recorded(*args):
            level, back = horocyclic._step(*args)
            levels.append(level)
            return level, back

        monkeypatch.setattr(pnf, "_step", recorded)
        dec = decompose(AltWord((1, 0, 0, 5, 1), "tttT"), P23)
        assert dec.alphas == (1, 0, 0)
        state = pnf._START
        for a in dec.alphas:
            state, _, _, _ = pnf._level(state, a, tokens, norms, P23)
        last = levels[-1]
        assert set(last) == {0, 2} and last[2][0] - last[0][0] == 3
        assert horocyclic.int_norm(2, P23) == 2
        assert [c for c, _ in state] == [0]
        self._check(dec, _integer_core, P23)

    def test_flanks_around_difficult_cores(self):
        rng = random.Random(9)

        def solver(w):
            return difficult_pnf(w, P24).word

        compared = 0
        while compared < 300:
            core = "T" + "".join(rng.choice("tT") for _ in range(rng.randint(0, 3))) + "t"
            u = self._flanked(rng, core, 12, coeff_max=rng.choice((10, 10**6)))
            dec = decompose(u, P24)
            if not dec.core.theta:
                continue  # Britton reduction left no difficult core
            self._check(dec, solver, P24)
            compared += 1


# (states, edges) of the whole flank-peel automaton, equal for both sides
PEEL_SIZES = {
    (1, 2): (5, 10),
    (2, 3): (37, 111),
    (2, 4): (8, 32),
    (2, 5): (12, 60),
    (3, 5): (27, 135),
    (3, 6): (31, 186),
    (4, 8): (25, 200),
    (1, 166): (5, 830),
    (3, 4): (208, 832),
    (4, 5): (1287, 6435),
    (5, 6): (7548, 45288),
}


class TestPeelTable:
    # the memoised peel answers as if every level were built afresh

    PAIRS = (P23, P35, GroupParams(5, 6), GroupParams(12, 13), GroupParams(1, 166), P24, P36)

    @staticmethod
    def _words(params, rng, n):
        out = []
        while len(out) < n:
            core = ""
            if params.divides and rng.random() < 0.5:
                core = "T" + "".join(rng.choice("tT") for _ in range(rng.randint(0, 3))) + "t"
            coeff_max = rng.choice((10, 1000, 10**6))
            u = TestFlankPeelReference._flanked(rng, core, 12, flank_max=25, coeff_max=coeff_max)
            if core and not decompose(u, params).core.theta:
                continue  # Britton reduction left no difficult core
            out.append(u)
        return out

    @staticmethod
    def _counted(u, params):
        stats.ops.reset()
        bp, flat, length = full_pnf(u, params)
        return bp.word, flat, length, stats.ops.reset()

    @pytest.mark.parametrize("params", PAIRS)
    def test_warm_and_cold_tables_agree(self, params):
        # outputs and per-call op counts do not depend on what is cached
        rng = random.Random(31 * params.q + params.p)
        words = self._words(params, rng, 12)
        for u in words:
            full_pnf(u, params)  # warm the integer caches
        cold = []
        for u in words:
            pnf._peel_automaton.cache_clear()
            cold.append(self._counted(u, params))
        assert [self._counted(u, params) for u in words] == cold

    def test_threads_share_a_cold_table(self):
        rng = random.Random(32)
        jobs = [(params, u) for params in (P23, P35, P24) for u in self._words(params, rng, 10)]
        want = [full_pnf(u, params) for params, u in jobs]
        pnf._peel_automaton.cache_clear()
        results, errors = {}, []
        start = threading.Barrier(4)

        def worker(i):
            try:
                start.wait(timeout=10)
                order = list(range(len(jobs)))
                random.Random(i).shuffle(order)
                results[i] = {j: full_pnf(jobs[j][1], jobs[j][0]) for j in order}
            except Exception as e:  # reported below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        for got in results.values():
            assert [got[j] for j in range(len(jobs))] == want
        assert len(results) == 4

    def test_table_stays_within_its_bound(self):
        # BS(12,13) hills keep reaching new states, off the budget-cut
        # automaton: they run their levels and leave it as built
        params = GroupParams(12, 13)
        pnf._peel_automaton.cache_clear()
        built = [pnf._peel_automaton(params, sign) for sign in (1, -1)]
        frozen = [(dict(ids), dict(edges)) for ids, edges, _, _ in built]
        assert [len(edges) for _, edges in frozen] == [pnf.PEEL_EDGE_BUDGET] * 2
        rng, levels = random.Random(33), 0
        while levels < 3 * pnf.PEEL_EDGE_BUDGET:
            k, m = rng.randint(200, 400), rng.randint(200, 400)
            u = AltWord(
                tuple(rng.randint(-10**6, 10**6) for _ in range(k + m + 1)),
                "t" * k + "T" * m,
            )
            hill_pnf(u, params)
            levels += k + m
        for sign, (ids, edges, _, _), (ids0, edges0) in zip((1, -1), built, frozen):
            assert pnf._peel_automaton(params, sign)[0] is ids
            assert ids == ids0 and edges == edges0

    @pytest.mark.parametrize("pq", sorted(PEEL_SIZES), ids=lambda pq: "BS(%d,%d)" % pq)
    def test_exact_sizes(self, pq, monkeypatch):
        # a breadth-first search reaches the same states and edges on both
        # sides; a weaker carry prune would make more of them
        params = GroupParams(*pq)
        states, edges = PEEL_SIZES[pq]
        build = pnf._peel_automaton
        if edges > pnf.PEEL_EDGE_BUDGET:
            monkeypatch.setattr(pnf, "PEEL_EDGE_BUDGET", edges + 1)
            build = build.__wrapped__  # the whole automaton, not cached
        for sign in (1, -1):
            ids, got, _, _ = build(params, sign)
            assert (len(ids), len(got)) == (states, edges)

    def test_wide_pairs_stop_at_the_budget(self):
        for params in (GroupParams(4, 5), GroupParams(5, 6), GroupParams(12, 13)):
            for sign in (1, -1):
                assert len(pnf._peel_automaton(params, sign)[1]) == pnf.PEEL_EDGE_BUDGET

    def test_empty_flanks_build_nothing(self):
        # a^N and a flankless difficult core never reach the automaton
        pnf._peel_automaton.cache_clear()
        n = 12345678901234567890
        assert full_pnf(AltWord((n,), ""), P24)[2] == horocyclic.int_norm(n, P24)
        core = to_alt(parse_word("T1T1t3t"))
        assert decompose(core, P24).alphas == () and decompose(core, P24).core == core
        full_pnf(core, P24)
        assert pnf._peel_automaton.cache_info().currsize == 0
