"""Shared parameters and random-input generators for the test suite."""

from __future__ import annotations

import itertools
import random

import pytest

from bsgeo import AltWord, GroupParams, alt_from_symbols

P12 = GroupParams(1, 2)
P13 = GroupParams(1, 3)
P23 = GroupParams(2, 3)
P24 = GroupParams(2, 4)
P26 = GroupParams(2, 6)
P35 = GroupParams(3, 5)
P36 = GroupParams(3, 6)

DIVIDING = (P12, P13, P24, P26, P36)


def iter_words(maxlen: int):
    """All letter words over tTaA of length <= maxlen, in ll order."""
    for n in range(maxlen + 1):
        for letters in itertools.product("tTaA", repeat=n):
            yield "".join(letters)


def random_alt(rng: random.Random, max_k: int = 6, max_coeff: int = 9) -> AltWord:
    k = rng.randint(0, max_k)
    alpha = tuple(rng.randint(-max_coeff, max_coeff) for _ in range(k + 1))
    theta = "".join(rng.choice("tT") for _ in range(k))
    return AltWord(alpha, theta)


def random_valley(rng: random.Random, depth: int = 3, max_coeff: int = 6) -> AltWord:
    """A (possibly unreduced) valley drawn from the grammar S -> SS|aTSbt|a."""

    def gen(d: int) -> list:
        r = rng.random()
        if d <= 0 or r < 0.4:
            return [rng.randint(-max_coeff, max_coeff)]
        if r < 0.7:
            u, w = gen(d - 1), gen(d - 1)
            return u[:-1] + [u[-1] + w[0]] + w[1:]
        inner = gen(d - 1)
        a = rng.randint(-max_coeff, max_coeff)
        b = rng.randint(-max_coeff, max_coeff)
        return [a, "T"] + inner[:-1] + [inner[-1] + b, "t", 0]

    return alt_from_symbols(gen(depth))


def random_slope(rng: random.Random, params: GroupParams, max_len: int = 7) -> AltWord:
    """A random slope within the greedy output bounds."""
    q = params.q
    ell = rng.randint(0, max_len)
    head = rng.randint(-(2 * q - 1), 2 * q - 1)
    rest = tuple(rng.randint(-(q - 1), q - 1) for _ in range(ell))
    return AltWord((head, *rest), "T" * ell)


@pytest.fixture(scope="session")
def rng() -> random.Random:
    return random.Random(20240811)
