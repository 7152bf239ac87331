"""The rope-comparing valley families, kept as a test reference for ``divides._families``.

Every candidate word is a ``_Rope`` node.  The least one per shift rho is
found by comparing ropes directly: norm first, then ``_u1_cmp``, the symbol
order of the pre-peak parts through the ranks of the child ropes.  A node's
winners are then ranked by a ``cmp_to_key`` sort.  It allocates a rope and
compares symbol keys for every candidate, but it orders words by their
symbols, so it checks the rank DP's integer keys.
"""

from __future__ import annotations

from functools import cmp_to_key

from bsgeo import AltWord, alt_from_symbols, make_britton_pnf
from bsgeo.divides import _walk_symbols, to_standard_valley, valley_parse
from bsgeo.horocyclic import int_norm, residues_mod
from bsgeo.words import sym_key


class _Rope:
    """Structure-sharing family word; ``rank`` orders words within a node."""

    __slots__ = ("kind", "a", "b", "c", "norm", "rank")

    def __init__(self, kind, a=None, b=None, c=None, norm=0):
        self.kind = kind
        self.a = a
        self.b = b
        self.c = c
        self.norm = norm
        self.rank = 0


_EMPTY = _Rope("leaf")


def _u1_cmp(x: _Rope, y: _Rope) -> int:
    """Symbol order of the pre-peak parts; O(1) through child ranks."""
    if x is y:
        return 0
    if x.kind == "arc":
        if x.a != y.a:
            return -1 if sym_key(x.a) < sym_key(y.a) else 1
        if x.b is not y.b:
            return -1 if x.b.rank < y.b.rank else 1
        if x.c != y.c:
            return -1 if sym_key(x.c) < sym_key(y.c) else 1
        return 0
    if x.kind == "cat":
        if x.a is not y.a:
            return -1 if x.a.rank < y.a.rank else 1
        if x.b is not y.b:
            return -1 if x.b.rank < y.b.rank else 1
        return 0
    return 0


def _rope_less(x: _Rope, y: _Rope) -> bool:
    if x.norm != y.norm:
        return x.norm < y.norm
    return _u1_cmp(x, y) < 0


def _eps_options(alpha: int, p: int) -> tuple[int, ...]:
    return tuple(e for e in (-1, 0, 1) if abs(alpha - e * p) < p)


def reference_families(tree, params) -> tuple[list[dict[int, _Rope]], int]:
    """Per node the map rho -> least rope, ranked per node; and the candidate count."""
    p, q = params.p, params.q
    fams: list[dict[int, _Rope]] = []
    n_cands = 0
    for node in tree.nodes:
        if node.kind == "leaf":
            fam: dict[int, _Rope] = {0: _EMPTY}
        elif node.kind == "arc":
            fam = {}
            for sigma, crope in fams[node.child].items():
                for eps in _eps_options(node.alpha, p):
                    ap2 = node.alpha - eps * p
                    x = sigma + eps * q + node.beta
                    for b2 in residues_mod(x, q):
                        n_cands += 1
                        rho = ((x - b2) // q) * p
                        cand = _Rope(
                            "arc",
                            ap2,
                            crope,
                            b2,
                            crope.norm + int_norm(ap2, params) + int_norm(b2, params) + 2,
                        )
                        cur = fam.get(rho)
                        if cur is None or _rope_less(cand, cur):
                            fam[rho] = cand
        else:
            fam = {}
            for sigma, lrope in fams[node.left].items():
                for tau, rrope in fams[node.right].items():
                    n_cands += 1
                    rho = sigma + tau
                    cand = _Rope("cat", lrope, rrope, None, lrope.norm + rrope.norm)
                    cur = fam.get(rho)
                    if cur is None or _rope_less(cand, cur):
                        fam[rho] = cand
        if len(fam) > 1:
            for rank, rope in enumerate(sorted(fam.values(), key=cmp_to_key(_u1_cmp))):
                rope.rank = rank
        fams.append(fam)
    return fams, n_cands


def _rope_view(rope: _Rope) -> tuple:
    if rope.kind == "leaf":
        return ("leaf", 0)
    if rope.kind == "arc":
        return ("arc", rope.a, rope.b, rope.c)
    return ("cat", rope.a, rope.b)


def reference_valley_family(V, params) -> dict:
    """rho -> (V_rho, norm) of a standard valley, by the rope families."""
    tree = valley_parse(V)
    fams, _ = reference_families(tree, params)
    return {
        rho: (alt_from_symbols(_walk_symbols(rope, _rope_view)), rope.norm)
        for rho, rope in fams[tree.root].items()
    }


def reference_valley_pnf(v, params):
    """The Britton peak normal form of a valley, by the rope families."""
    V, gamma = to_standard_valley(v, params)
    if not V.theta:
        return make_britton_pnf(AltWord((gamma,)), params)
    tree = valley_parse(V)
    fams, _ = reference_families(tree, params)
    best = None
    for rho, rope in fams[tree.root].items():
        key = (rope.norm + int_norm(rho + gamma, params), rope.rank)
        if best is None or key < best[0]:
            best = (key, rho, rope)
    _, rho, rope = best
    syms = _walk_symbols(rope, _rope_view)
    syms[-1] += rho + gamma
    return make_britton_pnf(alt_from_symbols(syms), params)
