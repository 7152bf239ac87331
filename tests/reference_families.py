"""The valley parse tree and the rope-comparing families, a test reference for ``divides``.

``valley_parse`` builds the grammar's parse tree that ``divides._root_family``
folds in one stack pass without building it.  ``reference_families`` runs
over that tree.  Every candidate word is a ``_Rope`` node.  The least one per shift rho is
found by comparing ropes directly: norm first, then ``_u1_cmp``, the symbol
order of the pre-peak parts through the ranks of the child ropes.  A node's
winners are then ranked by a ``cmp_to_key`` sort.  It allocates a rope and
compares symbol keys for every candidate, but it orders words by their
symbols, so it checks the rank DP's integer keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

from bsgeo import AltWord, InternalError, NotAValley, alt_from_symbols, make_britton_pnf
from bsgeo.divides import _rope_symbols, to_standard_valley
from bsgeo.horocyclic import int_norm, residues_mod
from bsgeo.words import _is_valley, sym_key


@dataclass
class ValleyNode:
    """One production of the valley grammar.

    kind 'leaf' carries an integer value; kind 'arc' is
    alpha T <child> beta t; kind 'cat' concatenates two valleys.  ``sinks``
    follows the grammar recursion: 1 for leaves, the child's count for
    arcs, and the sum for concatenations.
    """

    kind: str
    value: int = 0
    alpha: int = 0
    beta: int = 0
    child: int = -1
    left: int = -1
    right: int = -1
    sinks: int = 1


@dataclass
class ValleyTree:
    """Flat parse tree; children always precede their parents in ``nodes``."""

    nodes: list[ValleyNode]
    root: int

    def reassemble(self) -> AltWord:
        """The valley word spelled by the tree (inverse of valley_parse)."""
        ropes: list[tuple] = []
        for node in self.nodes:
            ropes.append(_node_view(node, ropes))
        return alt_from_symbols(_rope_symbols(ropes[self.root]))


def _node_view(node: ValleyNode, ropes: list[tuple]) -> tuple:
    """The node as a ``divides`` rope, given the ropes of the nodes before it."""
    if node.kind == "leaf":
        return ("leaf", node.value)
    if node.kind == "arc":
        return ("arc", node.alpha, ropes[node.child], node.beta)
    return ("cat", ropes[node.left], ropes[node.right])


def valley_parse(v: AltWord) -> ValleyTree:
    """Deterministic parse of a valley along the grammar.

    The word is split at its returns to height zero; every T...t arc takes
    the coefficient in front of its T as alpha and the coefficient before
    its t as beta (the interior keeps a zero there), and a nonzero trailing
    coefficient becomes a final leaf.  Concatenations fold to the left.
    """
    if not _is_valley(v):
        raise NotAValley(f"height profile of {v} leaves [min..0] or ends above 0")
    nodes: list[ValleyNode] = []

    def fold(ids: list[int]) -> int:
        cur = ids[0]
        for nid in ids[1:]:
            nodes.append(
                ValleyNode(
                    "cat",
                    left=cur,
                    right=nid,
                    sinks=nodes[cur].sinks + nodes[nid].sinks,
                )
            )
            cur = len(nodes) - 1
        return cur

    sib_stack: list[list[int]] = [[]]
    alpha_stack: list[int] = []
    pending = v.alpha[0]
    for i, th in enumerate(v.theta):
        nxt = v.alpha[i + 1]
        if th == "T":
            alpha_stack.append(pending)
            sib_stack.append([])
            pending = nxt
        else:
            sibs = sib_stack.pop()
            if sibs:
                interior = fold(sibs)
            else:
                nodes.append(ValleyNode("leaf", value=0))
                interior = len(nodes) - 1
            nodes.append(
                ValleyNode(
                    "arc",
                    alpha=alpha_stack.pop(),
                    beta=pending,
                    child=interior,
                    sinks=nodes[interior].sinks,
                )
            )
            sib_stack[-1].append(len(nodes) - 1)
            pending = nxt
    top = sib_stack.pop()
    if sib_stack or alpha_stack:
        raise InternalError("unbalanced valley")
    if pending != 0 or not top:
        nodes.append(ValleyNode("leaf", value=pending))
        top.append(len(nodes) - 1)
    return ValleyTree(nodes, fold(top))


class _Rope:
    """Structure-sharing family word; ``rank`` orders words within a node.

    ``tup`` is the same word as a ``divides`` rope, for spelling.
    """

    __slots__ = ("kind", "a", "b", "c", "norm", "rank", "tup")

    def __init__(self, kind, a=None, b=None, c=None, norm=0):
        self.kind = kind
        self.a = a
        self.b = b
        self.c = c
        self.norm = norm
        self.rank = 0
        if kind == "leaf":
            self.tup = ("leaf", 0)
        elif kind == "arc":
            self.tup = ("arc", a, b.tup, c)
        else:
            self.tup = ("cat", a.tup, b.tup)


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


def reference_valley_family(V, params) -> dict:
    """rho -> (V_rho, norm) of a standard valley, by the rope families."""
    tree = valley_parse(V)
    fams, _ = reference_families(tree, params)
    return {
        rho: (alt_from_symbols(_rope_symbols(rope.tup)), rope.norm)
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
    syms = _rope_symbols(rope.tup)
    syms[-1] += rho + gamma
    return make_britton_pnf(alt_from_symbols(syms), params)
