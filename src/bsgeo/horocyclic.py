"""Length-lexicographic normal forms and geodesic lengths of integers.

For a horocyclic word w ~ a^alpha the normal form llnf(w) is computed in two
phases.  A greedy phase repeatedly splits alpha = q*mu + beta (remainder
taken in [0, q) for alpha >= 0 and in (-q, 0] otherwise) while the running
value has magnitude at least 2q, producing

    w  ~  t^ell  beta_0 T beta_1 ... T beta_ell

with |beta_i| < q for i != 0 and |beta_0| < 2q.  A dynamic program then
finds the normal form of the remaining slope (a word using only T between
coefficients).  With

    u(i, gamma) = beta_0 T ... beta_{i-1} T gamma

each column stores llnf(u(i, rho)) for all |rho| <= r, where r is the least
positive integer with r >= p*(r+q-1)/q + q - 1; the recurrence

    llnf(u(i+1, rho)) = min { llnf(u(i, mu*p + beta_i)) T gamma :
                              rho = mu*q + gamma, |gamma| < q }

starts from llnf(rho) for |rho| <= r + q.  That integer table
(``base_table``) is the same DP run on the zero slope 0 T 0 ... T 0, with
the same ``_step`` per level, so every integer's llnf comes from one
recurrence and one implementation of it.

Three implementations of this DP agree letter for letter:

* the rank DP that production uses (``base_table``, and ``slope_llnf`` for
  ``int_llnf`` and every flattened pnf).  A cell is a row's (word
  length, lexicographic rank of the word within the column), with a
  back-pointer (previous row, trailing gamma); words are spelled once, at
  the end.  Ranks suffice because the words are prefix-free as token
  sequences.  Cut a word before every t and T: each piece, a token, is a
  letter plus an a-run, and the order of words with t < T < a < A is that
  of their token sequences, with runs ordered 0 < 1 < ... < -1 < -2 < ...
  No two unary or staircase words (t^j a0 T a1 ... T aj) are token prefixes
  of each other, and a column appends one token T a^gamma, which keeps that
  true.  So equal-length candidates compare as (predecessor rank, run of
  gamma), and one sort of such pairs ranks the next column.  That step,
  ``_step``, reads a token table gamma -> (cost, key) of the token gamma
  appends, here (1 + |gamma|, run of gamma); the flank levels of ``pnf``
  run on it with a table of their own, and ``_path`` walks back for both.
  ``slope_llnf`` touches only the backward cone of its answer, the rows
  that the row of the last coefficient reads column by column, so a
  column costs O(w log w) for a cone width w <= 2r + 1 (on random slopes
  w <= 13 of 601 rows in BS(12,13)), and llnf(a^alpha) takes time linear
  in the bit length of alpha after the greedy phase.
* ``slope_dp_table``, the quadratic reference: every column stores and
  compares whole words (``_column_step``) for every |rho| <= r.
* ``slope_dp_optimized``, the paper's constant-memory matrix variant: it
  keeps only suffixes (all hidden prefixes share a common length) plus the
  lexicographic order of the hidden prefixes, and emits one matrix column
  per round: the freshly cut fragment and a back-reference to the
  predecessor row.  ``reconstruct_from_matrix`` follows the
  back-references from any cell to the full normal form.

Norms: ||alpha|| = len(int_llnf(alpha)) and ||u|| = k + sum ||alpha_i||.
Integers within the integer table read their norm from it
(``_base_lengths``); ``int_norm`` counts the others without spelling a
word: the ll order compares lengths first, so the forward pass over the
same cone (``_cone``) can keep only each row's least length
(``_cone_lengths``), with no ranks, back-pointers or sort.
``_shifted_norms`` serves the shifted integer cores x + s of the flank
peel from one such cone, and ``int_norm`` is it at the one shift 0.

``base_table`` is cached per parameter pair; all functions are pure after
that, so safe under threads, but the one process-wide ``stats.ops`` count
mixes calls.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from . import stats
from .britton import britton_reduce
from .errors import InternalError, LimitExceeded, NotHorocyclic, PreconditionError
from .words import _LL_RANK, AltWord, GroupParams, _run, ll_key, to_alt

__all__ = [
    "r_llnf",
    "base_table",
    "greedy_slope",
    "slope_llnf",
    "slope_dp_table",
    "slope_dp_optimized",
    "reconstruct_from_matrix",
    "int_llnf",
    "int_norm",
    "norm",
    "llnf_horocyclic",
    "llnf_shape_ok",
    "residues_mod",
]


@lru_cache(maxsize=None)
def r_llnf(params: GroupParams) -> int:
    """Least positive r with r >= p*(r+q-1)/q + q-1 (the slope DP radius)."""
    p, q = params.p, params.q
    num = (q - 1) * (p + q)
    den = q - p
    return max(1, -(-num // den))


def residues_mod(x: int, m: int) -> tuple[int, ...]:
    """All gamma with |gamma| < m and gamma == x (mod m): one or two values."""
    g = x % m
    return (g, g - m) if g else (0,)


# the widest integer table ``base_table`` builds before raising LimitExceeded
MAX_TABLE_RADIUS = 500


@lru_cache(maxsize=None)
def base_table(params: GroupParams) -> dict[int, str]:
    """llnf(rho) for small integers, |rho| <= r_llnf(params) + 2q - 1.

    The slope DP looks up |rho| <= r + q; the wider table also covers every
    |rho| < 2q.  An llnf that uses t is a staircase t^j a0 T a1 ... T aj:
    t^j and a word of the zero slope 0 T ... T 0.  So column 0 holds the
    unary words, column j is one ``_step`` (beta = 0) of column j - 1 over
    every row, and each row keeps the least (j + length, -j), as t is the
    least letter; per-column minima are exact because shortlex forms are
    prefix-closed.  Tests pin it to a staircase search and to the string DP
    (``tests/reference_base_table.py``).  Levels stop once j + 2 + the
    shortest word of column j exceeds the longest kept entry, as no later
    level is shorter (BS(1,100) runs 27 of its 150 levels).  Tables wider
    than ``MAX_TABLE_RADIUS`` raise ``LimitExceeded`` at once.
    """
    bound = r_llnf(params) + 2 * params.q - 1
    if bound > MAX_TABLE_RADIUS:
        raise LimitExceeded(
            f"the integer table of BS({params.p},{params.q}) has radius {bound}"
            f" > {MAX_TABLE_RADIUS}"
        )
    unary = {rho: _run(rho) for rho in range(-bound, bound + 1)}
    p, q = params.p, params.q
    cands = {rho: _dp_candidates(0, rho, p, q, bound) for rho in unary}
    col, tokens = _ranked(unary, unary), _slope_tokens(q)
    best = {rho: (len(word), 0) for rho, word in unary.items()}  # (j + length, -j)
    backs = []
    # for j > bound // 2, t^j T^j alone is longer than every unary word
    for j in range(1, bound // 2 + 1):
        col, back = _step(col, cands, tokens)
        backs.append(back)
        for rho, (n, _) in col.items():
            best[rho] = min(best[rho], (j + n, -j))
        if j + 2 + min(n for n, _ in col.values()) > max(best.values())[0]:
            break
    return {
        rho: "t" * -neg_j + _spell(unary, backs[:-neg_j], rho)
        for rho, (_, neg_j) in best.items()
    }


def greedy_slope(alpha: int, params: GroupParams) -> tuple[int, AltWord]:
    """Split off leading t's: llnf(a^alpha) = t^ell * llnf(slope).

    Repeatedly divides by q while the running value has magnitude >= 2q,
    keeping remainders in [0, q) for non-negative values and in (-q, 0]
    for negative ones.  The returned slope beta_0 T ... T beta_ell satisfies
    |beta_i| < q for i != 0 and |beta_0| < 2q, and ell is Theta(log|alpha|).
    """
    q, p = params.q, params.p
    rems: list[int] = []
    cur = alpha
    while abs(cur) >= 2 * q:
        stats.ops.tick()
        if cur >= 0:
            mu, beta = divmod(cur, q)
        else:
            beta = -((-cur) % q)
            mu = (cur - beta) // q
        rems.append(beta)
        cur = mu * p
    coeffs = (cur, *reversed(rems))
    return len(rems), AltWord(coeffs, "T" * len(rems))


def _check_slope(s: AltWord, params: GroupParams) -> None:
    if s.theta.strip("T"):
        raise PreconditionError("a slope uses only T between coefficients")
    q = params.q
    if abs(s.alpha[0]) >= 2 * q:
        raise PreconditionError(f"slope head {s.alpha[0]} must satisfy |.| < 2q")
    for c in s.alpha[1:]:
        if abs(c) >= q:
            raise PreconditionError(f"slope coefficient {c} must satisfy |.| < q")


def _dp_candidates(
    beta_i: int, rho: int, p: int, q: int, prev_bound: int
) -> list[tuple[int, int]]:
    """(previous rho, trailing gamma) pairs feeding llnf(u(i+1, rho)) in BS(p, q)."""
    out = []
    for gamma in residues_mod(rho, q):
        mu = (rho - gamma) // q
        prev = mu * p + beta_i
        if abs(prev) <= prev_bound:
            out.append((prev, gamma))
    if not 1 <= len(out) <= 2:
        raise InternalError(f"row {rho} of the DP has {len(out)} candidates")
    return out


def _column_step(
    prev: dict[int, str], beta: int, rows: range, params: GroupParams, prev_bound: int
) -> dict[int, str]:
    """One string DP column: row rho holds the ll-least prev[x] T a^gamma."""
    p, q = params.p, params.q
    col = {}
    for rho in rows:
        cands = []
        for x, gamma in _dp_candidates(beta, rho, p, q, prev_bound):
            stats.ops.tick()
            cands.append(prev[x] + "T" + _run(gamma))
        col[rho] = min(cands, key=ll_key)
    return col


def slope_dp_table(s: AltWord, params: GroupParams) -> list[dict[int, str]]:
    """Baseline DP: column i holds llnf(u(i, rho)) for every |rho| <= r.

    Column 0 (the llnf table of small integers) is not included; use
    ``base_table``.  Requires a slope satisfying the greedy output bounds.
    """
    _check_slope(s, params)
    r, q = r_llnf(params), params.q
    rows = range(-r, r + 1)
    cols: list[dict[int, str]] = []
    cur = base_table(params)
    for i, beta in enumerate(s.alpha[:-1]):
        cur = _column_step(cur, beta, rows, params, r if i else r + q)
        cols.append(cur)
    return cols


def slope_llnf(s: AltWord, params: GroupParams) -> str:
    """The length-lexicographic normal form of a slope, as a letter word.

    ``_cone`` collects the rows that the row of the last coefficient reads,
    column by column.  A forward pass runs one ``_step`` per coefficient
    but the last over those rows, from their ``base_table`` words, and one
    ``_spell`` follows the back-pointers.  ``_cone_lengths`` is the same
    forward pass for lengths only.
    """
    _check_slope(s, params)
    if not s.theta:
        return base_table(params)[s.alpha[0]]
    cone, rows = _cone(s, (s.alpha[-1],), params)
    base, tokens = base_table(params), _slope_tokens(params.q)
    col, backs = _ranked(base, rows), []
    while cone:
        col, back = _step(col, cone.pop(), tokens)
        backs.append(back)
    return _spell(base, backs, s.alpha[-1])


def _cone(s: AltWord, rows, params: GroupParams) -> tuple[list[dict], set[int]]:
    """The backward cone of ``rows`` of the last column of the slope ``s``.

    Returns, last column first, each column's row -> (previous row, gamma)
    candidates over the rows that ``rows`` read, and the rows of column 0
    that the cone starts from.
    """
    r, p, q = r_llnf(params), params.p, params.q
    cone = []
    for i in range(len(s.theta) - 1, -1, -1):
        beta, bound = s.alpha[i], (r if i else r + q)
        cone.append({rho: _dp_candidates(beta, rho, p, q, bound) for rho in rows})
        rows = {x for pairs in cone[-1].values() for x, _ in pairs}
    return cone, rows


def _cone_lengths(cone: list[dict], rows, params: GroupParams) -> dict[int, int]:
    """The forward pass of ``_cone``'s output for lengths only: row -> least length.

    The ll order compares lengths first, so each row's least
    length + 1 + |gamma| over its candidates is the length of its llnf, and
    no ranks, back-pointers or sort are needed.  Pops ``cone`` empty.
    """
    base = _base_lengths(params)
    col, n_cands = {rho: base[rho] for rho in rows}, 0
    while cone:
        nxt = {}
        for rho, pairs in cone.pop().items():
            n_cands += len(pairs)
            x, g = pairs[0]
            n = col[x] + abs(g)
            if len(pairs) > 1:
                x, g = pairs[1]
                n = min(n, col[x] + abs(g))
            nxt[rho] = n + 1
        col = nxt
    stats.ops.tick(n_cands)
    return col


@lru_cache(maxsize=None)
def _base_lengths(params: GroupParams) -> dict[int, int]:
    """||rho|| for every row of ``base_table``."""
    return {rho: len(w) for rho, w in base_table(params).items()}


def _ranked(words: dict[int, str], rows) -> dict[int, tuple[int, int]]:
    """A first column: each row's (word length, rank of its word in letter order)."""
    order = sorted(rows, key=lambda rho: words[rho].translate(_LL_RANK))
    return {rho: (len(words[rho]), rank) for rank, rho in enumerate(order)}


@lru_cache(maxsize=None)
def _slope_tokens(q: int) -> dict[int, tuple[int, int]]:
    """gamma -> (letters of T a^gamma, key ordering runs 0 < 1 < ... < q-1 < -1 < ...)."""
    return {g: (1 + abs(g), g if g >= 0 else q - g) for g in range(1 - q, q)}


def _step(col: dict, cands: dict, tokens: dict) -> tuple[dict, dict]:
    """One rank-DP level: each row's (length, rank), and its (prev, gamma).

    A row takes its least candidate (prev, gamma) by (length + cost,
    predecessor rank, key), with gamma's (cost, key) from ``tokens``.  Keys
    order tokens as the words do, so (predecessor rank, key) orders the
    words of the new level, and sorting the rows by it ranks them.
    """
    cells, n_cands = [], 0
    for rho, pairs in cands.items():
        n_cands += len(pairs)
        best = None
        for x, g in pairs:
            length, rank = col[x]
            cost, key = tokens[g]
            cell = (length + cost, rank, key, x, g, rho)
            if best is None or cell < best:
                best = cell
        cells.append(best)
    stats.ops.tick(n_cands)
    cells.sort(key=itemgetter(1, 2))
    ranked, back = {}, {}
    for rank, cell in enumerate(cells):
        ranked[cell[5]] = (cell[0], rank)
        back[cell[5]] = cell[3:5]
    return ranked, back


def _path(backs: list[dict], row) -> tuple[object, list[int]]:
    """A last-level row's first-level row, and the gammas of its path in order."""
    gammas = []
    for back in reversed(backs):
        row, gamma = back[row]
        gammas.append(gamma)
    return row, gammas[::-1]


def _spell(words: dict[int, str], backs: list[dict], row: int) -> str:
    """A last-column row's word: its column-0 word, then each T a^gamma of ``backs``."""
    first, gammas = _path(backs, row)
    return words[first] + "".join("T" + _run(g) for g in gammas)


Matrix = list[dict[int, tuple[str, int | None]]]


def slope_dp_optimized(s: AltWord, params: GroupParams) -> Matrix:
    """Constant-memory DP emitting one matrix column per round.

    Between rounds only the suffixes behind a shared cut point and the
    lexicographic order of the hidden prefixes survive.  Each emitted cell
    holds the letters newly cut in that round (the whole remaining suffix in
    the final round) and the row index of the predecessor column, None in
    the first column.  ``reconstruct_from_matrix`` reads a normal form back
    off the matrix.
    """
    _check_slope(s, params)
    if not s.theta:
        return []
    r, p, q = r_llnf(params), params.p, params.q
    rows = range(-r, r + 1)
    ell = len(s.theta)
    matrix: Matrix = []

    # round 1 from the integer table
    words = _column_step(base_table(params), s.alpha[0], rows, params, r + q)
    if ell == 1:
        matrix.append({rho: (words[rho], None) for rho in rows})
        return matrix
    cut = min(len(w) for w in words.values())
    matrix.append({rho: (words[rho][:cut], None) for rho in rows})
    suffixes = {rho: words[rho][cut:] for rho in rows}
    ranks = _rank_by({rho: words[rho][:cut] for rho in rows})

    for i in range(1, ell):
        beta_i = s.alpha[i]
        rel: dict[int, str] = {}
        pred: dict[int, int] = {}
        for rho in rows:
            best_key = None
            for prev, gamma in _dp_candidates(beta_i, rho, p, q, r):
                stats.ops.tick()
                cand = suffixes[prev] + "T" + _run(gamma)
                key = (len(cand), ranks[prev], cand.translate(_LL_RANK))
                if best_key is None or key < best_key:
                    best_key = key
                    rel[rho] = cand
                    pred[rho] = prev
        if i == ell - 1:
            matrix.append({rho: (rel[rho], pred[rho]) for rho in rows})
            return matrix
        step = min(len(w) for w in rel.values())
        matrix.append({rho: (rel[rho][:step], pred[rho]) for rho in rows})
        ranks = _rank_by({rho: (ranks[pred[rho]], rel[rho][:step]) for rho in rows})
        suffixes = {rho: rel[rho][step:] for rho in rows}
    return matrix


def _rank_by(keys: dict[int, object]) -> dict[int, int]:
    """Dense ranks; equal keys (equal hidden prefixes) share a rank."""
    order = {}
    for i, key in enumerate(sorted(set(_norm_key(v) for v in keys.values()))):
        order[key] = i
    return {rho: order[_norm_key(v)] for rho, v in keys.items()}


def _norm_key(v):
    if isinstance(v, str):
        return (v.translate(_LL_RANK),)
    rank, frag = v
    return (rank, frag.translate(_LL_RANK))


def reconstruct_from_matrix(matrix: Matrix, rho: int) -> str:
    """Concatenate fragments along the back-references ending at (rho, last)."""
    parts: list[str] = []
    at: int | None = rho
    for col in reversed(matrix):
        frag, prev = col[at]
        parts.append(frag)
        at = prev
    return "".join(reversed(parts))


@lru_cache(maxsize=1 << 10)
def int_llnf(alpha: int, params: GroupParams) -> str:
    """llnf(a^alpha) as a letter word: t^ell followed by a slope normal form."""
    ell, slope = greedy_slope(alpha, params)
    return "t" * ell + slope_llnf(slope, params)


_int_llnf_cached = int_llnf  # the name the benchmark clears the cache by


@lru_cache(maxsize=1 << 10)
def int_norm(alpha: int, params: GroupParams) -> int:
    """The geodesic length ||alpha|| of the integer alpha, from lengths only."""
    return _shifted_norms(alpha, (0,), params)[0]


def _greedy_len(alpha: int, params: GroupParams) -> int:
    """The ell of ``greedy_slope(alpha)``, with no slope built.

    For either sign a greedy step maps |cur| to p * floor(|cur| / q), so
    the magnitude alone gives the step count.
    """
    p, q = params.p, params.q
    m, ell = abs(alpha), 0
    while m >= 2 * q:
        m = m // q * p
        ell += 1
    return ell


def _shifted_norms(x: int, shifts, params: GroupParams) -> dict[int, int]:
    """s -> ||x + s|| for each shift s, most of them from one shared cone.

    Let greedy_slope(x) = (ell, beta_0 T ... T beta_ell).  Then
    a^(x+s) = t^ell u(ell, beta_ell + s), so when |beta_ell + s| <= r the
    row beta_ell + s of the slope DP of x spells a word of a^(x+s), and
    when ``greedy_slope(x + s)`` also splits off ell t's, llnf(a^(x+s)) is
    t^ell followed by the llnf of that same element, so ||x + s|| is ell
    plus that row's length.  One ``_cone`` seeded with all such rows and
    one ``_cone_lengths`` pass give them all.  A shifted core within the
    integer table reads its length there, and every other shift falls back
    to ``int_norm``.  At s = 0 there is no fallback, as |x| < 2q lies in
    the table and otherwise |beta_ell| < q <= r, so ``int_norm`` (this
    function at the shift 0) never recurses.  The tests compare every shift
    |s| <= 2r with len(int_llnf(x + s)), also for x next to the magnitudes
    where ell grows.
    """
    ell, slope = greedy_slope(x, params)
    last, r, base = slope.alpha[-1], r_llnf(params), _base_lengths(params)
    out, rows = {}, {}
    for s in shifts:
        if x + s in base:
            out[s] = base[x + s]
        elif ell and abs(last + s) <= r and (not s or _greedy_len(x + s, params) == ell):
            rows[last + s] = s
        else:
            out[s] = int_norm(x + s, params)
    if rows:
        cone, first = _cone(slope, rows, params)
        lengths = _cone_lengths(cone, first, params)
        for row, s in rows.items():
            out[s] = ell + lengths[row]
    return out


def norm(u: AltWord, params: GroupParams) -> int:
    """||u|| = k + sum ||alpha_i||; an upper bound for the geodesic length."""
    base = _base_lengths(params)
    n = len(u.theta)
    for a in u.alpha:
        m = base.get(a)
        n += int_norm(a, params) if m is None else m
    return n


def llnf_horocyclic(w: AltWord, params: GroupParams) -> str:
    """llnf of a horocyclic word; raises NotHorocyclic otherwise."""
    red = britton_reduce(w, params)
    if red.theta:
        raise NotHorocyclic(f"t-sequence {red.theta!r} is nonempty")
    return int_llnf(red.alpha[0], params)


def llnf_shape_ok(word: str, alpha: int, params: GroupParams) -> bool:
    """Shape predicate for llnf outputs of integers.

    A valid output is either a plain a/A run of magnitude < 2q, or
    t^k beta T a_1 ... T a_k with matching t/T counts, |a_i| < q,
    a_k == alpha (mod q), |beta| < 2q, and p dividing beta when k > 0.
    """
    p, q = params.p, params.q
    u = to_alt(word)
    k2 = len(u.theta)
    if k2 == 0:
        return u.alpha[0] == alpha and abs(alpha) < 2 * q
    if k2 % 2:
        return False
    k = k2 // 2
    if u.theta != "t" * k + "T" * k:
        return False
    if any(u.alpha[i] != 0 for i in range(k)):
        return False
    beta = u.alpha[k]
    tail = u.alpha[k + 1 :]
    if abs(beta) >= 2 * q or beta % p:
        return False
    if any(abs(c) >= q for c in tail):
        return False
    return (tail[-1] - alpha) % q == 0
