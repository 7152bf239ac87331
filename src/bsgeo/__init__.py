"""Geodesic lengths and normal forms in Baumslag-Solitar groups BS(p, q).

The group BS(p, q) = <a, t | t a^p t^-1 = a^q> with 1 <= p < q.  The package
computes, for arbitrary input words over {t, T, a, A}:

* Britton reductions, t-sequences, and structural classes,
* canonical (irreducible) forms deciding the word problem,
* length-lexicographic normal forms and geodesic lengths of horocyclic
  elements: a greedy split plus a linear-time rank DP over (length, rank)
  cells of only the rows that reach the answer (``slope_llnf``), checked
  against the quadratic whole-word reference DP (``slope_dp_table``) and
  the paper's constant-memory variant emitting a back-referenced matrix
  (``slope_dp_optimized``),
* peak normal forms: for hills with any parameters, and for every element
  when p divides q,
* a brute-force Cayley-ball oracle for validation (``bsgeo.oracle``).

The value types (``GroupParams``, ``AltWord``, ``Classification``,
``Decomposition``, ``BrittonPnf``) are immutable named tuples, which iterate
and compare equal like the plain tuple of their fields.  The oracle loads on
first use: ``import bsgeo`` does not load it, and ``bsgeo.oracle``,
``bsgeo.ball`` and the other oracle names import it when first looked up;
the names resolve to the ``bsgeo.oracle`` objects on every access.
"""

import importlib

from .britton import (
    Classification,
    Decomposition,
    britton_reduce,
    classify,
    decompose,
    is_britton_reduced,
    t_sequence,
)
from .canonical import canonical_form, equal
from .divides import (
    difficult_pnf,
    full_pnf,
    geodesic_length,
    is_standard_valley,
    pi_residues,
    r_valley,
    range_of,
    to_standard_valley,
    valley_family,
    valley_pnf,
)
from .errors import (
    BSError,
    ExpansionLimit,
    InternalError,
    LimitExceeded,
    NotAHill,
    NotAValley,
    NotDifficult,
    NotHorocyclic,
    OutOfBall,
    ParseError,
    PreconditionError,
    RequiresDivides,
    UnsupportedCase,
)
from .horocyclic import (
    base_table,
    greedy_slope,
    int_llnf,
    int_norm,
    llnf_horocyclic,
    llnf_shape_ok,
    norm,
    r_llnf,
    reconstruct_from_matrix,
    slope_dp_optimized,
    slope_dp_table,
    slope_llnf,
)
from .pnf import BrittonPnf, flatten_pnf, hill_pnf, make_britton_pnf
from .words import (
    AltWord,
    GroupParams,
    alt_concat,
    alt_from_int,
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

__version__ = "0.1.0"

_ORACLE_NAMES = {
    "BallIndex",
    "ball",
    "load_ball",
    "oracle_britton_pnf",
    "oracle_geolen",
    "oracle_llnf",
    "save_ball",
}


def __getattr__(name: str):
    # looked up on every access and never stored here, so a function swapped
    # in the oracle's namespace (by a tracer, say) is what callers get
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
