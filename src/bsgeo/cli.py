"""Command-line interface.

Every pipeline stage is exposed as a subcommand; words are given in the
compact notation (e.g. "7t14T-2tt9T2T23").  Results go to stdout,
diagnostics to stderr.  Exit codes: 0 success, 1 parse error, verification
mismatch, refused table, t-run or ball, unwritable file, or any other
error (one ``error:`` line, no traceback), 2 unsupported case
(difficult core with p not dividing q) or usage error (an unknown, missing
or malformed option, a negative count included).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .britton import britton_reduce, classify, t_sequence
from .canonical import canonical_form, equal
from .divides import full_pnf, geodesic_length
from .errors import BSError, UnsupportedCase
from .horocyclic import int_llnf, llnf_horocyclic
from .oracle import all_words, ball, oracle_geolen, oracle_llnf, save_ball
from .words import (
    AltWord,
    GroupParams,
    parse_alt,
    render_word,
    to_alt,
    to_raw,
)

_JSON_KEYS = (
    "p",
    "q",
    "input",
    "britton",
    "t_sequence",
    "classification",
    "pnf",
    "llnf",
    "geodesic_length",
)


def _emit(args, fields: dict) -> None:
    if args.format == "json":
        obj = {key: fields.get(key) for key in _JSON_KEYS}
        obj["p"], obj["q"] = args.p, args.q
        obj["input"] = fields.get("input", "")
        print(json.dumps(obj))
    else:
        for line in fields.get("text", []):
            print(line)


def _word_arg(args) -> AltWord:
    return parse_alt(args.word)


def _render_text(args, w: AltWord, cls) -> str:
    if args.raw:
        return to_raw(w, args.max_expansion)
    return render_word(w)


# subcommand -> (transform of the input, its text line, whether the output
# also reports the transformed word and its classification)
_TRANSFORMS = {
    "britton": (britton_reduce, _render_text, True),
    "canonical": (canonical_form, _render_text, True),
    "tseq": (britton_reduce, lambda args, w, cls: w.theta, False),
    "classify": (britton_reduce, lambda args, w, cls: cls.describe(), True),
}


def cmd_transform(args, params) -> int:
    transform, text, described = _TRANSFORMS[args.command]
    w = transform(_word_arg(args), params)
    fields = {"input": args.word, "t_sequence": w.theta}
    cls = None
    if described:
        cls = classify(w, params)
        fields["britton"] = render_word(w)
        fields["classification"] = cls.describe()
    fields["text"] = [text(args, w, cls)]
    _emit(args, fields)
    return 0


def cmd_llnf(args, params) -> int:
    u = _word_arg(args)
    flat = llnf_horocyclic(u, params)
    notation = render_word(to_alt(flat))
    text = [flat] if args.raw else [notation, flat, str(len(flat))]
    _emit(
        args,
        {
            "input": args.word,
            "llnf": notation,
            "geodesic_length": len(flat),
            "text": text,
        },
    )
    return 0


def cmd_pnf(args, params) -> int:
    u = _word_arg(args)
    bp, flat, length = full_pnf(u, params)
    notation = render_word(to_alt(flat))
    text = [flat] if args.raw else [notation, flat, str(length)]
    _emit(
        args,
        {
            "input": args.word,
            "britton": render_word(bp.word),
            "t_sequence": bp.word.theta,
            "pnf": notation,
            "geodesic_length": length,
            "text": text,
        },
    )
    return 0


def cmd_geolen(args, params) -> int:
    u = _word_arg(args)
    length = geodesic_length(u, params)
    _emit(
        args,
        {"input": args.word, "geodesic_length": length, "text": [str(length)]},
    )
    return 0


def cmd_oracle(args, params) -> int:
    if args.oracle_cmd == "ball":
        index = ball(params, args.radius)
        if args.out:
            save_ball(index, args.out)
            print(f"wrote {len(index.table)} elements to {args.out}", file=sys.stderr)
        else:
            for key in sorted(index.table, key=lambda k: index.table[k]):
                n, word = index.table[key]
                print(f"{render_word(key)}\t{n}\t{word}")
        return 0

    # oracle check: sweep all words up to --wordlen against the ball
    words = all_words(args.wordlen, "--wordlen")
    index = ball(params, args.radius)
    total = 0
    skipped = 0
    for word in words:
        u = to_alt(word)
        want = oracle_geolen(u, index)
        try:
            got = geodesic_length(u, params)
        except UnsupportedCase:
            # open case (p not dividing q, difficult core): nothing to compare
            skipped += 1
            continue
        if got != want:
            print(f"MISMATCH {word!r}: geodesic_length={got}, oracle={want}", file=sys.stderr)
            return 1
        red = britton_reduce(u, params)
        if not red.theta:
            if int_llnf(red.alpha[0], params) != oracle_llnf(u, index):
                print(f"MISMATCH {word!r}: llnf differs from oracle", file=sys.stderr)
                return 1
        total += 1
    if skipped:
        print(f"skipped {skipped} open-case words", file=sys.stderr)
    print(f"OK (all {total} words)")
    return 0


def _random_word(rng: random.Random, maxlen: int) -> str:
    n = rng.randint(0, maxlen)
    return "".join(rng.choice("tTaA") for _ in range(n))


def _fuzz_failure(word: str, params: GroupParams, index) -> str | None:
    """Return a description when some invariant fails for the word."""
    u = to_alt(word)
    try:
        bp, flat, length = full_pnf(u, params)
    except UnsupportedCase:
        return None
    if not equal(u, to_alt(flat), params):
        return "pnf is not equivalent to the input"
    if t_sequence(to_alt(flat), params) != t_sequence(u, params):
        return "pnf changed the t-sequence"
    _, flat2, length2 = full_pnf(to_alt(flat), params)
    if flat2 != flat or length2 != length:
        return "pnf is not idempotent"
    if index is not None and length <= index.radius:
        if length != oracle_geolen(u, index):
            return "geodesic length differs from the oracle"
    return None


def _shrink(word: str, params, index) -> str:
    """Greedy shrink: halve coefficients and drop boundary symbol pairs."""
    u = to_alt(word)
    while True:
        better = None
        candidates = []
        if len(u.alpha) > 1:
            candidates.append(AltWord(u.alpha[1:], u.theta[1:]))
            candidates.append(AltWord(u.alpha[:-1], u.theta[:-1]))
        for i, a in enumerate(u.alpha):
            if a:
                alpha = list(u.alpha)
                alpha[i] = a // 2 if a > 0 else -((-a) // 2)
                candidates.append(AltWord(tuple(alpha), u.theta))
        for cand in candidates:
            raw = to_raw(cand, 10**6)
            if _fuzz_failure(raw, params, index) is not None:
                better = cand
                break
        if better is None:
            return to_raw(u, 10**6)
        u = better


def cmd_fuzz(args, params) -> int:
    rng = random.Random(args.seed)
    index = ball(params, args.radius) if args.radius else None
    for it in range(args.iterations):
        word = _random_word(rng, args.maxlen)
        reason = _fuzz_failure(word, params, index)
        if reason is not None:
            small = _shrink(word, params, index)
            print(f"FAIL seed={args.seed} iteration={it}: {reason}", file=sys.stderr)
            print(f"reproducer: {small!r}", file=sys.stderr)
            return 1
    print(f"OK ({args.iterations} iterations, seed {args.seed})")
    return 0


def _count(text: str) -> int:
    """argparse type of sizes and counts: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsgeo",
        description="Geodesic lengths and normal forms in Baumslag-Solitar groups BS(p, q).",
    )
    parser.add_argument("--p", type=int, required=True, help="parameter p (1 <= p < q)")
    parser.add_argument("--q", type=int, required=True, help="parameter q")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--raw", action="store_true", help="letter-only output")
    parser.add_argument(
        "--max-expansion",
        type=_count,
        default=10**6,
        help="letter limit of --raw britton and canonical output; llnf and pnf"
        " print geodesics, never longer than the input, in full",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = dict.fromkeys(_TRANSFORMS, cmd_transform)
    commands.update(llnf=cmd_llnf, pnf=cmd_pnf, geolen=cmd_geolen)
    for name, fn in commands.items():
        sp = sub.add_parser(name)
        sp.add_argument("word", help="input word in compact notation")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("oracle")
    sp.add_argument("oracle_cmd", choices=("ball", "check"))
    sp.add_argument("--radius", type=_count, default=6, help="ball radius")
    sp.add_argument("--wordlen", type=_count, default=4, help="sweep length for check")
    sp.add_argument("--out", help="write the ball index to this file")
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("fuzz")
    sp.add_argument("--iterations", type=_count, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--maxlen", type=_count, default=12)
    sp.add_argument("--radius", type=_count, default=0, help="oracle radius (0: no oracle)")
    sp.set_defaults(fn=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = GroupParams(args.p, args.q)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # coefficients are arbitrary-precision: lift the interpreter's cap on
    # int/str conversion (4300 digits by default) for this call only
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args, params)
    except UnsupportedCase as exc:
        print(f"unsupported case: {exc}", file=sys.stderr)
        return 2
    except BSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # t-runs are bounded, but a valid word can still outgrow memory
        print("error: out of memory", file=sys.stderr)
        return 1
    except OSError as exc:
        # e.g. oracle ball --out into a missing directory
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # any other failure is a bug, but still one line and exit 1, never a traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
