"""Self-tests of the benchmark itself.

Run from the repository root:

    python3 bench/selftest.py                  # all checks, about half a minute
    python3 bench/selftest.py --write-digests  # recompute bench/digests.json

Checks that the input streams are deterministic per seed, that every metric
name is well formed and listed in BENCHMARK.json, that the first block of
the default seed reproduces the committed output digest, and that the output
checks reject an output with a single corrupted letter.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_FLIP = str.maketrans("aAtT", "AaTt")


def _key(item):
    return (item.params, item.word, item.cls, item.size, item.kind)


def check_deterministic() -> None:
    for name in workloads.WORKLOADS:
        a = workloads.make(name).stream(7)
        b = workloads.make(name).stream(7)
        c = workloads.make(name).stream(8)
        first_a, first_b, first_c = next(a), next(b), next(c)
        assert [_key(i) for i in first_a] == [_key(i) for i in first_b], name
        assert [_key(i) for i in next(a)] == [_key(i) for i in next(b)], name
        assert [_key(i) for i in first_a] != [_key(i) for i in first_c], name
    print("ok  generators are deterministic per seed")


def check_metric_names() -> None:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", layers.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        assert listed == list(declared), key
        for name, _ in declared:
            assert NAME.match(name), name
    print("ok  metric names are well formed and listed in BENCHMARK.json")


def first_block(name: str):
    w = workloads.make(name)
    items = next(w.stream(workloads.DEFAULT_SEED))
    outs = [w.call(item) for item in items]
    return w, items, outs


def _corrupt(w, items, outs) -> int:
    """Corrupt one letter (one length on oracle_sweep); returns the index."""
    i = next(i for i, item in enumerate(items) if item.kind == "call")
    out = outs[i]
    if w.name == "oracle_sweep":
        outs[i] = (out[1] + 1, out[1])
    else:
        bp, flat, length = out
        j = len(flat) // 2
        outs[i] = (bp, flat[:j] + flat[j].translate(_FLIP) + flat[j + 1 :], length)
    return i


def check_outputs(write: bool) -> None:
    path = BENCH / "digests.json"
    digests = json.loads(path.read_text()) if path.exists() and not write else {}
    for name in workloads.WORKLOADS:
        w, items, outs = first_block(name)
        for index, (item, out) in enumerate(zip(items, outs)):
            why = w.verify(item, out, index)
            assert why is None, (name, index, why)
        d = workloads.digest(w, items, outs)
        if write:
            digests[name] = d
        else:
            assert digests[name] == d, f"{name}: digest {d} != committed {digests[name]}"
        i = _corrupt(w, items, outs)
        assert w.verify(items[i], outs[i], i) is not None, name
        assert workloads.digest(w, items, outs) != d, name
        print(f"ok  {name}: {len(items)} outputs verified, digest matches, corruption caught")
    if write:
        path.write_text(json.dumps(digests, indent=1) + "\n")
        print(f"wrote {path}")


def main() -> int:
    write = "--write-digests" in sys.argv[1:]
    check_deterministic()
    check_metric_names()
    check_outputs(write)
    return 0


if __name__ == "__main__":
    sys.exit(main())
