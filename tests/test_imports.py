"""A cold start loads only what the call needs.

``import bsgeo`` and a ``pnf`` call from the command line must not load
``dataclasses`` (which pulls in ``inspect``), ``json`` or the brute-force
oracle: each fresh interpreter is compared against one that ran
``python -c pass``, since ``site`` may already load some of the standard
library.  The oracle's names on the package resolve lazily to the
``bsgeo.oracle`` objects.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bsgeo

PACKAGE = Path(bsgeo.__file__).parent
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))),
)

# loaded on demand only: the oracle, the CLI's json output, and dataclasses
# with the inspect module that it imports
LAZY = ("dataclasses", "inspect", "json", "bsgeo.oracle")

ORACLE_NAMES = (
    "BallIndex",
    "ball",
    "load_ball",
    "oracle_britton_pnf",
    "oracle_geolen",
    "oracle_llnf",
    "save_ball",
)

_DUMP = "\nprint('\\n'.join(sys.modules), file=sys.stderr)\n"

_CLI = """import runpy, sys
sys.argv = ["bsgeo", "--p", "2", "--q", "4", "pnf", "3T-2t3"]
try:
    runpy.run_module("bsgeo", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(f"exit {exc.code}")
"""


def _modules_after(code: str) -> tuple[str, set[str]]:
    """The stdout of a fresh ``python -c code`` and the modules it ended with."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + _DUMP],
        capture_output=True,
        text=True,
        timeout=120,
        env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, set(proc.stderr.split())


@pytest.fixture(scope="module")
def baseline() -> set[str]:
    return _modules_after("pass")[1]


def test_import_loads_no_lazy_module(baseline):
    _, loaded = _modules_after("import bsgeo")
    assert "bsgeo.divides" in loaded
    assert not (loaded - baseline) & set(LAZY)


def test_cli_pnf_loads_no_lazy_module(baseline):
    out, loaded = _modules_after(_CLI)
    assert out.splitlines()[-1] == "exit 0"
    assert out.splitlines()[-2] == "8"  # the geodesic length of 3T-2t3 in BS(2,4)
    assert not (loaded - baseline) & set(LAZY)


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_oracle_names_are_the_oracle_objects(name):
    from bsgeo import oracle

    assert getattr(bsgeo, name) is getattr(oracle, name)
    # resolved on each access, never stored on the package
    assert name not in vars(bsgeo)


def test_oracle_loads_on_first_use():
    out, loaded = _modules_after("import bsgeo\nprint(bsgeo.oracle.__name__)")
    assert out.split() == ["bsgeo.oracle"]
    assert "bsgeo.oracle" in loaded


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bsgeo.no_such_name  # noqa: B018


def test_package_does_not_import_dataclasses():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "dataclasses" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "value types are named tuples; dataclasses is imported at " + ", ".join(found)
