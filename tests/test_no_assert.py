"""Internal checks in the package must survive ``python -O``."""

from __future__ import annotations

import ast
from pathlib import Path

import bsgeo
from bsgeo import BSError, InternalError

PACKAGE = Path(bsgeo.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "bare assert is stripped by -O; raise InternalError: " + ", ".join(found)


def test_internal_error_is_a_bs_error():
    assert issubclass(InternalError, BSError)
