"""Guards on the library source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "adsq"


def test_library_has_no_assert_statements():
    """``python -O`` strips assert statements, so a runtime guard written
    as one silently disappears; library checks must raise instead."""
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules found under {SRC}"
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                            filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
