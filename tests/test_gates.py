"""Source-level gates on the package itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "phopf"


def test_no_bare_assert_in_the_package():
    # `assert` vanishes under `python -O`; every gate and theorem
    # cross-check must raise explicitly instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
