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


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def test_the_package_namespace_is_lazy_and_its_table_is_true():
    # `import phopf` must load no submodule, and every public name must be
    # bound where the table says, so a rename fails here and not at the
    # first attribute access
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    eager = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.level or
                                                 (node.module or "").startswith("phopf")):
            eager.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name.startswith("phopf")
                                                  for a in node.names):
            eager.append(node.lineno)
    assert not eager, eager
    table = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"])
    missing = []
    for module, names in table.items():
        path = SRC / ("%s.py" % module)
        bound = _top_level_names(ast.parse(path.read_text(encoding="utf-8")))
        missing += ["%s.%s" % (module, name) for name in names if name not in bound]
    assert not missing, missing


def _failure_index_reads(tree):
    """(function, line) of every `<expr>.failures[0]` in a module, with the
    enclosing class and function joined as `Class.function`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "failures"
                and isinstance(node.slice, ast.Constant) and node.slice.value == 0):
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_report_require_reads_the_first_failure():
    # raising at a report's first failure is Report.require's job, so every
    # certificate gate names its failing law and index the same way
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d in %s" % (path.name, line, scope)
                  for scope, line in _failure_index_reads(tree)
                  if (path.name, scope) != ("algebras.py", "Report.require")]
    assert not found, found


def test_only_fields_divides():
    # over the rationals an integral scalar is an int, and int / int is a
    # float; Field.inv is the one division on scalars, so no `/` may appear
    # anywhere else in the package
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "fields.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div)]
    assert not found, found
