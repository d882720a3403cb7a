"""Source-level gates on the package itself."""

import ast
import pathlib
import re

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


def _scoped(tree, match):
    """(scope, line) of every node of a module for which match(node) holds,
    with the enclosing class and function joined as `Class.function`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if match(node):
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def _failure_index_reads(tree):
    """(function, line) of every `<expr>.failures[0]` in a module."""
    return _scoped(tree, lambda node: (
        isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
        and node.value.attr == "failures"
        and isinstance(node.slice, ast.Constant) and node.slice.value == 0))


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


# the span layer: calls that take ambient vectors into an echelon basis
SPAN_FUNCTIONS = {"Subspace", "subspace_span", "rref", "closure_fixpoint", "coords"}
SPAN_METHODS = {"coords", "contains", "reduce"}


def _is_vec_of_dict(node):
    return isinstance(node, ast.Call) and "vec_of_dict" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _carries(expr, tainted):
    """Whether expr holds a vec_of_dict call or a name bound to one; an
    attribute of such a name (say `span.dim`) carries nothing."""
    if _is_vec_of_dict(expr):
        return True
    if isinstance(expr, ast.Name):
        return expr.id in tainted
    return not isinstance(expr, ast.Attribute) and any(
        _carries(c, tainted) for c in ast.iter_child_nodes(expr))


def _bound_names(target):
    """The names a binding target rebinds or mutates: `x[i] = v` binds x,
    not i."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        return set().union(*map(_bound_names, target.elts))
    if isinstance(target, (ast.Starred, ast.Subscript)):
        return _bound_names(target.value)
    return set()


def _bindings(fn):
    """(targets, source) of every binding in a function: assignments, for
    loops and comprehension clauses."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            yield node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)) and node.value:
            yield [node.target], node.value
        elif isinstance(node, (ast.For, ast.comprehension)):
            yield [node.target], node.iter


def dense_into_span(tree):
    """(function, line) of every call into the span layer that receives the
    result of vec_of_dict: directly, through a comprehension, or through a
    local name bound to it."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        tainted, grew = set(), True
        while grew:
            grew = False
            for targets, source in _bindings(fn):
                if _carries(source, tainted):
                    names = set().union(*map(_bound_names, targets))
                    grew = grew or not names <= tainted
                    tainted |= names
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if not (isinstance(f, ast.Name) and f.id in SPAN_FUNCTIONS
                    or isinstance(f, ast.Attribute) and f.attr in SPAN_METHODS):
                continue
            if any(_carries(a, tainted) for a in node.args + [k.value for k in node.keywords]):
                found.add((fn.name, node.lineno))
    return sorted(found, key=lambda x: x[1])


def test_the_dense_gate_flags_each_way_a_dense_vector_reaches_a_span():
    flagged = dense_into_span(ast.parse(
        "def direct(d, span):\n"
        "    return span.coords(vec_of_dict(d, 4, f))\n"
        "def comprehension(ws):\n"
        "    return Subspace(4, f, [vec_of_dict(w, 4, f) for w in ws])\n"
        "def through_a_name(ds):\n"
        "    cols = [vec_of_dict(d, 4, f) for d in ds]\n"
        "    rank = rref(cols, f)\n"
        "    return [span.contains(c) for c in cols]\n"
        "def sparse(ds, span):\n"
        "    return rref(ds, f), span.reduce(ds[0]), vec_of_dict(ds[0], 4, f)\n"))
    assert flagged == [("direct", 2), ("comprehension", 4), ("through_a_name", 7),
                       ("through_a_name", 8)]


def test_no_dense_vector_reaches_the_span_layer():
    # every ambient vector is a sparse dict on its way into an echelon
    # basis; vec_of_dict writes a dense list only for a document, a witness
    # or a public dense matrix
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d in %s" % (path.name, line, fn)
                  for fn, line in dense_into_span(tree)]
    assert not found, found


def _named(node):
    """The name a node binds or reads: a name, an attribute, a definition
    or an imported alias; None for any other node."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.alias):
        return node.asname or node.name
    return None


def _called(tree):
    """The function names of every call in a module, with their lines."""
    return [(_named(node.func), node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Call)]


def test_globalization_candidates_stay_column_maps():
    # candidates hold θ and the operator families as column maps, so the
    # globalization layer (globalize and candidates) writes no dense matrix,
    # and the package keeps no helper that would write one from columns
    dense = []
    for name in ("globalize.py", "candidates.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        dense += ["%s:%d" % (name, line) for called, line in _called(tree)
                  if called in ("slice_matrix", "mat_transpose")]
    assert not dense, dense
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, getattr(node, "lineno", 0))
                  for node in ast.walk(tree) if _named(node) == "mat_of_cols"]
    assert not found, found


def test_the_bicomodule_global_law_sweep_is_a_test_oracle_only():
    # standard_globalize_bicomodule records its carrier's global laws by
    # proof, and sweeps them through _require_global_bimodule over a failing
    # antipode; _require_global_bicomodule is the oracle in the tests
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, getattr(node, "lineno", 0))
                  for node in ast.walk(tree) if _named(node) == "_require_global_bicomodule"]
    assert not found, found


def test_documents_have_one_writer():
    # serialize.write_document writes every document through
    # _json_writer.write_json, the bytes of json.dump one flat row at a time;
    # a json.dump left in the package would be a second writer, one token
    # per write
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += ["%s:%d" % (path.name, n) for n, line in
                  enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                  if "json.dump(" in line]
    assert not found, found


def _main_block_calls(tree):
    """The names called in a module's `if __name__ == "__main__":` block."""
    return {name for node in tree.body if isinstance(node, ast.If)
            and ast.dump(node.test) == ast.dump(ast.parse('__name__ == "__main__"',
                                                          mode="eval").body)
            for name, _ in _called(node)}


def entry_point_faults(sources, pyproject):
    """What breaks the one-entry-point rule, given the package's sources
    (file name -> text) and pyproject.toml: `gc` imported outside cli.py,
    gc.freeze called outside cli.run, and a launcher (the `__main__` blocks
    of cli.py and __main__.py, the console script) that does not go
    through run or calls main itself."""
    faults = []
    for name, text in sorted(sources.items()):
        tree = ast.parse(text, filename=name)
        imports = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
                   or isinstance(node, ast.ImportFrom) and node.module == "gc"]
        if name != "cli.py":
            faults += ["%s:%d imports gc" % (name, line) for line in imports]
        faults += ["%s:%d freezes in %s" % (name, line, scope or "the module")
                   for scope, line in _scoped(tree, lambda node: isinstance(node, ast.Call)
                                              and _named(node.func) == "freeze")
                   if (name, scope) != ("cli.py", "run")]
        if name in ("cli.py", "__main__.py"):
            calls = _main_block_calls(tree)
            if "run" not in calls or "main" in calls:
                faults.append("%s: __main__ block calls %s" % (name, sorted(calls)))
    script = re.search(r'^\[project\.scripts\]\s*^phopf\s*=\s*"([^"]*)"', pyproject,
                       re.MULTILINE)
    if not script or script.group(1) != "phopf.cli:run":
        faults.append("pyproject.toml: phopf = %r" % (script and script.group(1)))
    return faults


def _package_sources():
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def argparse_imports(sources):
    """Where a module of the package imports argparse: phopf.cli reads argv
    against its own table, and argparse loads gettext and locale, which no
    command uses."""
    return ["%s:%d" % (name, node.lineno) for name, text in sorted(sources.items())
            for node in ast.walk(ast.parse(text, filename=name))
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "argparse"
                                                    for a in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0]
            == "argparse"]


def test_no_module_of_the_package_imports_argparse():
    assert argparse_imports(_package_sources()) == []
    sources = _package_sources()
    sources["cli.py"] = sources["cli.py"].replace(
        "def _parse(argv):\n", "def _parse(argv):\n    import argparse\n")
    sources["fields.py"] += "\nfrom argparse import Namespace\n"
    faults = argparse_imports(sources)
    assert [f.split(":")[0] for f in faults] == ["cli.py", "fields.py"], faults
    assert faults[1] == "fields.py:%d" % sources["fields.py"].count("\n")


def test_the_entry_point_gate_flags_a_freeze_outside_run():
    sources = _package_sources()
    sources["cli.py"] = sources["cli.py"].replace(
        "    command, args = _parse(argv)\n",
        "    command, args = _parse(argv)\n    gc.freeze()\n")
    sources["cli.py"] = sources["cli.py"].replace("sys.exit(run())", "sys.exit(main())")
    sources["linalg.py"] += "\nimport gc\n"
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    faults = entry_point_faults(sources, pyproject.replace("cli:run", "cli:main"))
    assert [f.split(":")[0] for f in faults] == ["cli.py", "cli.py", "linalg.py",
                                                 "pyproject.toml"], faults
    assert "freezes in main" in faults[0] and "['exit', 'main']" in faults[1]


def test_every_process_enters_through_run_and_only_run_freezes():
    # run() is main() then gc.freeze(), so the collections at interpreter
    # exit skip the heap; main itself, which the tests and the in-process
    # benchmark call, must keep a live collector
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert entry_point_faults(_package_sources(), pyproject) == []


def failures_recorded_outside_report(sources):
    """Where a module calls `.fail(` outside class Report: every suite
    records its failures through Report.sweep."""
    faults = []
    for name, text in sorted(sources.items()):
        tree = ast.parse(text, filename=name)
        faults += ["%s:%d in %s" % (name, line, scope or "the module")
                   for scope, line in _scoped(tree, lambda node: isinstance(node, ast.Call)
                                              and isinstance(node.func, ast.Attribute)
                                              and node.func.attr == "fail")
                   if (name, scope.split(".")[0]) != ("algebras.py", "Report")]
    return faults


def certificate_store_faults(sources):
    """Where a module other than algebras.py reads or writes the carried
    certificates (an `_certificates` attribute, or the string that names
    it), apart from a data class's `self._certificates = {}` in __init__."""
    empty_store = ast.dump(ast.parse("self._certificates = {}").body[0])
    faults = []
    for name, text in sorted(sources.items()):
        if name == "algebras.py":
            continue
        tree = ast.parse(text, filename=name)
        fresh = {id(node.targets[0]) for node in ast.walk(tree)
                 if ast.dump(node) == empty_store}
        faults += ["%s:%d in %s" % (name, line, scope or "the module")
                   for scope, line in _scoped(tree, lambda node: id(node) not in fresh and (
                       isinstance(node, ast.Attribute) and node.attr == "_certificates"
                       or isinstance(node, ast.Constant) and node.value == "_certificates"))]
        faults += ["%s:%d in %s" % (name, line, scope)
                   for scope, line in _scoped(tree, lambda node: id(node) in fresh)
                   if not scope.endswith(".__init__")]
    return faults


def test_the_law_engine_gates_flag_their_mutants():
    sources = _package_sources()
    sources["group_actions.py"] = sources["group_actions.py"].replace(
        '    rep.sweep("unit-translation", (',
        '    rep.fail("unit-translation", (0,), 1, 2)\n    rep.sweep("unit-translation", (')
    sources["globalize.py"] += "\nReport().fail('law', (), 1, 2)\n"
    assert failures_recorded_outside_report(sources) == [
        "globalize.py:%d in the module" % (sources["globalize.py"].count("\n")),
        "group_actions.py:%d in check_group_partial_action" % next(
            n for n, line in enumerate(sources["group_actions.py"].splitlines(), 1)
            if "rep.fail(" in line)]
    sources = _package_sources()
    sources["coactions.py"] += ("\ndef peek(s):\n    return s._certificates.get('suite')\n"
                                "\ndef wipe(s):\n    self._certificates = {}\n"
                                "\ndef reach(s):\n    return getattr(s, '_certificates')\n")
    sources["actions.py"] = sources["actions.py"].replace(
        "self._certificates = {}", "self._certificates = {'suite': None}", 1)
    faults = certificate_store_faults(sources)
    assert [f.split(" in ")[1] for f in faults] == [
        "PartialActionData.__init__", "peek", "reach", "wipe"], faults


def test_only_report_records_a_failure_and_only_algebras_keeps_certificates():
    # one law engine: Report.sweep records every failure of every suite;
    # one certificate store: algebras._carried writes it, and algebras
    # alone reads it (through _carried and _carries)
    assert failures_recorded_outside_report(_package_sources()) == []
    assert certificate_store_faults(_package_sources()) == []


def stamp_flag_reads(sources):
    """Where a stamp of algebras.py (a top-level function `_*_stamp`) reads
    a name or an attribute called `symmetric`, by name or as the string a
    getattr takes: a stamp holds what a Report depends on, and whether a
    check asks for the symmetry law is not that (see algebras._side_report)."""
    tree = ast.parse(sources["algebras.py"], filename="algebras.py")
    return ["algebras.py:%d in %s" % (node.lineno, fn.name)
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and re.fullmatch(r"_\w+_stamp", fn.name)
            for node in ast.walk(fn)
            if isinstance(node, ast.Name) and node.id == "symmetric"
            or isinstance(node, ast.Attribute) and node.attr == "symmetric"
            or isinstance(node, ast.Constant) and node.value == "symmetric"]


def test_the_stamp_gate_flags_a_symmetric_flag_in_a_stamp():
    sources = _package_sources()
    sources["algebras.py"] = sources["algebras.py"].replace(
        "    return (p.side, p.map.state, p.name) + (",
        "    return (p.side, p.map.state, p.symmetric, p.name) + (").replace(
        "    parts = (_hopf_stamp(b.hopf), _algebra_stamp(b.alg))",
        "    parts = (_hopf_stamp(b.hopf), getattr(b.left, 'symmetric', False))")
    lines = sources["algebras.py"].splitlines()
    assert stamp_flag_reads(sources) == [
        "algebras.py:%d in %s" % (lines.index(line) + 1, fn) for fn, line in (
            ("_side_stamp", "    return (p.side, p.map.state, p.symmetric, p.name) + ("),
            ("_pair_stamp",
             "    parts = (_hopf_stamp(b.hopf), getattr(b.left, 'symmetric', False))"))]


def test_no_certificate_stamp_holds_a_symmetric_flag():
    # the symmetry law is one more law of a side's one carried Report,
    # gained when first asked for, so no stamp tells the two requests apart
    assert stamp_flag_reads(_package_sources()) == []


RESTRICTIONS = {"restrict_product", "restrict_ops", "transport"}


def carrier_faults(sources):
    """Where globalize.py or candidates.py restricts a structure to a
    subspace or a quotient (a call of restrict_product, restrict_ops or
    transport) outside globalize._carrier, the one builder of a carrier."""
    faults = []
    for name in ("globalize.py", "candidates.py"):
        tree = ast.parse(sources[name], filename=name)
        faults += ["%s:%d in %s" % (name, line, scope or "the module")
                   for scope, line in _scoped(tree, lambda node: isinstance(node, ast.Call)
                                              and _named(node.func) in RESTRICTIONS)
                   if (name, scope) != ("globalize.py", "_carrier")]
    return faults


def test_the_carrier_gate_flags_a_restriction_outside_the_builder():
    sources = _package_sources()
    sources["candidates.py"] = sources["candidates.py"].replace(
        "    out = _carrier(",
        "    restrict_product(project, M.rows, Bp.mul_dict)\n"
        "    out = _carrier(")
    assert carrier_faults(sources) == ["candidates.py:%d in minimalize" % next(
        n for n, line in enumerate(sources["candidates.py"].splitlines(), 1)
        if "restrict_product(" in line)]


def test_both_standard_globalizations_and_minimalize_build_through_the_carrier():
    # one carrier builder: the standard bimodule and bicomodule carriers
    # and the minimal quotient each restrict their product, operator
    # families, unit and embedding through globalize._carrier
    assert carrier_faults(_package_sources()) == []


# the five-leg exchange products, the witness induced from them, and the
# restriction coactions kept apart from the operator families: tests/ keeps
# them as the references
SECOND_EXCHANGE = {"_exchange_products", "_exchange_witness", "_restrict_coaction"}


def second_exchange_faults(sources):
    """Where a module of the package defines or calls a name of
    SECOND_EXCHANGE: the exchange condition is decided through the dual
    families (globalize._exchange, induced._corner_witness), and a coaction
    restricts through induced._restrict, as an operator family does."""
    def defined_or_called(node):
        return (_named(node.func) if isinstance(node, ast.Call)
                else node.name if isinstance(node, ast.FunctionDef) else None)

    return ["%s:%d in %s" % (name, line, scope or "the module")
            for name, text in sorted(sources.items())
            for scope, line in _scoped(ast.parse(text, filename=name),
                                       lambda node: defined_or_called(node) in SECOND_EXCHANGE)]


def test_the_exchange_gate_flags_a_second_mechanism():
    sources = _package_sources()
    sources["coactions.py"] += "\ndef _restrict_coaction(ops, side, span, cut):\n    return ops\n"
    sources["induced.py"] = sources["induced.py"].replace(
        "    w = _corner_witness(B, bicom.right.dual_cols()",
        "    _exchange_witness(bicom, span.rows, u_d, span)\n"
        "    w = _corner_witness(B, bicom.right.dual_cols()")
    lines = sources["coactions.py"].splitlines()
    assert second_exchange_faults(sources) == [
        "coactions.py:%d in _restrict_coaction" % (len(lines) - 1),
        "induced.py:%d in induce_bicomodule" % next(
            n for n, line in enumerate(sources["induced.py"].splitlines(), 1)
            if "_exchange_witness(" in line)]


def test_the_exchange_condition_has_one_mechanism():
    # the exchange condition is the corner condition of the dual families,
    # on the carrier (globalize) and on B (induced)
    assert second_exchange_faults(_package_sources()) == []


def unchecked_parameters(sources):
    """Where a function of the package takes a parameter named `unchecked`:
    a bypass of a certificate gate that only tests set is not an option of
    the library (tests build a failing input through tests.conftest)."""
    return ["%s:%d in %s" % (name, line, scope)
            for name, text in sorted(sources.items())
            for scope, line in _scoped(ast.parse(text, filename=name), lambda node: isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                and "unchecked" in [a.arg for a in ast.walk(node.args)
                                    if isinstance(a, ast.arg)])]


def unreferenced_public_names(names, sources):
    """The names of `names` that no module of `sources` reads as an
    identifier: a bare name, an attribute or an imported name (a string or
    a comment does not count)."""
    seen = set()
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text, filename=name)):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.alias):
                seen.add(node.name)
    return sorted(set(names) - seen)


def _test_sources():
    """Every module under tests/ but test_startup.py, whose PUBLIC table
    lists each public name without testing it."""
    tests = pathlib.Path(__file__).resolve().parent
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(tests.glob("*.py"))
            if path.name != "test_startup.py"}


def test_the_surface_gates_flag_their_mutants():
    sources = _package_sources()
    sources["smash.py"] = sources["smash.py"].replace(
        "def smash_product(bimodule, bicomodule):",
        "def smash_product(bimodule, bicomodule, unchecked=False):")
    sources["linalg.py"] += "\nskip = lambda x, *, unchecked: x\n"
    assert unchecked_parameters(sources) == [
        "linalg.py:%d in " % sources["linalg.py"].count("\n"),
        "smash.py:%d in smash_product" % next(
            n for n, line in enumerate(sources["smash.py"].splitlines(), 1)
            if "unchecked=False" in line)]
    sources = {name: text.replace("unital_corner", "corner_of")
               for name, text in _test_sources().items()}
    sources["test_x.py"] = "# smash_product\nNAMES = ['no_such_name', 'smash_product']\n"
    assert unreferenced_public_names(["smash_product", "no_such_name", "unital_corner"],
                                     sources) == ["no_such_name", "unital_corner"]
    assert unreferenced_public_names(["find_idempotent"], {
        "test_x.py": "'find_idempotent'  # find_idempotent\n"}) == ["find_idempotent"]


def test_no_bypass_option_and_every_public_name_is_tested():
    # aim 2 of the roadmap: no option only tests set, no untested public API
    import phopf
    assert unchecked_parameters(_package_sources()) == []
    assert unreferenced_public_names(phopf.__all__, _test_sources()) == []
