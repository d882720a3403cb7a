"""Start-up: the lazy `phopf` namespace, and which phopf modules each
command of the CLI loads when it runs in a fresh interpreter."""

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

import phopf
from phopf.cli import main
from phopf.serialize import read_document, write_document

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the public names of the package, one line per defining module
PUBLIC = {
    "Field", "GF", "QQ",
    "Subspace", "Tensor3", "closure_fixpoint", "rref", "subspace_span",
    "AlgebraData", "HopfData", "Report", "algebra_check", "coalgebra_check",
    "dual_hopf", "group_algebra", "hom_hh_a", "hopf_check", "scalar_algebra",
    "sweedler_h4", "tensor_hah",
    "GROUP_NAMES", "named_group",
    "GroupPartialActionData", "PartialActionData", "PartialBimoduleData",
    "check_bimodule", "check_group_partial_action", "check_lpma", "check_rpma",
    "dual_regular_action", "en_kg_example", "group_to_kg", "induce_bimodule",
    "induce_left", "is_global", "kg_to_group", "sweedler_k_bimodule",
    "trivial_action", "trivialize_right",
    "PartialBicomoduleData", "PartialCoactionData", "bicomodule_to_bimodule",
    "bimodule_to_bicomodule", "check_bicomodule", "check_global_unit",
    "check_lpca", "check_rpca", "coaction_to_dual_action",
    "dual_action_to_coaction", "regular_bicomodule", "regular_coaction",
    "sweedler_k_bicomodule", "trivial_coaction",
    "BicomoduleGlobalization", "BimoduleGlobalization", "GlobalizationCandidate",
    "comparison_map", "free_candidate_bimodule", "maximal_degenerate_subbimodule",
    "minimalize", "psi_map", "standard_globalize_bicomodule",
    "standard_globalize_bimodule", "verify_globalization",
    "CornerAlgebra", "SmashAlgebra", "check_ker_eps_invariance",
    "check_smash_associativity", "find_idempotent", "smash_product",
    "unital_corner",
    "DocumentError", "load_action", "load_algebra", "load_bicomodule",
    "load_bimodule", "load_coaction", "load_group_action", "load_hopf",
    "read_document", "write_document",
}


# ---------------------------------------------------------------------------
# the lazy namespace


def test_all_lists_the_public_names_once():
    assert len(phopf.__all__) == len(PUBLIC) == 81
    assert set(phopf.__all__) == PUBLIC


def test_each_public_name_is_its_submodules_object():
    for name in phopf.__all__:
        module = importlib.import_module("phopf." + phopf._MODULE_OF[name])
        assert getattr(phopf, name) is vars(module)[name], name


def test_dir_lists_the_public_names():
    assert PUBLIC <= set(dir(phopf))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from phopf import *", namespace)
    assert PUBLIC <= set(namespace)
    assert namespace["check_lpma"] is phopf.actions.check_lpma


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        phopf.no_such_name
    with pytest.raises(AttributeError):
        phopf.two_stage_closure           # moved into the tests
    with pytest.raises(ImportError):
        exec("from phopf import no_such_name", {})


def test_submodules_still_import_by_name():
    from phopf import actions, smash
    assert isinstance(actions, types.ModuleType)
    assert actions is sys.modules["phopf.actions"]
    assert smash.smash_product is phopf.smash_product


# ---------------------------------------------------------------------------
# what each command loads


# stdlib modules no benchmark command needs: copy (see Report.copy), the
# argparse that phopf.cli replaced with its own table and the gettext and
# locale it loads, and fractions, with the decimal it loads, which only a
# non-integral rational needs
STDLIB = ("copy", "argparse", "gettext", "locale", "fractions", "decimal")


def _loaded(argv, cwd):
    """Exit code, the phopf submodules loaded when `argv` runs in a fresh
    interpreter, the number of source lines of the phopf files loaded
    (the package and those submodules), each of which a process without a
    bytecode cache compiles, and which of the stdlib modules of STDLIB were
    loaded; an empty argv only imports the package."""
    probe = ("import json, sys\n"
             "import phopf\n"
             "code = 0\n"
             "if sys.argv[1:]:\n"
             "    from phopf.cli import main\n"
             "    code = main(sys.argv[1:])\n"
             "mods = {m: sys.modules[m].__file__ for m in list(sys.modules)\n"
             "        if m == 'phopf' or m.startswith('phopf.')}\n"
             "lines = sum(len(open(f, encoding='utf-8').read().splitlines())\n"
             "            for f in mods.values())\n"
             "stdlib = [m for m in %r if m in sys.modules]\n"
             "print(json.dumps([code, sorted(mods), lines, stdlib]))\n" % (STDLIB,))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe] + list(argv), cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules, lines, stdlib = json.loads(proc.stdout.splitlines()[-1])
    return code, {m[len("phopf."):] for m in modules if m != "phopf"}, lines, set(stdlib)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Small H4 documents: a Sweedler bimodule, the regular bicomodule, its
    right coaction alone, and the dual regular action of kZ4."""
    root = tmp_path_factory.mktemp("startup")
    for argv in (["example", "sweedler-bimodule-k", "--r", "2", "--s", "3"],
                 ["example", "regular-bicomodule"],
                 ["example", "dual-group-action"]):
        assert main(argv + ["-o", str(root / argv[1]), "--format", "json"]) == 0
    bic = read_document(str(root / "regular-bicomodule" / "bicomodule.json"))
    write_document({"hopf": "hopf.json", "algebra": bic["algebra"], "side": "right",
                    "map": bic["right"]["map"]},
                   str(root / "regular-bicomodule" / "coaction.json"))
    return root


# the modules of the ambients, of the induced structures and of partial
# group actions, which no check and no smash product runs
CONCEPTS = ["ambient", "induced", "group_actions"]
# the built-in group tables, which only `example` reads
TABLES = ["_groups"]
# the example builders and constructors, which only `example` runs, and the
# candidates from outside with the sweeps that only a failing premise runs
OFF_PATH = ["examples", "candidates"]
CHECKS = ["actions", "coactions", "globalize", "smash"] + CONCEPTS + TABLES + OFF_PATH
NO_ACTIONS = ["actions", "globalize", "smash"] + CONCEPTS
UNGLOBAL = ["smash", "induced", "group_actions"] + TABLES + OFF_PATH

# argv, the modules it must not load, and a budget of compiled source lines.
# Each budget was the command's count plus 5% (rounded down) when the
# example, outside-candidate and constructor code left the command paths,
# except `example`, whose budget was not raised: its count plus 2%.  No
# budget was raised since; the comment on each row is its count now.
COMMANDS = [
    (["check", "algebra", "regular-bicomodule/hopf.json"], CHECKS, 1999),  # 1954
    (["check", "hopf", "regular-bicomodule/hopf.json"], CHECKS, 1999),  # 1954
    (["check", "action", "dual-group-action/action.json"], CHECKS[1:], 2430),  # 2346
    (["check", "bimodule", "sweedler-bimodule-k/bimodule.json"], CHECKS[1:],
     2430),  # 2346
    (["check", "bicomodule", "regular-bicomodule/bicomodule.json"],
     NO_ACTIONS + TABLES + OFF_PATH, 2451),  # 2366
    (["check", "coaction", "regular-bicomodule/coaction.json"],
     NO_ACTIONS + TABLES + OFF_PATH, 2451),  # 2366
    (["example", "regular-bicomodule", "--group", "Q8", "--field", "gf7",
      "-o", "q8"], NO_ACTIONS + ["candidates"], 2867),  # 2848
    (["smash", "sweedler-bimodule-k/bimodule.json",
      "regular-bicomodule/bicomodule.json"], ["globalize"] + CONCEPTS + TABLES + OFF_PATH,
     3248),  # 3088
    (["globalize", "bimodule", "sweedler-bimodule-k/bimodule.json", "-o", "glob"],
     UNGLOBAL + ["coactions"], 3361),  # 3224
    (["globalize", "bicomodule", "regular-bicomodule/bicomodule.json", "-o", "glob2"],
     UNGLOBAL, 3813),  # 3636
]
IDS = [" ".join(c[0][:2]) for c in COMMANDS]


@pytest.fixture(scope="module")
def runs(documents):
    """What each command of COMMANDS loads, run once per command."""
    return {tuple(argv): _loaded(argv, str(documents)) for argv, _, _ in COMMANDS}


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert _loaded([], str(tmp_path))[:2] == (0, set())


@pytest.mark.parametrize("argv,absent,budget", COMMANDS, ids=IDS)
def test_each_command_loads_only_the_modules_it_runs(runs, argv, absent, budget):
    code, modules, _, stdlib = runs[tuple(argv)]
    assert code == 0
    assert {"fields", "linalg", "algebras", "serialize", "cli"} <= modules
    assert not modules & set(absent), sorted(modules & set(absent))
    # Report.copy imports copy only to copy the witnesses of a failing Report
    assert "copy" not in stdlib


@pytest.mark.parametrize("argv,absent,budget", COMMANDS, ids=IDS)
def test_each_command_compiles_at_most_its_budget_of_source_lines(runs, argv, absent,
                                                                   budget):
    assert runs[tuple(argv)][2] <= budget


@pytest.mark.parametrize("argv,absent,budget", COMMANDS, ids=IDS)
def test_no_command_loads_argparse_or_fractions_or_the_help_text(runs, argv, absent,
                                                                 budget):
    _, modules, _, stdlib = runs[tuple(argv)]
    assert not stdlib, sorted(stdlib)
    assert "_help" not in modules


def test_a_non_integral_scalar_loads_fractions(tmp_path):
    # the positive control of the test above: the document holds r = 1/2,
    # so loading it builds a Fraction
    assert main(["example", "sweedler-bimodule-k", "--r", "1/2", "-o", str(tmp_path),
                 "--format", "json"]) == 0
    code, modules, _, stdlib = _loaded(["check", "bimodule", "bimodule.json"], str(tmp_path))
    assert code == 0 and "actions" in modules
    assert stdlib == {"fractions", "decimal"}


# ---------------------------------------------------------------------------
# the example names the parser lists without loading phopf.examples


def test_the_parser_lists_the_names_of_the_example_builders():
    from phopf import cli, examples
    assert sorted(cli._EXAMPLE_NAMES) == sorted(examples._EXAMPLES)


def test_example_help_lists_the_same_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["example", "--help"])
    assert exc.value.code == 0
    assert ("{dual-group-action,en-kg,regular-bicomodule,sweedler-bicomodule-k,"
            "sweedler-bimodule-k,z2-partial-group}") in capsys.readouterr().out
