"""Command-line front end.

Commands
    phopf check {hopf|algebra|action|coaction|bimodule|bicomodule} FILE
        Re-run the full axiom suite of a stored structure.
    phopf example NAME [--r R --s S --t T --u U --group G --N 0,2]
                       [--field qq|gf<p>] [-o DIR]
        Write a ready-made example to disk; every file is certified before
        it is written, by the constructor that builds it, which raises on
        any failing law:
            sweedler-bimodule-k    sweedler_k_bimodule (each side's action
                                   suite, then the compatibility law)
            sweedler-bicomodule-k  sweedler_k_bicomodule (check_bicomodule)
            en-kg                  en_kg_example (algebra_check of the coset
                                   algebra, then the action suite)
            dual-group-action      dual_regular_action (hopf_check of the
                                   dual; the action must be global)
            regular-bicomodule     regular_bicomodule (hopf_check; both
                                   coactions must be global)
            z2-partial-group       group_to_kg (check_group_partial_action,
                                   then the symmetric action suite)
    phopf globalize {bimodule|bicomodule} FILE -o DIR
        Construct the standard globalization and report its certificate, a
        Report in the shape `phopf check` prints (laws condition1,
        condition2, lemaco1-4 for a bimodule; exchange for a bicomodule).
    phopf smash BIMODULE_FILE BICOMODULE_FILE [-o PATH]
        Build the smash product of the two stored factors.

Every subcommand takes --format {text|json}.  All numeric parameters use
the exact scalar grammar "n" or "n/d" — no floats.

Exit codes: 0 success / checks passed, 1 semantic failure (an axiom or a
construction failed), 2 unreadable or malformed input.

Every command is a fresh process, so this module imports at its top only
what parsing the command line needs, and each command the modules it runs
when it runs: the bodies of example, globalize and smash are `command` in
phopf.examples, phopf.globalize and phopf.smash.  Functions are looked up
through their modules at call time, so a wrapper put on a module attribute
sees every call.  run(), every process's entry point, is main() then
gc.freeze(), so the exit-time collections skip the heap it leaves."""

import argparse
import gc
import importlib
import json
import sys

from .serialize import DocumentError


def _lookup(module, name):
    """`phopf.<module>.<name>`, importing the module on first use."""
    return getattr(importlib.import_module("." + module, __package__), name)


def _emit(report, fmt):
    if fmt == "json":
        print(json.dumps(report.to_json(), ensure_ascii=False))
    else:
        for line in report.lines():
            print(line)


# ---------------------------------------------------------------------------
# phopf check


# kind -> (loader in serialize, module of the checker, checker); a pair of
# checkers is (left, right), picked by the side of the loaded structure
_CHECK = {
    "hopf": ("load_hopf", "algebras", "hopf_check"),
    "algebra": ("load_algebra", "algebras", "algebra_check"),
    "action": ("load_action", "actions", ("check_lpma", "check_rpma")),
    "coaction": ("load_coaction", "coactions", ("check_lpca", "check_rpca")),
    "bimodule": ("load_bimodule", "actions", "check_bimodule"),
    "bicomodule": ("load_bicomodule", "coactions", "check_bicomodule"),
}


def cmd_check(args, fmt):
    loader, module, checker = _CHECK[args.kind]
    structure = _lookup("serialize", loader)(args.file)
    if not isinstance(checker, str):
        checker = checker[structure.side != "left"]
    rep = _lookup(module, checker)(structure)
    _emit(rep, fmt)
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# phopf example, globalize and smash; the names of phopf.examples' builders


_EXAMPLE_NAMES = ("dual-group-action", "en-kg", "regular-bicomodule", "sweedler-bicomodule-k",
                  "sweedler-bimodule-k", "z2-partial-group")


def cmd_example(args, fmt):
    return _lookup("examples", "command")(args, fmt)


def cmd_globalize(args, fmt):
    return _lookup("globalize", "command")(args, fmt)


def cmd_smash(args, fmt):
    return _lookup("smash", "command")(args, fmt)


# ---------------------------------------------------------------------------
# wiring


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default=None,
                        help="report style (default text)")
    ap = argparse.ArgumentParser(
        prog="phopf",
        description="Exact toolkit for partial (co)module algebra structures "
                    "over finite-dimensional Hopf algebras.")
    ap.add_argument("--format", dest="root_format", choices=("text", "json"),
                    default=None, help=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="re-run the axiom suite of a stored structure")
    p.add_argument("kind", choices=sorted(_CHECK))
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("example", parents=[common],
                       help="write a certified built-in example to disk")
    p.add_argument("name", choices=_EXAMPLE_NAMES)
    p.add_argument("--field", default="qq", help="qq or gf<p> (default qq)")
    p.add_argument("--r", default="0", help="left action parameter")
    p.add_argument("--s", default="0", help="right action parameter")
    p.add_argument("--t", default="0", help="left coaction parameter")
    p.add_argument("--u", default="0", help="right coaction parameter")
    p.add_argument("--group", default=None, help="built-in group name")
    p.add_argument("--N", default="0", help="subgroup element indices, e.g. 0,2")
    p.add_argument("-o", "--out", default=".", help="output directory")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("globalize", parents=[common],
                       help="construct and certify the standard globalization")
    p.add_argument("kind", choices=("bimodule", "bicomodule"))
    p.add_argument("file")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=cmd_globalize)

    p = sub.add_parser("smash", parents=[common],
                       help="build the smash product of two stored factors")
    p.add_argument("bimodule")
    p.add_argument("bicomodule")
    p.add_argument("-o", "--out", default=None,
                   help="output file (.json) or directory")
    p.set_defaults(func=cmd_smash)
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    fmt = args.format or args.root_format or "text"
    try:
        return args.func(args, fmt)
    except (OSError, json.JSONDecodeError, DocumentError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def run(argv=None):
    """main(argv), then gc.freeze() (see the module docstring)."""
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
