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

Every command takes --format {text|json}, before or after its name.  Scalars
use the exact grammar "n" or "n/d", and indices ASCII digits.  _parse reads
argv against one table, _GRAMMAR, which also writes --help: `--opt VALUE`,
`--opt=VALUE`, `-o DIR` anywhere after the command, the last value wins,
`--` ends the options, a value is the next argument as given (`--r -1/2`),
and long options are spelled in full.  A usage error prints one `error:`
line and raises SystemExit(2); -h/--help raises SystemExit(0).

Exit codes: 0 success / checks passed, 1 semantic failure (an axiom or a
construction failed), 2 unreadable or malformed input.

Every command is a fresh process, so this module imports at its top only
what reading the command line needs (no argparse, whose gettext and locale
phopf never uses), and each command the modules it runs when it runs: the
bodies of example, globalize and smash are `command` in phopf.examples,
phopf.globalize and phopf.smash.  main() looks up cmd_<name> in this
module, and functions through their modules, at call time, so a wrapper
put on a module attribute sees every call.  run(), every process's entry
point, is main() then gc.freeze(), so the exit-time collections skip the
heap it leaves."""

import gc
import importlib
import json
import sys
import types

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
# the command line: one table, read by _parse and written out by
# phopf._help, which only -h/--help imports


_FORMAT = (("--format",), "format", None, ("text", "json"), "report style (default text)")
_OUT = ("-o", "--out")

# command -> (help, positionals, options).  A positional is (dest, choices or
# None); an option is (flags, dest, default, choices or None, help), and a
# default of ... makes it required.  Every command also takes _FORMAT.
_GRAMMAR = {
    "check": ("re-run the axiom suite of a stored structure",
              (("kind", tuple(sorted(_CHECK))), ("file", None)), ()),
    "example": ("write a certified built-in example to disk", (("name", _EXAMPLE_NAMES),), (
        (("--field",), "field", "qq", None, "qq or gf<p> (default qq)"),
        (("--r",), "r", "0", None, "left action parameter"),
        (("--s",), "s", "0", None, "right action parameter"),
        (("--t",), "t", "0", None, "left coaction parameter"),
        (("--u",), "u", "0", None, "right coaction parameter"),
        (("--group",), "group", None, None, "built-in group name"),
        (("--N",), "N", "0", None, "subgroup element indices, e.g. 0,2"),
        (_OUT, "out", ".", None, "output directory"))),
    "globalize": ("construct and certify the standard globalization",
                  (("kind", ("bimodule", "bicomodule")), ("file", None)),
                  ((_OUT, "out", ..., None, "output directory (required)"),)),
    "smash": ("build the smash product of two stored factors",
              (("bimodule", None), ("bicomodule", None)),
              ((_OUT, "out", None, None, "output file (.json) or directory"),)),
}


def _fail(command, message):
    """A usage error: one line on stderr, then exit 2."""
    print("error: %s (see phopf %s--help)" % (message, command + " " if command else ""),
          file=sys.stderr)
    raise SystemExit(2)


def _choose(command, name, value, choices):
    if choices and value not in choices:
        _fail(command, "argument %s: invalid choice %r (choose from %s)"
              % (name, value, ", ".join(choices)))
    return value


def _parse(argv):
    """(command, args): argv read against _GRAMMAR (see the module docstring)."""
    tokens = iter(sys.argv[1:] if argv is None else argv)
    command, values, found, flags = None, {"format": None}, [], {"--format": _FORMAT}
    positionals, options, ended = (), (), False
    for token in tokens:
        if not ended and token == "--":
            ended = True
        elif not ended and token.startswith("-") and token != "-":
            flag, eq, value = token.partition("=")
            if flag in ("-h", "--help"):
                print(_lookup("_help", "help_text")(command))
                raise SystemExit(0)
            if flag not in flags:
                _fail(command, "unrecognized option %s" % flag)
            spec = flags[flag]
            value = value if eq else next(tokens, None)
            if value is None:
                _fail(command, "argument %s: expected one argument" % "/".join(spec[0]))
            values[spec[1]] = _choose(command, "/".join(spec[0]), value, spec[3])
        elif command is None:
            command = _choose(None, "command", token, tuple(_GRAMMAR))
            _, positionals, options = _GRAMMAR[command]
            for spec in options:
                values[spec[1]] = spec[2]
                flags.update(dict.fromkeys(spec[0], spec))
        elif len(found) == len(positionals):
            _fail(command, "unrecognized argument %r" % token)
        else:
            dest, choices = positionals[len(found)]
            found.append(_choose(command, dest, token, choices))
    if command is None:
        _fail(None, "a command is required")
    missing = [dest for dest, _ in positionals[len(found):]]
    missing += ["/".join(spec[0]) for spec in options if values[spec[1]] is ...]
    if missing:
        _fail(command, "the following arguments are required: %s" % ", ".join(missing))
    values.update(zip((dest for dest, _ in positionals), found))
    return command, types.SimpleNamespace(**values)


def main(argv=None):
    command, args = _parse(argv)
    try:
        return globals()["cmd_" + command](args, args.format or "text")
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
