"""The command-line grammar: phopf.cli._parse against the argparse parser it
replaced, kept here as the reference, on every argv the tests and the
benchmark run, their reorderings and `=` forms, and each usage error."""

import argparse

import pytest

from phopf import cli
from phopf.cli import _parse
from perfbench.workloads import WORKLOADS
from tests.test_cli import ENTRY_CASES


def _build_parser():
    """The argparse parser of phopf.cli before _GRAMMAR replaced it."""
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
    p.add_argument("kind", choices=sorted(cli._CHECK))
    p.add_argument("file")

    p = sub.add_parser("example", parents=[common],
                       help="write a certified built-in example to disk")
    p.add_argument("name", choices=cli._EXAMPLE_NAMES)
    p.add_argument("--field", default="qq", help="qq or gf<p> (default qq)")
    p.add_argument("--r", default="0", help="left action parameter")
    p.add_argument("--s", default="0", help="right action parameter")
    p.add_argument("--t", default="0", help="left coaction parameter")
    p.add_argument("--u", default="0", help="right coaction parameter")
    p.add_argument("--group", default=None, help="built-in group name")
    p.add_argument("--N", default="0", help="subgroup element indices, e.g. 0,2")
    p.add_argument("-o", "--out", default=".", help="output directory")

    p = sub.add_parser("globalize", parents=[common],
                       help="construct and certify the standard globalization")
    p.add_argument("kind", choices=("bimodule", "bicomodule"))
    p.add_argument("file")
    p.add_argument("-o", "--out", required=True, help="output directory")

    p = sub.add_parser("smash", parents=[common],
                       help="build the smash product of two stored factors")
    p.add_argument("bimodule")
    p.add_argument("bicomodule")
    p.add_argument("-o", "--out", default=None,
                   help="output file (.json) or directory")
    return ap


def reference(argv):
    """The command, the resolved format and every other dest, by argparse."""
    ns = vars(_build_parser().parse_args(argv))
    root = ns.pop("root_format")
    ns["format"] = ns["format"] or root
    return ns


def parsed(argv):
    """The same dict from phopf.cli._parse."""
    command, args = _parse(argv)
    return dict(vars(args), command=command)


def exit_code(parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code


BENCHMARK_ARGV = [cmd.argv for name in ("globalize", "check", "smash")
                  for cmd in WORKLOADS[name][1]]


def _split(argv):
    """(command, positionals, [(flag, value)]): every option takes a value."""
    positionals, options, tokens = [], [], iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            options.append((token, next(tokens)))
        else:
            positionals.append(token)
    return argv[0], positionals, options


def variants(argv):
    """argv; its options as `--opt=value`; its options first, before the
    positionals; its options between the positionals; --format moved in
    front of the command; and every option given twice, the last value kept
    (a --format first given as the other format)."""
    command, positionals, options = _split(argv)
    flat = [t for pair in options for t in pair]
    yield argv
    yield [command] + positionals + ["%s=%s" % pair for pair in options]
    yield [command] + flat + positionals
    yield [command] + positionals[:1] + flat + positionals[1:]
    fmt = [pair for pair in options if pair[0] == "--format"]
    rest = [t for pair in options if pair[0] != "--format" for t in pair]
    yield [t for pair in fmt for t in pair] + [command] + positionals + rest
    decoys = [t for flag, value in options
              for t in (flag, {"json": "text", "text": "json"}.get(value, "decoy"))]
    yield [command] + decoys + positionals + flat


ARGVS = [argv for argv, code in ENTRY_CASES if argv != ["--help"]
         and "no-such-kind" not in argv] + BENCHMARK_ARGV


def test_the_argvs_cover_every_command_and_the_benchmark():
    assert len(BENCHMARK_ARGV) == 13
    assert {argv[0] for argv in ARGVS} == {"check", "example", "globalize", "smash"}


@pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(a[:2]) for a in ARGVS])
def test_every_argv_and_its_reorderings_parse_as_argparse_did(argv):
    for form in variants(argv):
        assert parsed(form) == reference(form), form


@pytest.mark.parametrize("argv", [
    ["check", "hopf", "--", "in/hopf.json"],
    ["check", "--", "hopf", "in/hopf.json"],
    ["--format", "json", "check", "hopf", "f", "--format", "text"],
    ["check", "--format=json", "hopf", "f"],
    ["example", "en-kg", "-o=out", "--N=0,2", "--group", "Q8"],
    ["smash", "a.json", "b.json"],
    ["globalize", "bicomodule", "--out", "dir", "f.json"],
], ids=["dashdash-last", "dashdash-first", "root-and-command-format", "format-equals",
        "short-equals", "smash-no-out", "long-out-first"])
def test_edge_forms_parse_as_argparse_did(argv):
    assert parsed(argv) == reference(argv)


USAGE_ERRORS = {
    "bad-choice": ["check", "no-such-kind", "f"],
    "bad-format": ["check", "hopf", "f", "--format", "yaml"],
    "bad-example": ["example", "no-such-example"],
    "missing-positional": ["check", "hopf"],
    "missing-both": ["smash"],
    "missing-value": ["check", "hopf", "f", "--format"],
    "missing-out-value": ["example", "en-kg", "-o"],
    "unknown-option": ["check", "hopf", "f", "--no-such-option", "x"],
    "option-of-another-command": ["check", "hopf", "f", "-o", "x"],
    "extra-positional": ["check", "hopf", "f", "g"],
    "no-command": [],
    "only-a-format": ["--format", "json"],
    "unknown-command": ["frobnicate"],
    "globalize-without-out": ["globalize", "bimodule", "f"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_each_usage_error_exits_two_on_both(argv, capsys):
    assert exit_code(_parse, argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    command = argv[0] if argv and argv[0] in cli._GRAMMAR else None
    assert err.rstrip().endswith("(see phopf %s--help)" % (command + " " if command else ""))
    assert exit_code(lambda a: _build_parser().parse_args(a), argv) == 2
    capsys.readouterr()


def test_long_options_are_spelled_in_full(capsys):
    # argparse took an unambiguous prefix (--form json); _parse does not
    argv = ["check", "hopf", "f", "--form", "json"]
    assert reference(argv)["format"] == "json"
    assert exit_code(_parse, argv) == 2
    assert capsys.readouterr().err == \
        "error: unrecognized option --form (see phopf check --help)\n"


def test_a_negative_fraction_is_an_option_value():
    # argparse refused `--r -1/2` (expected one argument): the value looks
    # like an option to it; a value is the next argument as given
    argv = ["example", "sweedler-bimodule-k", "--r", "-1/2", "--s", "-3/4"]
    assert parsed(argv) == parsed(["example", "sweedler-bimodule-k", "--r=-1/2",
                                   "--s=-3/4"])
    assert (parsed(argv)["r"], parsed(argv)["s"]) == ("-1/2", "-3/4")
    with pytest.raises(SystemExit):
        reference(argv)


def reference_commands():
    """The reference's parser of each command, by name."""
    return next(action for action in _build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def _help(argv, capsys):
    assert exit_code(_parse, argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_root_help_exits_zero_and_lists_every_command(flag, capsys):
    out = _help([flag], capsys)
    assert set(reference_commands()) == set(cli._GRAMMAR)
    for command, (about, _, _) in cli._GRAMMAR.items():
        assert command in out and about in out
    assert "--format {text,json}" in out
    assert exit_code(lambda a: _build_parser().parse_args(a), [flag]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", sorted(cli._GRAMMAR))
@pytest.mark.parametrize("where", ["first", "last"])
def test_command_help_lists_every_choice_and_option(command, where, capsys):
    positionals = cli._GRAMMAR[command][1]
    argv = [command, "-h"] if where == "first" else \
        [command] + [choices[0] if choices else "f" for _, choices in positionals] + ["--help"]
    out = _help(argv, capsys)
    assert out.startswith("usage: phopf %s " % command)
    # every argument and option of the reference, with its choices and help
    for action in reference_commands()[command]._actions:
        if action.option_strings:
            assert ", ".join(action.option_strings) in out, action.option_strings
        else:
            assert action.dest.upper() in out
        if action.choices:
            assert "{%s}" % ",".join(action.choices) in out, action.choices
        if action.help and action.dest != "help":
            assert action.help in out, action.help
    assert exit_code(lambda a: _build_parser().parse_args(a), argv) == 0
    capsys.readouterr()


def test_dispatch_looks_up_the_command_when_it_runs(monkeypatch):
    # a wrapper put on cli.cmd_<name> (as perfbench puts one) sees the call
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args, fmt: seen.append((args.kind, fmt)) or 7)
    assert cli.main(["check", "hopf", "f", "--format", "json"]) == 7
    assert seen == [("hopf", "json")]
