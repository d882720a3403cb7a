"""The --help text of the phopf command line, written from the table that
phopf.cli reads argv against; only -h/--help imports this module, so no
command compiles it."""

from .cli import _FORMAT, _GRAMMAR


def help_text(command):
    """The --help text of `phopf command`, or of `phopf` itself for None."""
    if command is None:
        rows = [(name, spec[0]) for name, spec in _GRAMMAR.items()]
        lines = ["usage: phopf [--format {text,json}] {%s} ..." % ",".join(_GRAMMAR), "",
                 "Exact toolkit for partial (co)module algebra structures over "
                 "finite-dimensional Hopf algebras.", "", "commands:"]
    else:
        about, positionals, options = _GRAMMAR[command]
        rows = [(dest.upper(), "{%s}" % ",".join(choices) if choices else "a JSON document")
                for dest, choices in positionals]
        rows += [(", ".join(flags) + " " + ("{%s}" % ",".join(choices) if choices
                                            else dest.upper()), line)
                 for flags, dest, _, choices, line in (_FORMAT,) + options]
        lines = ["usage: phopf %s [options] %s" % (command, " ".join(
            dest.upper() for dest, _ in positionals)), "", about, "",
            "arguments and options (-h, --help shows this):"]
    width = max(len(left) for left, _ in rows)
    lines += ["  %s  %s" % (left.ljust(width), right) for left, right in rows]
    return "\n".join(lines + ["", "Options are spelled in full, and an option's value is "
                              "the next argument as given (--r -1/2); -- ends the options."])
