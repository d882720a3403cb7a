"""Run the command line as `python -m phopf`, through the process entry
point phopf.cli.run: main(), then gc.freeze(), so the collections at
interpreter exit skip the heap that dies with the process."""

import sys

from .cli import run

if __name__ == "__main__":
    sys.exit(run())
