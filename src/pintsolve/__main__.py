"""``python -m pintsolve``: the command-line interface of ``pintsolve.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
