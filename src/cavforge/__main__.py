"""``python -m cavforge``: the same command line as the ``cavforge`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
