"""`python -m mcalc`: the same command line as the `mcalc` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
