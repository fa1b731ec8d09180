"""`python -m dgres`: the same entry point as the `dgres` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
