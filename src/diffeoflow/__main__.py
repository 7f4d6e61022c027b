"""Run the command-line front end as ``python -m diffeoflow``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
