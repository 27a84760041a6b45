"""`python -m gradecat`: the command-line front end, `gradecat.cli.main`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
