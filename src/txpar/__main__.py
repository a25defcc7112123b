"""`python -m txpar ...`: the `txpar` command without an installed script,
for example `PYTHONPATH=src python -m txpar --help` from a checkout."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
