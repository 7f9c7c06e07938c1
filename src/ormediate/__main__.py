"""``python -m ormediate``: the same entry point as the ``ormediate`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
