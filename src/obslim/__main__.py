"""``python -m obslim``: the command-line interface; importing this module runs nothing."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
