"""``python -m qrg``: the qrg command line, as installed under the name qrg."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
