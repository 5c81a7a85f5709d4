"""``python -m goesv``: the goesv command line."""

import sys

from .cli import main

sys.exit(main())
