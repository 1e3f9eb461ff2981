"""``python -m uqcentre``: the command-line interface of :mod:`uqcentre.cli`."""

import sys

from .cli import main

sys.exit(main())
