"""``python -m electra``: the ``electra`` command line."""
import sys

from .cli import main

sys.exit(main())
