"""``python -m repro.cli``: the ``repro`` command (see :mod:`repro.cli`).

A ``__main__`` module, unlike a plain ``-m`` module, is not re-run as
``__mp_main__`` in every process multiprocessing starts.
"""

import sys

from repro.cli import main

sys.exit(main())
