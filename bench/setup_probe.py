"""Set-up a CLI run pays before it computes: interpreter start, importing
embalign and its CLI, and loading every input file.

    python bench/setup_probe.py FILE...

Prints time.monotonic() once the last file is loaded; the caller subtracts
the monotonic time at which it spawned this process.  Needs ``src`` on
PYTHONPATH.
"""

import sys
import time

import embalign.cli  # noqa: F401  (imported for its cost, as every CLI run does)
from embalign import embedstore

for path in sys.argv[1:]:
    embedstore.load_embeddings(path, "binary")
print(repr(time.monotonic()))
