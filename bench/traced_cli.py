"""Run the embalign CLI with every layer call recorded as a span.

    python bench/traced_cli.py SPANS.json <embalign CLI arguments...>

Spans are held in memory and written to SPANS.json when the CLI returns;
the exit code is the CLI's.  Needs ``src`` on PYTHONPATH.
"""

import json
import sys

import embalign.cli
from spans import Recorder, install, spans_to_json


def main(spans_path, argv):
    recorder = Recorder()
    install(recorder)
    try:
        return embalign.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump(spans_to_json(recorder.spans), f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
