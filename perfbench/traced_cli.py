"""Run ``birot4.cli`` with the span tracer installed; write the spans at exit.

Usage: python traced_cli.py SPANS_JSON <birot4 cli arguments...>
The package must be importable (PYTHONPATH pointing at ``src``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from perftrace import Tracer


def main() -> int:
    spans_path = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    from birot4 import cli

    tracer.enabled = True
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.enabled = False
        spans_path.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
