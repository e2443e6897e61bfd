"""Run one ``bbforge`` command with spans recorded.

Usage: ``cli_traced.py SUMMARY_JSON [bbforge arguments...]``.  Times the
import of ``bbforge.cli``, runs the command under the tracer and writes the
trace summary to ``SUMMARY_JSON``.  Exits with the command's exit code.
"""

import json
import sys
import time
from pathlib import Path

from tracer import Tracer


def main() -> int:
    summary_path, argv = Path(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    import bbforge.cli

    tracer = Tracer()
    tracer.spans.append(("cli.import", start, time.perf_counter(), -1))
    with tracer:
        code = tracer.record("cli." + argv[-1], bbforge.cli.main, argv)
    summary_path.write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main())
