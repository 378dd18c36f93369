"""``repro`` CLI with the layer wrappers installed, for traced serving.

Usage: ``python3 perfbench/serve_launcher.py SPANS_OUT serve [FLAGS...]``

Installs the :mod:`spans` wrappers inside the server process, runs the
CLI until its SIGTERM drain completes, then writes the recorded spans
to ``SPANS_OUT``.
"""

from __future__ import annotations

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def main(argv) -> int:
    sys.path.insert(0, SRC)

    import spans
    from repro.cli import main as repro_main

    recorder = spans.SpanRecorder()
    spans.install(recorder)
    try:
        return repro_main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
