"""Run ``repro serve`` with the benchmark's span probes installed.

Usage: ``python perfbench/traced_serve.py TRACE_FILE [serve options...]``

The probes wrap each layer's public entry points (see ``probes.py``); the
spans and the GC pause log stay in memory and are written to
``TRACE_FILE`` once the server has drained (SIGTERM).
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.probes import install_server_probes
    from perfbench.spans import Recorder
    from repro.cli import main as repro_main

    trace_file, serve_args = argv[0], argv[1:]
    recorder = Recorder()
    runtime = install_server_probes(recorder)
    code = repro_main(["serve", *serve_args])
    recorder.write(trace_file, gc=runtime["gc"])
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
