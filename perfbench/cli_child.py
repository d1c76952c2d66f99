"""Traced stand-in for ``python -m gafunc.cli``, used by the traced run of
cli-oneshot.

    python3 perfbench/cli_child.py TRACE_FILE <gafunc arguments...>

It runs the same ``gafunc.cli.main`` with the per-layer wrappers installed,
records how long ``import gafunc.cli`` took, and writes both to TRACE_FILE
even when main raises (the traceback and exit code 1 then match the plain
command's).
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

start = time.perf_counter()
import gafunc.cli  # noqa: E402

import_ms = 1000 * (time.perf_counter() - start)

import json  # noqa: E402

from layers import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.active = True
try:
    code = gafunc.cli.main(sys.argv[2:])
finally:
    tracer.active = False
    Path(sys.argv[1]).write_text(json.dumps({"import_ms": import_ms, **tracer.raw()}))
sys.exit(code)
