"""Time one set-up of a benchmark workload.

Set-up is importing gbfan from the checkout's `src/` and running one
warm-up op per distinct (p, n, m), which fills the library's lazy caches.
`run.py` times its own set-up with `timed_setup` and runs this file as a
script in fresh interpreters for further samples:

    python3 perfbench/probe.py '[["fan", "warm.json", "--max-box", "16"]]'

prints the seconds taken.
"""

import contextlib
import importlib
import io
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def timed_setup(warmups):
    """Seconds to import gbfan.cli and run each warm-up argv through it."""
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("gbfan.cli")
    for argv in warmups:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"warm-up {argv} exited {code}")
    return time.perf_counter() - start


if __name__ == "__main__":
    print(timed_setup(json.loads(sys.argv[1])))
