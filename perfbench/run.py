"""Benchmark entry point; run it from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

It imports boolgb from ``src/`` of the same checkout (nothing needs to be
installed) and exits with status 2, printing no result, when that source
tree is missing.  Outputs go to ``perfbench/out/``.
"""

import importlib
import os
import statistics
import sys

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
IMPORTS = 5


def import_seconds():
    """Median time to import boolgb from scratch, over ``IMPORTS`` rounds,
    corrected for the host's speed like every other time (see reference.py).

    Each round drops the package from ``sys.modules`` first; the modules of
    the last round are the ones the run uses.
    """
    times = []
    for _ in range(IMPORTS):
        for name in [m for m in sys.modules if m.split(".")[0] == "boolgb"]:
            del sys.modules[name]
        _, _, corrected_s = reference.timed(
            lambda: importlib.import_module("boolgb.cli"))
        times.append(corrected_s)
    return statistics.median(times)


def main():
    if not os.path.isfile(os.path.join(SRC, "boolgb", "__init__.py")):
        sys.stderr.write(f"error: no boolgb sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    import_s = import_seconds()
    import boolgb
    if not os.path.abspath(boolgb.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: boolgb was imported from {boolgb.__file__}\n")
        return 2

    import harness
    return harness.main(sys.argv[1:], import_s, os.path.join(HERE, "out"))


if __name__ == "__main__":
    sys.exit(main())
