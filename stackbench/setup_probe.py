"""One fresh-process set-up of a workload; prints ``ready`` when done.

Usage: ``setup_probe.py WORKLOAD SEED SCRATCH_DIR``.  The parent times
it from before the interpreter starts until the ``ready`` line.
"""

from __future__ import annotations

import os
import pathlib
import sys


def main(argv) -> int:
    workload, seed, scratch = argv[0], int(argv[1]), pathlib.Path(argv[2])
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "repro-cache")
    os.environ["REPRO_KERNEL_DIR"] = str(scratch / "kernels")
    import importlib

    from common import Context

    ctx = Context(checkout=pathlib.Path.cwd(), private=scratch, seed=seed,
                  seconds=0.0)
    importlib.import_module(workload).prepare(ctx)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
