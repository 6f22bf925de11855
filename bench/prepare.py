#!/usr/bin/env python3
"""Set-up step of one benchmark run, in a fresh interpreter.

Imports the package from the checkout and writes the workload's inputs
into ``--dir``: the certificate set and its manifest for ``replay``;
nothing for ``produce`` and ``check_sweep``, whose ops generate their
own instances. ``run.py`` times this whole process as ``setup_s``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from run import WORKLOADS, setup_environment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    setup_environment()
    import workloads

    if args.workload == "replay":
        workloads.prepare_replay(args.seed, Path(args.dir), args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
