"""Child process of a library workload.

``python3 perfbench/libchild.py <workload> --seed N --seconds S --trace 0|1
[--setup-only]`` imports the program, builds the workload's inputs,
prints ``ready`` once it is ready to time, then (unless
``--setup-only``) runs the timed phase and prints its raw measurements
as one JSON line. The parent turns those into metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import use_program  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    use_program()
    module = importlib.import_module(args.workload)
    state = module.setup(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    payload = module.measure(state, args.seconds, bool(args.trace))
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
