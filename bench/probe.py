"""Set-up probe: a fresh interpreter imports coordproj.cli and warms up each subcommand.

Usage: python3 bench/probe.py PLAN.json

PLAN.json lists the argument vectors of the warm-up calls. The probe prints
one JSON line with the time its own `import coordproj.cli` took; the caller
times the whole process.
"""

import json
import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from coordproj import cli  # noqa: E402

import_s = time.perf_counter() - start


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        calls = json.load(fh)
    for argv in calls:
        code = cli.main(argv)
        if code != 0:
            print(f"warm-up call {argv[0]} exited with code {code}", file=sys.stderr)
            return 1
    print(json.dumps({"import_s": import_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
