"""Set-up probe: a fresh interpreter imports one workload's modules and
makes its first small run (``python3 perfbench/probe.py NAME``); the
benchmark times the whole process."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].probe()


if __name__ == "__main__":
    main()
