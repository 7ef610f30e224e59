"""Set-up as a CLI user pays it: import ``stitlab.cli`` and build one workload's inputs.

Run in a fresh interpreter by ``run.py``, which times it from spawn to exit:

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import stitlab.cli  # noqa: E402,F401
import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.WORKLOADS[name](seed, workdir).build(0)
