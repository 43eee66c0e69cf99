"""The set-up phase of one benchmark workload, run in a fresh interpreter:
import ``repro``, then build every SCoP and cache config the workload
simulates.  ``run.py`` times whole runs of this script as ``setup_s``.

    PYTHONPATH=src python3 perfbench/setup_probe.py stencil-warp
"""

import sys

import repro
from workloads import WORKLOADS


def main() -> int:
    points = WORKLOADS[sys.argv[1]].points()
    for p in points:
        repro.build_kernel(p.kernel, p.size_spec,
                           transform=p.transform or None)
        p.cache_config()
    print(len(points))
    return 0


if __name__ == "__main__":
    sys.exit(main())
