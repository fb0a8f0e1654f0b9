"""Set-up as a session pays it: a fresh interpreter imports the library and
builds one workload's inputs from the seed.  It then prints the reference
kernel's time (see ``pace.py``) in this same process, so that the caller can
scale the set-up time by the speed of the core it ran on.

    python3 perfbench/setup_probe.py <workload> <seed>   (with PYTHONPATH=src)
"""

import sys

import pace
import workloads

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).prepare()
    print(pace.reference_s())
