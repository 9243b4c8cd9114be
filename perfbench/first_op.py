"""Set-up probe: in a fresh interpreter, import rootlocus, build one workload's
inputs and run its first operation; print the seconds that took and the
machine-speed factor (calibration.py) measured right after it.

    python3 perfbench/first_op.py <workload> <seed> <work_dir>
"""

import os
import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    import rootlocus  # noqa: F401
    import workloads

    workload, seed, work_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    problems = workloads.build(workload, seed)
    workloads.operation(workload)(problems[0], work_dir)
    wall = time.perf_counter() - t0

    import calibration

    # the speed switches faster than the set-up lasts: average over a window
    print(wall, calibration.factor([calibration.kernel_s() for _ in range(40)]))


if __name__ == "__main__":
    main()
