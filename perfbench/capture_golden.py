"""Write golden_reference.json: the stability intervals, critical points,
axis events and initial unstable count of the four reference problems, as
computed by the rootlocus in ``src/`` of this checkout.

    python3 perfbench/capture_golden.py

Run it only to re-anchor the reference check after a change that is meant to
move these values, and say so in the change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402
from rootlocus import engine  # noqa: E402


def main() -> None:
    doc = {
        name: workloads.golden_record(engine.compute_root_locus(problem))
        for name, problem in zip(workloads.REFERENCE_NAMES, workloads.reference_problems())
    }
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
