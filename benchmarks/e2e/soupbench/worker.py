"""One run of one workload, in a process of its own.

``run.py`` starts this module with ``PYTHONPATH`` pointing at the repo's
``src`` and a fixed ``PYTHONHASHSEED``, so every run begins from the same
interpreter state and ``peak_rss_mb`` is the workload's alone.  Prints the
result as one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from typing import List, Optional

from soupbench.hostclock import HostClock
from soupbench.spec import TINY_WORKLOADS, WORKLOADS, LiveSpec


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    spec = (TINY_WORKLOADS if args.tiny else WORKLOADS)[args.workload]
    trace = bool(args.trace)
    # End-to-end times are read off the host clock; a traced run reports
    # none, and a profiled burst would say nothing about the host.
    clock = HostClock()
    if not trace:
        clock.start()
    try:
        if isinstance(spec, LiveSpec):
            from soupbench import live

            result = live.run(spec, args.seed, args.seconds, trace, clock, max_ops=args.ops)
        else:
            from soupbench import sim

            result = sim.run(spec, args.seed, args.seconds, trace, clock)
    finally:
        clock.stop()
    result["detail"]["host"] = clock.summary()
    if not trace:
        # Linux reports ru_maxrss in KiB.
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"]["peak_rss_mb"] = peak_kib / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
