"""Scan the motion rule table for uncovered states.

Runs the certification sweep at increasing size bounds and reports the
first bound where a forward motion has no applicable rule, printing the
offending budget and state.  The crossing rules are local (they look at
most four parts ahead), so a clean sweep at bound B certifies every
partition of size <= B, independent of anything above it.

Run as `python scripts/motion_gap_scan.py [max_bound]` (default 64).
"""

import json
import sys
import time

from qschur import certify_range

limit = int(sys.argv[1]) if len(sys.argv) > 1 else 64

for bound in range(0, limit + 1, 2):
    t0 = time.time()
    summary = certify_range(bound)
    dt = time.time() - t0
    if summary["status"] == "verified":
        print("size <= %-3d ok   %5d partitions  %.1fs"
              % (bound, summary["partitions"], dt))
        continue
    failure = summary["failure"]
    print("size <= %-3d %s" % (bound, failure["kind"]))
    print(json.dumps(failure, indent=2))
    sys.exit(1)

print("no uncovered state up to size %d" % limit)
