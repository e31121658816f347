"""Record the output digests every seed can draw, into digests.json.

    python3 perfbench/record.py [workload ...]

For each in-process workload, certifies every instantiation once with each
exponent of its conjugation menu and stores sha256(to_json_dict of both
sides) per (instantiation, exponent); verify-cold stores the digest of each
report document with its timing fields removed.  Every verdict must be
``pass``.  Rerun only when an intended change alters serialized output.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import MENU_SIZE, WORKLOADS


def record(workload) -> dict:
    run.load_library()
    if workload.cold:
        passes = [run.run_cold_pass(workload.cold_commands(0, 0), False, run.RESULTS)]
    else:
        templates = workload.templates()
        caches = run.library_caches()
        passes = [run.run_pass(workload.fixed(templates, i), caches) for i in range(MENU_SIZE)]
    digests = {}
    for res in passes:
        print("%s: pass of %d in %.2f s" % (workload.name, len(res.outcomes), res.wall_s),
              flush=True)
        for key, verdict, digest in res.outcomes:
            if verdict != "pass":
                raise SystemExit("%s: %s" % (key, verdict))
            if digests.setdefault(key, digest) != digest:
                raise SystemExit("%s: output differs between two runs" % key)
    return dict(sorted(digests.items()))


def main(names) -> int:
    os.makedirs(run.RESULTS, exist_ok=True)
    doc = {}
    if os.path.exists(run.DIGESTS):
        with open(run.DIGESTS) as fh:
            doc = json.load(fh)
    for name in names or list(WORKLOADS):
        doc[name] = record(WORKLOADS[name])
    with open(run.DIGESTS, "w") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
