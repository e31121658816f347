"""Traced `qrank` command for the verify-cold workload.

    python3 perfbench/cold_child.py <stats.json> verify --filter <id> --json <out>

Runs ``qrank.cli.main`` on the remaining arguments with the layer tracer
installed, then writes the per-layer totals of this one process to
<stats.json>.  The library comes from PYTHONPATH, as for ``python -m qrank.cli``.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import qrank.cli

    tracer = Tracer()
    missed = tracer.install()
    if missed:
        print("tracer could not rebind: %s" % "; ".join(missed), file=sys.stderr)
        return 3
    try:
        code = qrank.cli.main(argv)
        info = tracer.theta_cache.cache_info()
    finally:
        tracer.uninstall()
    stats = dict(tracer.counters)
    for name in tracer.names:
        for kind in ("calls", "self_s", "total_s"):
            stats["%s.%s" % (name, kind)] = tracer.stat(name, kind)
    stats["theta.theta_j.hits"] = info.hits
    stats["theta.theta_j.misses"] = info.misses
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
