"""The modelled bytes of a `reproduce at-scale` report, and their sha256.

A report carries host measurements (`wall_s`, `events_per_sec`) and the
worker knobs that explain them (`jobs`, `rack_jobs`) next to its modelled,
deterministic results. With those four keys stripped at every level and the
rest dumped canonically, the bytes depend only on the model, the grid and the
seed: every worker count gives the same digest, and any modelled change, however
small, gives another.

CI steps import this module (with `.github` on PYTHONPATH). Run as a script,
it prints the stripped sha256 of each report named on the command line:

    python3 .github/report_digest.py BENCH_cluster.json
"""

import hashlib
import json
import sys

MEASURED = {"wall_s", "events_per_sec", "jobs", "rack_jobs"}


def load(path):
    with open(path) as f:
        return json.load(f)


def strip(node):
    """`node` without the measured keys, at every level."""
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items() if k not in MEASURED}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


def digest(report):
    """The sha256 of the stripped report, dumped with sorted keys."""
    dump = json.dumps(strip(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(dump.encode()).hexdigest()


def check_pinned(report, prefix, name):
    """Fails unless the stripped report's sha256 starts with `prefix`."""
    found = digest(report)
    print(f"{name} stripped-report sha256 {found}")
    assert found.startswith(prefix), \
        f"{name} report moved: sha256 {found}, pinned {prefix}"


if __name__ == "__main__":
    for path in sys.argv[1:]:
        print(digest(load(path)), path)
