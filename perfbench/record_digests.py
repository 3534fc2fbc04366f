"""Record the canonical report digest of each workload for a range of seeds.

run.py compares every sweep's digest with the one recorded here for its
workload and seed. Re-record only for a change that alters report bytes on
purpose, and say in that change which bits moved and why. From the
repository root:

    python3 perfbench/record_digests.py --seeds 0-63
"""

from __future__ import annotations

import argparse
import json
import sys

from run import DIGESTS, SCRATCH, run_sweep
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-63")
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))

    SCRATCH.mkdir(exist_ok=True)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name in sorted(WORKLOADS):
        for seed in range(first, last + 1):
            record = run_sweep(name, seed, traced=False)
            if record is None or not all(record["checks"].values()):
                print(f"{name} seed {seed}: sweep failed", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = record["digest"]
            print(f"{name} seed {seed}: {record['digest']}", flush=True)
    digests = {name: dict(sorted(by_seed.items(), key=lambda kv: int(kv[0])))
               for name, by_seed in sorted(digests.items())}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
