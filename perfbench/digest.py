#!/usr/bin/env python3
"""Regenerate the simulated-record digests of sim-epochs and serve-stream.

Usage (from the root of a checkout)::

    python3 perfbench/digest.py                 # compare with digests.json
    python3 perfbench/digest.py --write         # record them
    python3 perfbench/digest.py --seeds 1,2,3

For each seed it runs, in process, the exact session configs the two
workloads run (same apps, seeds, sizes and epoch counts) and hashes
their per-epoch records.  The benchmark runs print the same lines
(``digest <workload> <app> seed=<s> epochs=<n> <hash>``), so a change
meant only for speed that alters any simulated result shows at once.
Exits 1 when a digest differs from the recorded one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from common import APPS  # noqa: E402
from serveload import SESSION_KW, SIZES as SERVE_SIZES, stream_seeds  # noqa: E402
from simload import DIGEST_FILE, SIZES as SIM_SIZES, app_seed, digest, load_digests, reference_records  # noqa: E402


def digests_for(seed: int) -> dict[str, str]:
    out = {}
    sim = SIM_SIZES["full"]
    configs = {
        (app, app_seed(seed, i)): (app, app_seed(seed, i), {"accesses_per_epoch": sim["accesses"]})
        for i, app in enumerate(APPS)
    }
    for (app, s), records in reference_records(configs, sim["epochs"]).items():
        out[f"sim-epochs {app} seed={s} epochs={sim['epochs']}"] = digest(records)
    n = SERVE_SIZES["serve-stream"]["full"]["epochs"]
    configs = {key: (key[0], key[1], SESSION_KW) for client in stream_seeds(seed) for key in client}
    for (app, s), records in reference_records(configs, n).items():
        out[f"serve-stream {app} seed={s} epochs={n}"] = digest(records)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--write", action="store_true", help=f"store them in {os.path.basename(DIGEST_FILE)}")
    args = p.parse_args(argv)
    recorded = load_digests()
    fresh = {}
    for seed in (int(s) for s in args.seeds.split(",")):
        fresh.update(digests_for(seed))
    differ = 0
    for key, value in fresh.items():
        known = recorded.get(key)
        status = "not recorded" if known is None else ("matches" if known == value else f"DIFFERS from {known}")
        differ += known is not None and known != value
        print(f"digest {key} {value} ({status})")
    if args.write:
        recorded.update(fresh)
        with open(DIGEST_FILE, "w") as f:
            json.dump(dict(sorted(recorded.items())), f, indent=1)
            f.write("\n")
        print(f"wrote {len(recorded)} digests to {DIGEST_FILE}")
        return 0
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
