#!/usr/bin/env python3
"""Records reference digests for more seeds into reference_digests.txt.

    python3 perfbench/record_digests.py --size full --seeds 0-20
    python3 perfbench/record_digests.py --size smoke --seeds 1,2

Run from the repository root, on a commit whose outputs are known good.
Each workload runs once per seed with a short --seconds (every output is
still produced and checked in-run); the digests it computes replace any
stored for that (size, workload, seed).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "reference_digests.txt")
WORKLOADS = ("capture", "lineage", "serve", "ooc")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-20 or 1,2")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()

    out_dir = os.path.join(ROOT, ".bench_out", "record")
    os.makedirs(out_dir, exist_ok=True)
    emitted = os.path.join(out_dir, "digests.txt")
    if os.path.exists(emitted):
        os.remove(emitted)
    empty = os.path.join(out_dir, "no_references.txt")
    open(empty, "w").close()
    done = set()
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", "1", "--trace", "0", "--size", args.size,
                   "--out-dir", out_dir, "--references", empty,
                   "--emit-digests", emitted]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                print("run failed: " + " ".join(cmd), file=sys.stderr)
                return 1
            done.add((args.size, workload, str(seed)))
            print("recorded %s %s seed %d" % (args.size, workload, seed))

    kept = []
    if os.path.exists(REFERENCES):
        with open(REFERENCES) as f:
            kept = [l for l in f.read().splitlines()
                    if tuple(l.split()[:3]) not in done]
    with open(emitted) as f:
        kept += f.read().splitlines()
    kept = sorted(set(kept), key=lambda l: (l.split()[0], l.split()[1],
                                            int(l.split()[2]), l.split()[3]))
    with open(REFERENCES, "w") as f:
        f.write("\n".join(kept) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
