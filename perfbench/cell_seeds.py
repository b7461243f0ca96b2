#!/usr/bin/env python3
"""Picks the cell-seed table of the `cell-rr3-2e20` workload.

    python3 perfbench/cell_seeds.py [COUNT]

`gen::random_regular` rejects whole pairings until one is simple; at d = 3
a pairing is simple with probability about e^-2, so the attempt count is
geometric and the generation time of one seed can be 1 or 20 pairings.
That luck of the draw would swing the workload's wall time by 2x between
seeds. The workload therefore maps its seed into a table of cell seeds
whose first simple pairing is attempt 5, the median of that geometric
distribution: every table graph is still a uniform random simple
3-regular graph, and every run pays a typical generation cost.

This prints the first COUNT (default 17: sixteen for the workload seeds,
one reserved for the held-out seed) such seeds among 0, 1, 2, ..., for
pasting into `CELL_SEEDS` in `run.py`. It builds the worker first.
"""

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import run

N, D, ATTEMPTS = 1 << 20, 3, 5


def attempts(binary, seed):
    out = subprocess.run([str(binary), "rr-attempts", "--n", str(N), "--d", str(D),
                          "--seed", str(seed), "--max", str(ATTEMPTS)],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)["attempts"]


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 17
    binary = run.build(run.hermetic_env())
    found, start = [], 0
    with ThreadPoolExecutor(max_workers=run.nproc()) as pool:
        while len(found) < count:
            batch = range(start, start + 16)
            for seed, a in zip(batch, pool.map(lambda s: attempts(binary, s), batch)):
                if a == ATTEMPTS and len(found) < count:
                    found.append(seed)
                    print(f"seed {seed}: first simple pairing on attempt {a}", file=sys.stderr)
            start += 16
    print(json.dumps(found))


if __name__ == "__main__":
    main()
