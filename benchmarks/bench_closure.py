#!/usr/bin/env python3
"""Time FiniteGroup.closure_bits and subgroup-lattice enumeration.

Two workloads: raw closure calls on random seeds, and full subgroup-lattice
enumeration (the production hot path). Each timing uses a freshly built
group, so no memo or cached multiplication row carries over. Each lattice
also reports its Dimino steps, the calls to `FiniteGroup.extend`, counted by
a wrapper installed here. Run from a source tree:

    PYTHONPATH=src python benchmarks/bench_closure.py [--big]

--big adds S6 (720 elements, 1455 subgroups) to the lattice workload.
"""

import argparse
import random
import time

from formations.dsl import parse_group
from formations.groups import FiniteGroup
from formations.lattice import all_subgroups

STEPS = [0]
_extend = FiniteGroup.extend


def _counted_extend(self, *args):
    STEPS[0] += 1
    return _extend(self, *args)


FiniteGroup.extend = _counted_extend


def time_raw_closures(name, rounds=2000, seed=1):
    g = parse_group(name)
    rng = random.Random(seed)
    seeds = [[rng.randrange(g.order) for _ in range(rng.randint(1, 3))]
             for _ in range(rounds)]
    t0 = time.perf_counter()
    for s in seeds:
        g.closure_bits(s)
    return time.perf_counter() - t0


def time_lattice(name):
    g = parse_group(name)
    STEPS[0] = 0
    t0 = time.perf_counter()
    lat = all_subgroups(g)
    return time.perf_counter() - t0, len(lat.subgroups), STEPS[0]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--big", action="store_true", help="include S6 in the lattice workload")
    args = ap.parse_args()

    t = time_raw_closures("S5")
    print(f"raw closures on S5 (order 120), 2000 random seeds: {t * 1000:.1f} ms")
    names = ["S4", "SL23", "A5", "S5", "A6"] + (["S6"] if args.big else [])
    print("\nfull lattice enumeration:")
    for name in names:
        elapsed, nsubs, steps = time_lattice(name)
        print(f"  {name:>5} ({nsubs:>4} subgroups): {elapsed:7.3f}s, {steps:>5} Dimino steps")


if __name__ == "__main__":
    main()
