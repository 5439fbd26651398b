#!/usr/bin/env python3
"""Time FiniteGroup.closure_bits on each available closure backend.

"python" is Dimino's algorithm in pure Python; "cython" is the compiled BFS,
timed only when the extension is built. Two workloads: raw closure calls on
random seeds, and full subgroup-lattice enumeration (the production hot
path). Each timing uses a freshly built group, so no memo or cached
multiplication row carries over between backends. Run from a source tree:

    PYTHONPATH=src python benchmarks/bench_closure.py [--big]

--big adds S6 (720 elements, 1455 subgroups) to the lattice workload.
"""

import argparse
import random
import time

import formations.groups as groups_mod
from formations.dsl import parse_group
from formations.lattice import all_subgroups


def backends():
    out = [("python", None)]
    try:
        from formations._closure import closure_packed
    except ImportError:
        print("note: compiled extension not available; timing the pure kernel only")
    else:
        out.insert(0, ("cython", closure_packed))
    return out


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
    t0 = time.perf_counter()
    lat = all_subgroups(g)
    return time.perf_counter() - t0, len(lat.subgroups)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--big", action="store_true", help="include S6 in the lattice workload")
    args = ap.parse_args()

    kernels = backends()
    selected = groups_mod.closure_packed
    try:
        print("raw closures on S5 (order 120), 2000 random seeds:")
        base = None
        for label, kernel in kernels:
            groups_mod.closure_packed = kernel
            t = time_raw_closures("S5")
            base = base or t
            print(f"  {label:>7}: {t * 1000:8.1f} ms   ({t / base:5.1f}x the first row)")

        names = ["S4", "SL23", "A5", "S5"]
        if args.big:
            names.append("S6")
        print("\nfull lattice enumeration:")
        for name in names:
            row = []
            nsubs = 0
            for label, kernel in kernels:
                groups_mod.closure_packed = kernel
                elapsed, nsubs = time_lattice(name)
                row.append(f"{label} {elapsed:7.3f}s")
            print(f"  {name:>5} ({nsubs:>4} subgroups): " + "   ".join(row))
    finally:
        groups_mod.closure_packed = selected


if __name__ == "__main__":
    main()
