#!/usr/bin/env python3
"""Growing-training-set study: FVU and min-term count at 225 / 400 / 700.

Training draws are nested per seed, so each larger run extends the smaller
one.  Prints one line per (function, seed, size) and a CSV block at the end.

    PYTHONPATH=src python scripts/run_growing_data.py [--functions g1 g3 g5] \\
        [--sizes 225 400 700] [--seeds 1 2 3]
"""

import argparse
import sys

from neurofuzzy.experiments import paper_modeling_config, run_modeling


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--functions", nargs="+", default=["g1", "g3", "g5"])
    parser.add_argument("--sizes", nargs="+", type=int, default=[225, 400, 700])
    args = parser.parse_args(argv)

    rows = []
    for fn in args.functions:
        for seed in args.seeds:
            for n in args.sizes:
                r = run_modeling(paper_modeling_config(fn, n_train=n, seed=seed))
                rows.append(r)
                print(f"{fn} seed={seed} n={n}: FVU={r.fvu_or_rate:.4f} "
                      f"min-terms={r.n_minterms}", file=sys.stderr)
    print("function,seed,n_train,fvu,n_minterms")
    for r in rows:
        print(f"{r.cfg.label},{r.cfg.seed},{r.cfg.n_train},{r.fvu_or_rate!r},{r.n_minterms}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
