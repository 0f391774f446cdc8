#!/usr/bin/env python3
"""Measure boundary-layer extension certificates over the boundary-trace
corpus (corpus.boundary_data): mass ratio ~ eps and gradient ratio ~ 1 + eps.
The defaults (square, h = 1/512, seed 11, 20 members) reproduce the table of
acceptance criterion 06."""

import argparse

from bvcontact.cli import run_scenario


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/extension_study")
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--grid", type=float, default=1 / 512)
    ap.add_argument("--kappa", type=float, default=0.5)
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    scenario = {
        "task": "extend-verify",
        "domain": "square",
        "grid_h": args.grid,
        "seed": args.seed,
        "params": {"eps": args.eps, "n_corpus": args.n, "kappa": args.kappa},
    }
    rep = run_scenario(scenario, args.out)
    r = rep["result"]
    print(f"corpus of {r['n_corpus']} at eps={args.eps}: "
          f"worst l1_ratio={r['worst_l1_ratio']:.4f}, "
          f"worst grad_ratio={r['worst_grad_ratio']:.4f}")
    print(f"tables in {args.out}/ratios.csv")


if __name__ == "__main__":
    main()
