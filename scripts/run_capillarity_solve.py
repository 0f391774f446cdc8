#!/usr/bin/env python3
"""Minimize the capillary energy on the square and compare against the best
constant; also report the existence bound on nu for this geometry and the
solve's primal-dual gap."""

import argparse

from bvcontact.cli import run_scenario
from bvcontact.geometry import emmer_check, unit_square


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/capillarity")
    ap.add_argument("--nu", type=float, default=0.5)
    ap.add_argument("--grid", type=float, default=1 / 128)
    ap.add_argument("--iters", type=int, default=5000)
    args = ap.parse_args()

    check = emmer_check(args.nu, unit_square())
    print(f"existence bound |nu| < {check['bound']:.6f}: "
          f"{'inside' if check['passes'] else 'OUTSIDE'} at nu={args.nu}")

    scenario = {
        "task": "solve",
        "domain": "square",
        "nu": args.nu,
        "grid_h": args.grid,
        "params": {"bulk": "capillarity", "iters": args.iters, "tol": 1e-6},
    }
    rep = run_scenario(scenario, args.out)
    r = rep["result"]
    oracle = 1.0 - 4.0 * args.nu ** 2
    print(f"energy {r['energy_report']['total']:.6f} "
          f"(best constant {oracle:.6f}), residual {r['residual']:.2e} "
          f"in {r['iterations']} iterations")
    print(f"primal-dual gap {r['gap']:.3e} in the solver's energy / h^2 units "
          f"(relative {r['gap_relative']:.2e})")
    print(f"field + diagnostics in {args.out}/")


if __name__ == "__main__":
    main()
