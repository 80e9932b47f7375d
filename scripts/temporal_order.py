#!/usr/bin/env python3
"""Strong temporal order of the semi-implicit scheme against one shared
reference at δ_min/refine on the base tape, on the default delta ladder.

Prints the raw p-moment slope, the normalized strong order, and the
per-rung error table.  Library-level twin of `snse-lab converge-time`.
"""

import argparse

from snselab.experiments import TemporalOrderConfig, temporal_order_study


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ensemble", type=int, default=128)
    ap.add_argument("--horizon", type=float, default=1.0)
    ap.add_argument("--noise-off", action="store_true")
    args = ap.parse_args()

    cfg = TemporalOrderConfig(ensemble=args.ensemble, horizon=args.horizon,
                              noise_on=not args.noise_off)
    report = temporal_order_study(cfg, args.seed)
    for row in report.tables["rungs"]:
        print(f"delta={row['delta']:.5f}  E[sup^p]={row['err_p_moment']:.4e}  "
              f"normalized={row['err_normalized']:.4e}")
    moment = report.fits["moment_p"]
    order = report.fits["order_p"]
    print(f"p=0.5 moment slope : {moment.slope:.4f}  (r2={moment.r_squared:.5f}, "
          f"ci +-{moment.ci_halfwidth:.4f})")
    print(f"strong order       : {order.slope:.4f}  (r2={order.r_squared:.5f})")


if __name__ == "__main__":
    main()
