#!/usr/bin/env python
"""Evaluate every §VI-B/§VII headline claim of the paper against this
reproduction and print a HOLDS/DIFFERS report.

Run:  python examples/paper_claims.py [--quick]
"""

import argparse
import time

from repro.engine import DEFAULT_SCALE, QUICK_SCALE, SimulationSession
from repro.harness.claims import evaluate_claims, render_claims


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true",
                    help="small traces (fast, noisier)")
    args = ap.parse_args()

    scale = QUICK_SCALE if args.quick else DEFAULT_SCALE
    session = SimulationSession(scale)
    t0 = time.time()
    claims = evaluate_claims(session)
    print(render_claims(claims))
    n_hold = sum(c.holds for c in claims)
    print(f"\n{n_hold}/{len(claims)} claims hold "
          f"({time.time() - t0:.0f}s of simulation)")


if __name__ == "__main__":
    main()
