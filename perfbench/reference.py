"""Reference timing too long for a benchmark run: the conditional
product-basis advantage of correlated Erdos-Renyi at n=4, D=2
(q=1/4, rho=7/20) on pi(0)=0 and on pi(0)=1, each checked against the
closed-form orbit sum 249/200.

    python3 perfbench/reference.py

Run from the root of a source checkout; takes about three minutes.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles as orc  # noqa: E402
from lowdeg import advantage as adv  # noqa: E402
from lowdeg import measures as ms  # noqa: E402
from lowdeg import models as md  # noqa: E402


def main() -> int:
    p4 = md.ModelParams(n=4, q=F(1, 4), rho=F(7, 20))
    t0 = time.perf_counter()
    joint = ms.correlated_er_joint_measure(4, p4.p, p4.s)
    print(f"correlated_er_joint_measure n=4: {time.perf_counter() - t0:.2f} s, {len(joint)} atoms")
    want = orc.correlated_er_advantage_sq(4, p4.rho, 2, fixed=0)
    ok = True
    for j in (0, 1):
        t0 = time.perf_counter()
        rep = adv.conditional_advantage(joint, p4, 2, 0, j)
        print(f"conditional_advantage n=4 D=2 pi(0)={j}: {time.perf_counter() - t0:.2f} s, "
              f"value_squared {rep.value_squared} (orbit sum {want})")
        ok = ok and rep.value_squared == want
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
