"""The exact small-sample null law of the signed-rank statistic.

Under any continuous distribution symmetric about zero, the signs of the
ranked magnitudes are independent fair coins, so W+ has a distribution-free
null law: the coefficients of prod_{i=1..n} (1 + z^i) over 2^n.  This script
builds the table, reads off attainable one-sided levels (exact tests are
discrete: not every alpha is reachable), and shows how fast the Gaussian
approximation catches up.

Run:  python demos/exact_null_distribution.py
"""

import math

from scipy.special import ndtr

from mixrank import exact_null_pmf

# --- the table for n = 6 ----------------------------------------------------
pmf = exact_null_pmf(6)
print("n=6: P(W+ = k) out of 2^6 = 64 sign patterns")
for k, count in enumerate(pmf.counts):
    bar = "#" * count
    print(f"  k={k:2d}  count={count:2d}  {bar}")
print(f"mean = {pmf.exact_mean()} (= n(n+1)/4), variance = {pmf.exact_variance()}"
      " (= n(n+1)(2n+1)/24)")

# --- attainable levels -------------------------------------------------------
# An exact one-sided test can only realize the discrete tail probabilities.
print()
print("one-sided (greater) attainable levels near 5% as n grows:")
for n in (5, 10, 15, 20, 25):
    table = exact_null_pmf(n)
    k_star = min(k for k in range(table.support_max + 1) if table.sf(k) <= 0.05)
    print(f"  n={n:2d}: reject when W+ >= {k_star:3d}, attained size = {float(table.sf(k_star)):.5f}")

# --- exact vs. normal approximation -----------------------------------------
# With the +-0.5 continuity correction the Gaussian tail is already close for
# moderate n; the library's auto mode switches from exact to normal at n=25.
print()
print("upper-tail p at the exact 5% cutoff: exact vs. continuity-corrected normal")
for n in (10, 20, 40, 60):
    table = exact_null_pmf(n)
    k_star = min(k for k in range(table.support_max + 1) if table.sf(k) <= 0.05)
    exact_p = float(table.sf(k_star))
    mean = n * (n + 1) / 4.0
    sd = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
    approx_p = float(ndtr(-(k_star - 0.5 - mean) / sd))
    print(f"  n={n:2d}, W+={k_star:4d}: exact {exact_p:.5f}  normal {approx_p:.5f}"
          f"  diff {abs(exact_p - approx_p):.5f}")
