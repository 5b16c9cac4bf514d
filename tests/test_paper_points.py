"""The paper's points as statistics over seeds, not as one seed's numbers.

Each check reads the replication's rows over seeds 1-400 at n = 1,000 on the
log scale. The bounds were derived on the disjoint seeds 401-2,400 (five blocks
of 400; see CHANGES.md), and the seed range is fixed: a failing check is a
finding about the code, not about the seeds.
"""

import math

import numpy as np
import pytest

from maicsim.harness import TRUTH_AC_S1, TRUTH_AC_S2, replicate_appendix

SEEDS = range(1, 401)
N = 1000

# Large-sample marginal log HRs of the univariable Cox models: the roots of
# the limiting score equation of a misspecified Cox fit, by quadrature over
# log t and the covariate law. The A-vs-C ones are the replication's own
# truths; tests/test_truths.py recomputes all four.
TRUTH_BC_S2 = -0.267225949830841            # B vs C in S2
TRUTH_AC_S2_AGE = -0.14490751583926254      # A vs C in S2 under Age x 0.005
QUADRATURE_TRUTHS = {
    "marginal_hr_AC_S1": TRUTH_AC_S1,       # A vs C in S1
    "marginal_hr_BC_S2": TRUTH_BC_S2,
    "maic_hr_scenario1": TRUTH_AC_S2,       # A vs C in S2
    "maic_hr_scenario3": TRUTH_AC_S2_AGE,
    # the anchored A-vs-B comparison in S2, d_AB = -0.0166002: the output
    # MAIC exists for
    "marginal_hr_ratio": TRUTH_AC_S2 - TRUTH_BC_S2,
}
# |mean - truth| <= 3 MCSE: on seeds 401-2,400 the largest of 25 block-row
# readings was 1.99 MCSE (1.28 for marginal_hr_ratio); an unbiased estimator
# fails one of the five rows with probability at most about 1.4 % (five
# two-sided 3-sigma tails)
BIAS_MCSE = 3.0
# MAIC that balances the imbalanced effect modifier Age (ESS about 12 %) pays
# for it in precision, the paper's point (2): the SD ratio read 2.31-2.64 in
# five blocks of 400 on seeds 401-2,400 (mean 2.51, SD 0.12), and 1.01 for
# scenario 1's MAIC, which leaves Age out
MIN_SD_RATIO = 2.0


@pytest.fixture(scope="module")
def log_rows():
    """quantity -> the log of its value at each seed."""
    runs = [{r.quantity: r.ours for r in replicate_appendix(seed, N).rows} for seed in SEEDS]
    return {q: np.log([run[q] for run in runs]) for q in QUADRATURE_TRUTHS}


@pytest.mark.parametrize("quantity", list(QUADRATURE_TRUTHS))
def test_marginal_estimators_are_unbiased_for_their_truths(log_rows, quantity):
    values = log_rows[quantity]
    mcse = values.std(ddof=1) / math.sqrt(len(values))
    bias = values.mean() - QUADRATURE_TRUTHS[quantity]
    assert abs(bias) <= BIAS_MCSE * mcse, (quantity, bias, bias / mcse)


def test_balancing_the_effect_modifier_costs_precision(log_rows):
    ratio = (log_rows["maic_hr_scenario3"].std(ddof=1)
             / log_rows["marginal_hr_AC_S1"].std(ddof=1))
    assert ratio >= MIN_SD_RATIO, ratio
