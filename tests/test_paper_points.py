"""The paper's points as statistics over seeds, not as one seed's numbers.

Each check reads the replication's rows over seeds 1-400 at n = 1,000 on the
log scale. The bounds were derived on the disjoint seeds 401-2,400 (five blocks
of 400; see CHANGES.md), and the seed range is fixed: a failing check is a
finding about the code, not about the seeds.
"""

import math

import numpy as np
import pytest

from maicsim.harness import replicate_appendix

SEEDS = range(1, 401)
N = 1000

# Large-sample marginal log HRs of the A-vs-C and B-vs-C univariable Cox
# models, computed by quadrature over the covariate law (the limiting score
# equation of a misspecified Cox fit; ROADMAP item 1's values, checked against
# scipy's adaptive quadrature). Not the replication's simulated truths, which
# are single noisy draws.
QUADRATURE_TRUTHS = {
    "marginal_hr_AC_S1": -0.2835188,   # A vs C in S1
    "marginal_hr_BC_S2": -0.2672259,   # B vs C in S2
    "maic_hr_scenario1": -0.2838262,   # A vs C in S2
    "maic_hr_scenario3": -0.1449075,   # A vs C in S2 under Age x 0.005
}
# |mean - truth| <= 3 MCSE: on seeds 401-2,400 the largest of 20 block-row
# readings was 1.99 MCSE; an unbiased estimator fails one of the four rows
# with probability at most about 1.1 % (four two-sided 3-sigma tails)
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
