import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special, stats

from maicsim.stochastic import (
    Bernoulli,
    Normal,
    Poisson,
    UNIFORM_RANGE,
    draw_variates,
    drawn_range,
    exponential_inverse,
    RandomStream,
    ndtri,
)

E2 = math.exp(-2)


def test_same_seed_same_uniforms():
    a = RandomStream(555)
    b = RandomStream(555)
    assert np.array_equal(a.uniforms(1000), b.uniforms(1000))


def test_different_seeds_differ():
    assert RandomStream(0).uniforms(1)[0] != RandomStream(1).uniforms(1)[0]


def test_uniforms_in_open_interval():
    u = RandomStream(7).uniforms(10_000)
    assert np.all(u > 0.0) and np.all(u < 1.0)


# the least and the greatest value of ``Generator.random``: 0 and
# (2**53 - 1) * 2**-53
EXTREME_RANDOM = np.array([0.0, 1.0 - 2.0**-53])


def test_uniforms_below_one_at_the_largest_integer():
    # (2**53 - 1) * 2**-53 + 2**-54 rounds to 1.0, which would make an
    # event time 0 and a Normal draw +inf
    class Bits:
        def random(self, size):
            return EXTREME_RANDOM[:size].copy()

    s = RandomStream(7)
    s._bits = Bits()
    assert s.uniforms(2).tolist() == [2.0**-54, np.nextafter(1.0, 0.0)]
    assert np.all(exponential_inverse(s.uniforms(2), 1.0) > 0)
    assert np.all(np.isfinite(draw_variates(s, Normal(0.0, 1.0), 2)))


def test_drawn_range_is_the_draws_at_the_extreme_uniforms():
    class Bits:
        def random(self, size):
            return np.resize(EXTREME_RANDOM, size)

    s = RandomStream(7)
    s._bits = Bits()
    assert tuple(s.uniforms(2)) == UNIFORM_RANGE
    # a p below the least uniform draws only 0, as p = 0 does
    for dist in (Bernoulli(0.0), Bernoulli(1e-20), Bernoulli(0.5), Bernoulli(1.0)):
        x = draw_variates(s, dist, 2)
        assert drawn_range(dist) == (x.min(), x.max())
    for dist in (Normal(0.0, 1.0), Poisson(3.4)):
        assert drawn_range(dist) is None


def test_uniforms_are_the_midpoints_of_53_bit_integers():
    # Generator.random keeps the top 53 bits of each 64-bit output, as
    # integers(0, 2**53) does: a power-of-two range is never rejected. So
    # random() + 2**-54 rounds the same real number as (k + 0.5) * 2**-53,
    # call after call, whatever the sizes of the calls
    for seed in (0, 1, 555, 2**63 + 7):
        s = RandomStream(seed)
        bits = np.random.Generator(np.random.PCG64(seed))
        for n in (0, 1, 7, 33_333, 100_000, 1, 0, 7):
            k = bits.integers(0, 2**53, size=n, dtype=np.int64)
            old = np.minimum((k + 0.5) * 2.0**-53, np.nextafter(1.0, 0.0))
            assert np.array_equal(s.uniforms(n), old)
        assert s.draw_count == 2 * (1 + 7) + 33_333 + 100_000


def test_reproducible_across_mixed_call_sequence():
    def run():
        s = RandomStream(42)
        out = list(draw_variates(s, Normal(0, 1), 1))
        out.extend(draw_variates(s, Poisson(3.4), 5))
        out.extend(exponential_inverse(s.uniforms(1), 2.0))
        out.extend(draw_variates(s, Bernoulli(0.3), 3))
        return out

    assert run() == run()


@pytest.mark.parametrize("bad", [
    lambda: Normal(0, 0),
    lambda: Normal(0, -1),
    lambda: Poisson(0),
    lambda: Poisson(-2),
    lambda: Bernoulli(-0.1),
    lambda: Bernoulli(1.1),
    # every check is written so that NaN fails it
    lambda: Bernoulli(math.nan),
    # exp(-lambda) underflows: the inversion sampler would never stop
    lambda: Poisson(709.0),
    lambda: Poisson(math.inf),
])
def test_parameter_validation(bad):
    with pytest.raises(ValueError):
        bad()


def test_unknown_distribution_spec_rejected():
    for spec in ("normal", None, {"kind": "normal", "mean": 0.0, "sd": 1.0}):
        with pytest.raises(TypeError, match="unknown distribution spec"):
            draw_variates(RandomStream(0), spec, 3)


def test_exponential_inverse_at_half():
    # quantile identity: -ln(0.5)/1 = ln 2
    assert exponential_inverse(0.5, 1.0) == pytest.approx(math.log(2), abs=1e-12)


def test_poisson_mean():
    s = RandomStream(101)
    x = draw_variates(s, Poisson(3.4), 10**6)
    assert x.mean() == pytest.approx(3.4, abs=0.01)
    assert np.all(x >= 0) and np.all(x == np.floor(x))


def test_bernoulli_mean():
    s = RandomStream(202)
    x = draw_variates(s, Bernoulli(0.74), 10**6)
    assert set(np.unique(x)) <= {0.0, 1.0}
    assert x.mean() == pytest.approx(0.74, abs=0.005)


def test_draw_count_uniform_and_normal():
    s = RandomStream(1)
    s.uniforms(10)
    assert s.draw_count == 10
    draw_variates(s, Normal(2.0, 3.0), 25)
    assert s.draw_count == 35
    exponential_inverse(s.uniforms(5), 1.0)
    assert s.draw_count == 40
    draw_variates(s, Bernoulli(0.5), 7)
    assert s.draw_count == 47


def test_draw_count_poisson_inversion():
    # multiplicative inversion consumes k+1 uniforms to produce the value k
    s = RandomStream(9)
    x = draw_variates(s, Poisson(3.4), 1000)
    assert s.draw_count == int(x.sum()) + 1000


def masked_loop_poisson(stream, lam, n):
    """Reference sampler: a full-length boolean mask on every pass."""
    limit = math.exp(-lam)
    counts = np.zeros(n)
    prod = stream.uniforms(n)
    active = prod >= limit
    while active.any():
        counts[active] += 1
        prod[active] *= stream.uniforms(int(active.sum()))
        active = prod >= limit
    return counts


@pytest.mark.parametrize("lam", [0.5, 3.4, 50, 700])
def test_poisson_matches_masked_loop(lam):
    got_stream, want_stream = RandomStream(21), RandomStream(21)
    got = draw_variates(got_stream, Poisson(lam), 2000)
    want = masked_loop_poisson(want_stream, lam, 2000)
    assert got.tobytes() == want.tobytes()
    assert got_stream.draw_count == want_stream.draw_count


def test_poisson_largest_lambda_terminates():
    x = draw_variates(RandomStream(10), Poisson(708.0), 20)
    assert abs(x.mean() - 708.0) < 4 * math.sqrt(708.0 / 20)


def test_uniform_ks():
    u = RandomStream(11).uniforms(10**5)
    assert stats.kstest(u, "uniform").pvalue > 0.001


def test_normal_ks_standardized():
    s = RandomStream(12)
    x = draw_variates(s, Normal(69.3, 5.0), 10**5)
    z = (x - 69.3) / 5.0
    assert stats.kstest(z, "norm").pvalue > 0.001


def test_exponential_ks():
    s = RandomStream(13)
    x = exponential_inverse(s.uniforms(10**5), 0.5)
    assert stats.kstest(x, "expon", args=(0, 2.0)).pvalue > 0.001


def test_poisson_chisquare():
    s = RandomStream(14)
    n = 10**5
    x = draw_variates(s, Poisson(3.4), n).astype(int)
    kmax = 12  # expected count in the tail bin stays well above 5
    observed = np.bincount(np.minimum(x, kmax + 1), minlength=kmax + 2)
    pmf = stats.poisson.pmf(np.arange(kmax + 1), 3.4)
    expected = np.append(pmf, 1.0 - pmf.sum()) * n
    p = stats.chisquare(observed, expected).pvalue
    assert p > 0.001


def test_bernoulli_chisquare():
    s = RandomStream(15)
    n = 10**5
    x = draw_variates(s, Bernoulli(0.92), n)
    observed = np.array([np.sum(x == 0), np.sum(x == 1)])
    expected = np.array([0.08, 0.92]) * n
    assert stats.chisquare(observed, expected).pvalue > 0.001


def test_bad_seed_rejected():
    # a float or a bool is refused, not truncated to seed 1
    for seed in (-1, 2**64, 1.5, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="64-bit unsigned integer"):
            RandomStream(seed)
    assert RandomStream(np.uint64(7)).uniforms(3).tobytes() == \
        RandomStream(7).uniforms(3).tobytes()


def assert_ndtri_matches_scipy(y):
    """Bit for bit in the central branch, within 8 ulp in the tails, where
    only ``np.log`` and the C library's ``log`` may differ."""
    y = np.asarray(y, dtype=float)
    got, want = ndtri(y), special.ndtri(y)
    central = (y > E2) & (y <= 1 - E2)
    assert got[central].tobytes() == want[central].tobytes()
    ulps = np.abs(got - want) / np.spacing(np.abs(want))
    assert np.all(ulps[~central] <= 8), y[~central][ulps[~central] > 8]


def test_ndtri_matches_scipy_on_stream_uniforms():
    assert_ndtri_matches_scipy(RandomStream(2024).uniforms(10**6))


def test_ndtri_matches_scipy_at_branch_edges():
    around = [v for x in (E2, 1 - E2)
              for v in (np.nextafter(x, 0), x, np.nextafter(x, 1))]
    # the smallest and largest stream uniforms, the branch edges, the
    # centre, and a y whose x = sqrt(-2 log y) is at least 8
    edges = [2.0**-54, 1 - 2.0**-53, *around, 0.5, 1e-300]
    assert np.sqrt(-2 * np.log(1e-300)) >= 8
    assert_ndtri_matches_scipy(edges)
    assert ndtri(np.array([0.5]))[0] == 0.0


@given(st.floats(0, 1, exclude_min=True, exclude_max=True))
def test_ndtri_matches_scipy_property(y):
    assert_ndtri_matches_scipy([y])
