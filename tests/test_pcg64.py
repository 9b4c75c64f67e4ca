"""The pure-Python PCG64 stream against numpy's Generator(PCG64(seed)).

numpy is only an oracle here (the `test` extra in pyproject.toml); without
it this module is skipped, and test_sim_engine.py still pins the stream's
first arrivals on the reference scenario.
"""

import random

import pytest

from hcs_sim.pcg64 import Pcg64

np = pytest.importorskip("numpy")

# Lemire's rejection threshold is 2**32 mod n: about half of all 32-bit
# draws are rejected for n = 2**31 + 1, none for a power of two
BOUNDS = [2, 3, 5, 6, 7, 1000, 2**31 + 1, 2**32 - 1, 2**32, 1]
WIDE_SEEDS = [2**32, 2**40 + 7, 2**64 - 1, 10**30, 2**128 - 1,
              # more than 128 bits: the entropy words past the pool mix in
              2**128, 2**128 + 1, 2**200 + 3, 3**630, 2**1000 + 12345]


def assert_same_draws(seed, draws=300):
    """A seeded random interleaving of doubles and bounded integers."""
    want = np.random.Generator(np.random.PCG64(seed))
    got = Pcg64(seed)
    plan = random.Random(seed)
    for i in range(draws):
        if plan.random() < 0.5:
            assert got.random() == float(want.random()), (seed, i)
        else:
            n = plan.choice(BOUNDS)
            assert got.integers(n) == int(want.integers(0, n)), (seed, i, n)


@pytest.mark.parametrize("seeds", [range(0, 100), range(100, 300), [2024] + WIDE_SEEDS],
                         ids=["0-99", "100-299", "wide"])
def test_matches_numpy_draw_for_draw(seeds):
    for seed in seeds:
        assert_same_draws(seed)


class CountingPcg64(Pcg64):
    def __init__(self, seed):
        super().__init__(seed)
        self.words = 0

    def _next32(self):
        self.words += 1
        return super()._next32()


def test_rejection_branch_is_taken_and_matches():
    n = 2**31 + 1
    want = np.random.Generator(np.random.PCG64(7))
    got = CountingPcg64(7)
    for _ in range(200):
        assert got.integers(n) == int(want.integers(0, n))
    assert got.words > 200 + 50, "no 32-bit draw was rejected"


def test_high_half_waits_across_doubles():
    """An odd number of 32-bit draws leaves a high half that the doubles in
    between do not consume."""
    want = np.random.Generator(np.random.PCG64(5))
    got = Pcg64(5)
    assert got.integers(6) == int(want.integers(0, 6))
    for _ in range(3):
        assert got.random() == float(want.random())
    assert got.integers(6) == int(want.integers(0, 6))
    assert got.random() == float(want.random())


def test_one_value_takes_no_draw():
    want = np.random.Generator(np.random.PCG64(11))
    got, untouched = Pcg64(11), Pcg64(11)
    for _ in range(5):
        assert got.integers(1) == int(want.integers(0, 1)) == 0
    assert got.random() == untouched.random() == float(want.random())
    assert got.integers(3) == untouched.integers(3) == int(want.integers(0, 3))


def test_full_32_bit_range_is_one_word():
    want = np.random.Generator(np.random.PCG64(3))
    got = CountingPcg64(3)
    for _ in range(20):
        assert got.integers(2**32) == int(want.integers(0, 2**32))
    assert got.words == 20


def test_out_of_range_is_refused():
    with pytest.raises(ValueError):
        Pcg64(-1)
    stream = Pcg64(1)
    for n in (0, -3, 2**32 + 1):
        with pytest.raises(ValueError):
            stream.integers(n)
