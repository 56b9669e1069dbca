"""The seeded draws of ``acouple`` equal the stdlib's.

``sample_elem``, ``sample_ext`` and the scale draw of
``verify_couple_axioms`` read ``rng.getrandbits`` directly.  Here they are
run beside the stdlib calls they replace (``randint``, ``sample`` and
``choice``), on twin generators, and both the values and the generator
state must agree after every draw, so every later draw of a suite is the
same too.
"""

import random

import pytest

from aclab import acouple
from aclab.acouple import AXIOM_SCALES, COEFF_POOL, DQ_POOL, sample_elem, sample_ext
from aclab.ogroup import ExtElem, GroupElem, _from_items


def reference_sample_elem(rng, max_index=12, max_support=6, allow_zero=True):
    """sample_elem as written with the stdlib calls."""
    size = rng.randint(0 if allow_zero else 1, max_support)
    indices = rng.sample(range(max_index + 1), min(size, max_index + 1))
    return _from_items(tuple(sorted((i, *rng.choice(COEFF_POOL)) for i in indices)))


def twins(seed):
    return random.Random(seed), random.Random(seed)


# Random.sample keeps a pool while max_index + 1 <= 21 (support up to 5) or
# <= 85 (support 6), and a rejection set above; the wide supports reach the
# larger set sizes 21 + 4^4 and 21 + 4^5.
SHAPES = [(m, s) for m in (0, 3, 12, 20, 21, 22, 40, 84, 85, 86, 200) for s in range(1, 7)]
SHAPES += [(200, 30), (300, 30), (200, 60), (1000, 60)]


@pytest.mark.parametrize("allow_zero", [True, False])
@pytest.mark.parametrize("max_index, max_support", SHAPES)
def test_sample_elem_makes_the_stdlib_draws(max_index, max_support, allow_zero):
    for seed in range(12):
        rng, ref = twins(seed)
        for _ in range(8):
            got = sample_elem(rng, max_index, max_support, allow_zero)
            want = reference_sample_elem(ref, max_index, max_support, allow_zero)
            assert got.key == want.key
            assert rng.getstate() == ref.getstate()


def test_default_and_nonzero_draws():
    rng, ref = twins(2028)
    for _ in range(500):
        assert sample_elem(rng) == reference_sample_elem(ref)
        want = reference_sample_elem(ref, 5, allow_zero=False)
        while want.is_zero():
            want = reference_sample_elem(ref, 5, allow_zero=False)
        assert acouple.sample_nonzero(rng, 5) == want
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("max_support", [0, -1])
def test_an_empty_support_range_raises_as_randint_does(max_support):
    rng, ref = twins(1)
    with pytest.raises(ValueError):
        ref.randint(1, max_support)
    with pytest.raises(ValueError):
        sample_elem(rng, max_support=max_support, allow_zero=False)
    assert rng.getstate() == ref.getstate()
    assert sample_elem(rng, max_support=0) == GroupElem.ZERO == reference_sample_elem(ref, max_support=0)
    assert rng.getstate() == ref.getstate()
    with pytest.raises(ValueError):
        reference_sample_elem(ref, max_index=-2)
    with pytest.raises(ValueError):
        sample_elem(rng, max_index=-2)
    assert rng.getstate() == ref.getstate()


def test_sample_ext_makes_the_stdlib_draws():
    for seed in range(40):
        rng, ref = twins(seed)
        for _ in range(20):
            want = ExtElem(reference_sample_elem(ref), ref.choice(DQ_POOL))
            assert sample_ext(rng) == want
            assert rng.getstate() == ref.getstate()


def test_scale_draw_makes_the_stdlib_draws():
    assert AXIOM_SCALES == (-5, -3, -2, -1, 1, 2, 3, 7)
    rng, ref = twins(3)
    for _ in range(2000):
        assert AXIOM_SCALES[acouple._below(rng.getrandbits, len(AXIOM_SCALES))] == ref.choice(
            [-5, -3, -2, -1, 1, 2, 3, 7])
    assert rng.getstate() == ref.getstate()


def test_below_equals_randrange():
    rng, ref = twins(11)
    for n in [*range(1, 300), 511, 512, 513, 2 ** 40 - 1, 2 ** 40, 2 ** 40 + 1]:
        for _ in range(5):
            assert acouple._below(rng.getrandbits, n) == ref.randrange(n)
            assert rng.getstate() == ref.getstate()
