"""The pure-Python normal stream equals numpy's default_rng standard normals
bit for bit, over both of the ziggurat's slow branches."""

import math
from array import array
from itertools import islice

import numpy as np
import pytest

from implement_guidance import noise

# small, 64-bit-edge and multi-word seeds; the last has 4,300 digits, the
# most a scenario's seed may have
SEEDS = (0, 1, 7, 2**40 + 3, 12345678901234567890, 2**64 - 1, 2**128, 2**200 + 5,
         int("9" * 4300))


def _bits(draws):
    return array("d", draws).tobytes()


def _ids(seed):
    return str(seed) if seed < 2**256 else "4300_digits"


@pytest.mark.parametrize("seed", SEEDS, ids=_ids)
def test_standard_normals_equal_numpys(seed, monkeypatch):
    # every wedge test calls exp once, and every draw of the tail beyond R
    # lands outside [-R, R]; counted to prove both slow branches are taken
    wedges = []
    monkeypatch.setattr(noise, "exp", lambda x: wedges.append(x) or math.exp(x))
    n = 300_000 if seed in (0, 1, 7) else 20_000
    draws = list(islice(noise.standard_normals(seed), n))
    assert _bits(draws) == np.random.default_rng(seed).standard_normal(n).tobytes()
    tails = sum(1 for x in draws if abs(x) > noise._R)
    # about 4,350 wedge tests and 80 tail draws per 300k draws
    if n == 300_000:
        assert len(wedges) > 3000 and tails > 40
    else:
        assert len(wedges) > 150 and tails > 0


@pytest.mark.parametrize("seed", [-1, True, 1.0, "1", None])
def test_standard_normals_reject_a_seed_that_is_not_a_non_negative_int(seed):
    with pytest.raises(ValueError, match="non-negative int"):
        next(noise.standard_normals(seed))

