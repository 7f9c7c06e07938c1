"""The verify draw streams pinned to the bit: the first 300 ``random_problem``
draws and the first 300 ``g-y-identity`` draws at seeds 0, 1 and 2, each
digested from the ``repr`` of its coefficients and contrast. Every float is a
Python float there, so its ``repr`` round-trips the double."""

import hashlib

import numpy as np
import pytest

from ormediate import verify

# SHA-256 digests of the streams; never regenerate them to make a change pass
GOLDEN = {
    "problem-0": "7fff35bd6e874a8b3e3c9722aa7a96503ea4b0fc2b97c29b426cc7502720ef50",
    "problem-1": "85748bf2d3bb182b5973fcc96a16420ef3c17d89bd6d4ff337ff395becdc0868",
    "problem-2": "8f7521959a03f8022cd14a6f811e76632b9084bf9565667b3dd70eb868bfe2e9",
    "g-y-0": "ac1783da8649a2de7e3cef62f50e22bab5ee466cc6782549c26f0609de067d1a",
    "g-y-1": "95678ff6946d87b01fab5781c3579112e371f5fd7f938161d04138f9076bef62",
    "g-y-2": "00052b0bf58e1bb6a148657ddd0278707d901b46919dfb50f8c976da7abd8a6c",
}


def _digest(items) -> str:
    return hashlib.sha256("\n".join(map(repr, items)).encode()).hexdigest()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_problem_stream(seed):
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(300):
        spec, outcome, mediator, contrast = verify.random_problem(rng)
        draws.append((spec, outcome.active_vector().tolist(),
                      mediator.active_vector().tolist(), contrast))
    assert _digest(draws) == GOLDEN[f"problem-{seed}"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_g_y_stream(seed):
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(300):
        outcome, mediator, x = verify._draw_g_y(rng, i)
        draws.append((outcome.spec.p, outcome.spec.q, outcome.active_vector().tolist(),
                      mediator.active_vector().tolist(), x))
    assert _digest(draws) == GOLDEN[f"g-y-{seed}"]
