"""The scalar predictor algebra shared by the effects, the delta method and the
oracle: its outputs are pinned to the bit, and each contrast evaluates the
covariate sums of its profile once."""

import hashlib

import numpy as np
import pytest

from ormediate import Contrast, _products
from ormediate.effects import grad_a_term, jacobian_log_effects
from ormediate.effects import approx_effects, natural_effects
from ormediate.oracle import g_y_check, tables_from_params
from ormediate.verify import random_problem

# SHA-256 of the little-endian float64 bytes that _golden_values collects,
# taken from the per-predictor implementation this algebra replaced.
GOLDEN = {
    "natural_effects": "0d08299cb2a7c4fe4cc1dab547bd9cca6928db37f6fd372ca42a18a7efd846c6",
    "approx_effects": "458d909211011e48248359fb404a3e21b26a3be68873b3b644aebff3c65272d0",
    "jacobian_log_effects": "cfb8be11df3d62985d417374c0aa6018be8fd16b907e945b8b8feeaf5d3fe401",
    "grad_a_term": "14960b0047a53da0f9bc661a45e620df0452050bab20281ffe4b1ce15ff2c5b1",
    "tables_from_params": "af71d37948731665559815dadaa7c751c75acb509f60bb95d52b6e19348deb90",
    "predictors": "f63cd7651ec8cbafe394cd69120ed697c397413b96c70c9bcbad81b8fcebda62",
    "g_y_check": "86078199515e21ebb7c3d5136d896b3abff8330e50c76c29758f9c7d551d04cd",
}


def _effect_bits(es):
    return list(es.log_values()) + [es.log_cde_at[0], es.log_cde_at[1]]


def _golden_values():
    """Values per function over 8 seeded draws for each (p, q) in {0, 1, 2}^2,
    plus a degenerate contrast (x = x*) per draw."""
    out = {name: [] for name in (
        "natural_effects", "approx_effects", "jacobian_log_effects", "grad_a_term",
        "tables_from_params", "predictors", "g_y_check",
    )}
    rng = np.random.default_rng(20261018)
    for p in range(3):
        for q in range(3):
            for _ in range(8):
                _, outcome, mediator, contrast = random_problem(rng, p, q)
                x, xs = contrast.x, contrast.x_star
                z, v = contrast.profile.z, contrast.profile.v
                for c in (contrast, Contrast(x, x, contrast.profile)):
                    out["natural_effects"] += _effect_bits(natural_effects(outcome, mediator, c))
                    out["approx_effects"] += _effect_bits(approx_effects(outcome, mediator, c))
                    out["jacobian_log_effects"] += list(
                        jacobian_log_effects(outcome, mediator, c).ravel()
                    )
                    t = tables_from_params(outcome, mediator, c)
                    for table in (t.p_y, t.q_y, t.p_w, t.q_w):
                        out["tables_from_params"] += list(table.ravel())
                out["grad_a_term"] += list(grad_a_term(outcome, mediator, x, xs, c.profile))
                for x1 in (x, xs):
                    out["predictors"] += [
                        outcome.linear_predictor(x1, 0.0, z),
                        outcome.linear_predictor(x1, 1.0, z),
                        outcome.mediator_log_or(x1, z),
                        mediator.linear_predictor(x1, v),
                    ]
                out["predictors"] += [
                    outcome.exposure_log_or(0.0, z),
                    outcome.exposure_log_or(1.0, z),
                    outcome.exposure_main_log_or(z),
                ]
                if p == q == 0:
                    res = g_y_check(outcome, mediator, x)
                    out["g_y_check"] += [res.a_direct, res.a_from_g, res.a_from_risk_ratio]
    return out


@pytest.fixture(scope="module")
def digests():
    return {
        name: hashlib.sha256(np.asarray(vals, dtype="<f8").tobytes()).hexdigest()
        for name, vals in _golden_values().items()
    }


class TestGoldenBits:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_outputs_match_the_pinned_bits(self, digests, name):
        assert digests[name] == GOLDEN[name]


class TestProfileSumsOnce:
    """bz'z, bxz'z, bwz'z, bxwz'z, gv'v and gxv'v are the only dot products a
    contrast needs; a return to per-predictor sums shows as a higher count."""

    @pytest.mark.parametrize(
        "evaluate", [natural_effects, jacobian_log_effects, tables_from_params]
    )
    def test_at_most_six_dot_products_per_call(self, monkeypatch, evaluate):
        _, outcome, mediator, contrast = random_problem(np.random.default_rng(5), 2, 2)
        calls = []
        dot = _products.row_sum

        def counting_dot(coefs, values):
            calls.append(1)
            return dot(coefs, values)

        monkeypatch.setattr(_products, "row_sum", counting_dot)
        evaluate(outcome, mediator, contrast)
        assert len(calls) <= 6
