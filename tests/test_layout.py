"""The coefficient layout pinned to the byte: coefficient documents, term
names and design matrices over every block combination."""

import hashlib
import itertools
import json

import numpy as np

from ormediate import MediatorParams, ModelSpec, OutcomeParams
from ormediate.io import CoefficientSet, coefficients_to_doc, load_coefficients
from ormediate.model import CovariateProfile, mediator_design, outcome_design

# SHA-256 digests taken from the hand-written layout, before the block table.
GOLDEN = {
    "microcredit_table1": "cb2449cf5dbabbb8508dba3b8b61be0e6eb0b074379e3752bc76da12ea767a6e",
    "all_blocks_doc": "fb918d27772019528c558f0d56971b7e0c4804ab5104668b91b18f500c3593d4",
    "terms": "be055920f552da3a1049d77bafce759b7da1c29b020f26f0375da7fdeb7dd63e",
    "designs": "b39f45201d041b4dc99df22f5c59839d68fb1dd2416043d6884bb6e2d855ed9b",
}


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _doc_bytes(doc) -> bytes:
    return json.dumps(doc, indent=2).encode()


def _flag_sets():
    """Every marginality-respecting set of the six block flags."""
    for z, xz, wz, xwz, v, xv in itertools.product((False, True), repeat=6):
        if xwz and not (xz and wz):
            continue
        if (xz or wz) and not z:
            continue
        if xv and not v:
            continue
        yield dict(z=z, xz=xz, wz=wz, xwz=xwz, v=v, xv=xv)


def _specs():
    """Each flag set for each (p, q) in {0, 1, 2}^2; covariate b is shared
    between the two models when both lists reach it."""
    for p in range(3):
        for q in range(3):
            for flags in _flag_sets():
                yield ModelSpec(z_names=("a", "b")[:p], v_names=("b", "c")[:q], **flags)


def test_microcredit_document_bytes():
    cs = load_coefficients("microcredit_table1")
    doc = coefficients_to_doc(CoefficientSet(
        cs.spec,
        cs.outcome,
        cs.mediator,
        exposure_levels=cs.exposure_levels,
        profiles=cs.profiles,
        exposure_marginal=cs.exposure_marginal,
        covariate_marginals=cs.covariate_marginals,
        description=cs.description,
    ))
    assert _digest([_doc_bytes(doc)]) == GOLDEN["microcredit_table1"]


def test_all_blocks_document_bytes():
    spec = ModelSpec(
        z_names=("age", "edu"), v_names=("edu", "inc"),
        z=True, xz=True, wz=True, xwz=True, v=True, xv=True,
    )
    rng = np.random.default_rng(6061)
    outcome = OutcomeParams.from_vector(spec, rng.normal(size=spec.n_outcome_coefs))
    mediator = MediatorParams.from_vector(spec, rng.normal(size=spec.n_mediator_coefs))
    a = rng.normal(size=(spec.n_outcome_coefs,) * 2)
    b = rng.normal(size=(spec.n_mediator_coefs,) * 2)
    doc = coefficients_to_doc(CoefficientSet(
        spec,
        outcome,
        mediator,
        outcome_vcov=a @ a.T,
        mediator_vcov=b @ b.T,
        exposure_levels=(1.5, -0.25),
        profiles=(("p1", CovariateProfile(z=(41.0, 1.0), v=(1.0, -2.5))),),
    ))
    assert _digest([_doc_bytes(doc)]) == GOLDEN["all_blocks_doc"]


def test_term_names():
    chunks = []
    for spec in _specs():
        chunks.append(repr((spec.outcome_terms(), spec.mediator_terms())).encode())
    assert _digest(chunks) == GOLDEN["terms"]


def test_design_bytes():
    rng = np.random.default_rng(7)
    n = 6
    x = np.array([-1.5, 0.0, 2.0, -0.0, 0.75, -3.0])
    w = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 1.0])
    columns = {name: rng.normal(size=n) for name in ("a", "b", "c")}
    columns["a"][1] = -0.0
    chunks = []
    for spec in _specs():
        for design in (outcome_design(spec, x, w, columns), mediator_design(spec, x, columns)):
            chunks += [repr((design.shape, design.dtype.str)).encode(), design.tobytes()]
    assert _digest(chunks) == GOLDEN["designs"]
