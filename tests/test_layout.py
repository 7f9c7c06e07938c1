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


def _symmetric(upper) -> np.ndarray:
    """The symmetric matrix whose upper triangle, row by row, is `upper`."""
    matrix = np.empty((len(upper),) * 2)
    for i, row in enumerate(upper):
        matrix[i, i:] = matrix[i:, i] = row
    return matrix


# the covariances a @ a.T and b @ b.T of the test's next 12x12 and 6x6
# standard normal draws, as OpenBLAS's SkylakeX kernel rounded them when the
# digest was taken. Written out, they reach the document through no BLAS
# kernel, whose summation order differs from host to host.
_OUTCOME_VCOV = _symmetric([
    [10.242120212862059, 2.223498837207741, 1.368042000133717, 2.735067168468838,
     0.4034572084051945, -6.374135261415795, -4.924404034045999, 2.2015849470693705,
     0.12610938252231763, -2.9356819837640016, 3.3803259135362875, -2.579695155323975],
    [10.945411548314379, 1.9225984017229922, 8.781100929814691, 2.4426545773016266,
     3.75039706156353, -2.1706284883220186, -1.0827053631846002, -1.7444376896247145,
     1.6846860777833508, -3.830152436075743, 0.05650774535815595],
    [13.121550885202517, -5.816174221664307, -3.8045419649759324, -3.3315333790571104,
     4.597861808718014, 4.411987797779119, 1.0942538941797095, -3.7377912705489384,
     -1.216336737290722, 4.290659973934259],
    [17.40924686017365, 3.6954699612620914, 1.0398072724757124, 0.3165886066144644,
     -5.910233544577792, -6.372711768698472, 2.1869136202206794, -1.0975339741234227,
     -8.276141831364956],
    [7.951097457475287, 1.9821546744596719, -3.8438731224196245, -3.21662491789855,
     -2.167881742750361, 1.0270854255266935, -4.733225468088335, 1.1561266039761886],
    [14.671353968209631, -6.533365631299483, -1.238039774280149, -0.5092928584745138,
     2.7960562620791176, -1.8539326875664153, 7.956855980277689],
    [16.02350510478589, -2.372458222770952, -0.9076379091301516, 0.5983690819070178,
     -1.9860702966230068, -5.871176106152822],
    [10.091548841163904, 0.5020842935249268, -0.8231198572026307, 2.46261536655491,
     5.850495252197253],
    [11.336667381338227, -1.9249202756922172, -1.556326735217842, 0.07876280349799414],
    [5.034633835431574, -0.9822531547017869, -0.9917431365203244],
    [10.404137914750176, -2.3972591678930453],
    [15.702227139353148],
])
_MEDIATOR_VCOV = _symmetric([
    [4.670345122866431, -1.4585734503269874, 0.03232095064628422, -2.1085369903740587,
     -0.9878874382631652, -3.4733462297013538],
    [2.688566858720056, -0.38665720335171644, 2.4110950413865573, -1.6981282867701535,
     3.6948980226170582],
    [1.5910404304268446, -1.0470084885177287, -0.25340286006700385, 1.179125332320247],
    [5.026162785195718, 1.5796372492498505, 3.9131931039769423],
    [6.41274022039576, -1.9306828658137767],
    [8.476414445463892],
])


def test_all_blocks_document_bytes():
    spec = ModelSpec(
        z_names=("age", "edu"), v_names=("edu", "inc"),
        z=True, xz=True, wz=True, xwz=True, v=True, xv=True,
    )
    rng = np.random.default_rng(6061)
    outcome = OutcomeParams.from_vector(spec, rng.normal(size=spec.n_outcome_coefs))
    mediator = MediatorParams.from_vector(spec, rng.normal(size=spec.n_mediator_coefs))
    doc = coefficients_to_doc(CoefficientSet(
        spec,
        outcome,
        mediator,
        outcome_vcov=_OUTCOME_VCOV,
        mediator_vcov=_MEDIATOR_VCOV,
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
