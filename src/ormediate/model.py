"""Model specification and closed-form predictor algebra.

Two logistic models drive everything in this package:

    outcome:  logit P(Y=1 | X=x, W=w, Z=z) = b0 + bx*x + bw*w + bxw*x*w
                                             + bz'z + bxz'(x z) + bwz'(w z) + bxwz'(x w z)
    mediator: logit P(W=1 | X=x, V=v)      = g0 + gx*x + gv'v + gxv'(x v)

Y and W are binary, the exposure X may be binary or continuous, and each
covariate interaction block is individually optional subject to marginality
nesting (an interaction block requires its main-effect blocks). This module
owns the specification and parameter containers, the exponentiated-predictor
helpers e_y and e_w, and design-matrix construction. It knows nothing about
fitting or effect formulas.

Both logits are linear in a fixed set of coefficient blocks, and
``OUTCOME_BLOCKS`` and ``MEDIATOR_BLOCKS`` list them in coefficient-vector
order:

    outcome:  (b0, bx, bz..., bxz..., bw, bxw, bwz..., bxwz...)
    mediator: (g0, gx, gv..., gxv...)

Each block is an exposure factor of (x, w), one of 1, x, w or xw, times either
nothing (the four scalars) or the z or v covariates. ``ModelSpec.layout`` keeps
the included blocks with their slices of the vector; the term names, the
parameter vectors, the design matrices, the delta-method gradients and the
coefficient documents all read it. Design columns follow the same order, so
``design @ params.active_vector()`` is the linear predictor.

A covariate profile enters the scalar predictors only through six sums:
bz'z, bxz'z, bwz'z and bxwz'z for the outcome model, gv'v and gxv'v for the
mediator model. ``_OutcomeAt`` and ``_MediatorAt`` take those sums once per
profile, and every predictor, log odds ratio and odds is formed from them in
one fixed order; the public ``linear_predictor`` and ``*_log_or`` methods and
the effect, delta-method and oracle code all go through them, so a contrast
costs six row sums however many predictors it needs.

The same two classes evaluate a batch of rows in one numpy pass: G draws of
coefficient rows, each draw at its own profile. One parameter set at N
profiles (``infer_many`` over a report's profiles) is N draws of one row; a
``verify`` slice is one draw per problem, of its coefficient vector and, when
the jacobian suite runs, its central-difference points. The fields are then
float64 columns instead of floats and the predictor expressions are
unchanged, so each row gets the bits of the scalar path: elementwise
arithmetic rounds as Python floats do, each row's sum has the bits of the
scalar one (``_products``, which holds every product whose bits reach a
report), and exp and log go through ``math`` entry by entry (numpy's own
round differently). A failing batch raises the error of the first failing
entry of the first failing column. ``infer_many`` then evaluates its rows
one by one, so its error is the first failing row's; ``verify`` does not,
as its draws keep every predictor far inside the exp range.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import _every_block, _products
from .exceptions import PredictorOverflowError, SchemaError
from .record import Record, ValueRecord, _set

__all__ = [
    "BLOCK_FLAGS",
    "EXP_LIMIT",
    "MEDIATOR_BLOCKS",
    "OUTCOME_BLOCKS",
    "Block",
    "ModelSpec",
    "CovariateProfile",
    "Contrast",
    "OutcomeParams",
    "MediatorParams",
    "Dataset",
    "e_y",
    "e_w",
    "build_design",
    "outcome_design",
    "mediator_design",
]

# exp() overflows an IEEE double just above exp(709.78); predictors past this
# magnitude cannot yield a usable probability or odds in either tail.
EXP_LIMIT = 709.0

# rows per block when a design matrix is filled
_DESIGN_ROWS = 8192


def _each(fn, value):
    """fn of a float, or of each entry of a column through Python floats:
    numpy's exp and log round differently from math's."""
    if isinstance(value, np.ndarray):
        return np.fromiter(map(fn, value.tolist()), float, value.size)
    return fn(value)


def _checked_exp(eta, what: str):
    """exp(eta) for a predictor or a column of them. A column gets one bound
    check; its first failing entry raises the message the scalar path gives."""
    if isinstance(eta, np.ndarray):
        ok = np.abs(eta) <= EXP_LIMIT
        if not ok.all():
            _checked_exp(eta.tolist()[int(np.argmin(ok))], what)
        return _each(math.exp, eta)
    if not math.isfinite(eta):
        raise PredictorOverflowError(f"{what} linear predictor is {eta!r}")
    if abs(eta) > EXP_LIMIT:
        raise PredictorOverflowError(
            f"{what} linear predictor {eta!r} exceeds the exp() range +/-{EXP_LIMIT}"
        )
    return math.exp(eta)


def _clean_names(names: Sequence[str], role: str) -> tuple[str, ...]:
    names = tuple(names)
    for name in names:
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{role} names must be non-empty strings, got {name!r}")
    if len(set(names)) != len(names):
        raise SchemaError(f"duplicate {role} names in {names!r}")
    return names


class Block(Record):
    """One coefficient block: the parameter attribute that holds it, the
    ``ModelSpec`` flag that switches it (None for the four always-present
    scalars), and whether its design column carries the x and w factors.

    A switched block multiplies a covariate list, the one its flag ends in:
    z for the outcome model, v for the mediator model. Blocks compare by
    identity, so a block table hashes cheaply as a cache key.
    """

    __slots__ = FIELDS = ("attr", "flag", "x", "w")


OUTCOME_BLOCKS = (
    Block("intercept", None, False, False),
    Block("exposure", None, True, False),
    Block("confounders", "z", False, False),
    Block("exposure_confounders", "xz", True, False),
    Block("mediator", None, False, True),
    Block("exposure_mediator", None, True, True),
    Block("mediator_confounders", "wz", False, True),
    Block("exposure_mediator_confounders", "xwz", True, True),
)
MEDIATOR_BLOCKS = (
    Block("intercept", None, False, False),
    Block("exposure", None, True, False),
    Block("confounders", "v", False, False),
    Block("exposure_confounders", "xv", True, False),
)
BLOCK_FLAGS = tuple(b.flag for b in OUTCOME_BLOCKS + MEDIATOR_BLOCKS if b.flag)


class ModelSpec(ValueRecord):
    """Which covariates and interaction blocks the two models carry.

    ``z_names`` are outcome-model covariates, ``v_names`` mediator-model
    covariates; a name may appear in both. The boolean flags switch whole
    coefficient blocks: ``z``/``xz``/``wz``/``xwz`` for the outcome model and
    ``v``/``xv`` for the mediator model. The exposure, mediator, and their
    product term are always present in the outcome model. A spec has no
    ``__slots__``: its cached properties live in its ``__dict__``.
    """

    FIELDS = ("z_names", "v_names", "z", "xz", "wz", "xwz", "v", "xv")

    def __init__(
        self,
        z_names: Sequence[str] = (),
        v_names: Sequence[str] = (),
        z: bool = True,
        xz: bool = False,
        wz: bool = False,
        xwz: bool = False,
        v: bool = True,
        xv: bool = False,
    ):
        _set(self, "z_names", _clean_names(z_names, "outcome covariate"))
        _set(self, "v_names", _clean_names(v_names, "mediator covariate"))
        for name, flag in zip(self.FIELDS[2:], (z, xz, wz, xwz, v, xv)):
            _set(self, name, flag)
        if xwz and not (xz and wz):
            raise SchemaError("xwz interactions require the xz and wz blocks")
        if (xz or wz) and not z:
            raise SchemaError("covariate interactions require the z main-effect block")
        if xv and not v:
            raise SchemaError("xv interactions require the v main-effect block")

    @property
    def p(self) -> int:
        return len(self.z_names)

    @property
    def q(self) -> int:
        return len(self.v_names)

    def covariates(self, block: Block) -> tuple[str, ...]:
        """The covariate names a block multiplies; () for a scalar block."""
        return getattr(self, f"{block.flag[-1]}_names") if block.flag else ()

    @cached_property
    def _tables(self) -> dict:
        return {}

    def _table(self, blocks: tuple[Block, ...]):
        """For one model's block table: every block with its width and whether
        the model includes it (its flag is on and it has covariates), and the
        included blocks with their slices; built once per spec and table."""
        table = self._tables.get(blocks)
        if table is None:
            sizes, layout, pos = [], [], 0
            for b in blocks:
                width = len(self.covariates(b)) if b.flag else 1
                included = b.flag is None or (getattr(self, b.flag) and width > 0)
                sizes.append((b, width, included))
                if included:
                    layout.append((b, slice(pos, pos + width)))
                    pos += width
            table = self._tables[blocks] = (tuple(sizes), tuple(layout))
        return table

    def layout(self, blocks: tuple[Block, ...]) -> tuple[tuple[Block, slice], ...]:
        """The included blocks of one model's table with their slices of the
        coefficient vector."""
        return self._table(blocks)[1]

    def terms(self, blocks: tuple[Block, ...]) -> tuple[str, ...]:
        """Design column names of one model, in coefficient layout order."""
        terms = []
        for b, _ in self.layout(blocks):
            factor = ["x"] * b.x + ["w"] * b.w
            if b.flag is None:
                terms.append(":".join(factor) or "const")
            else:
                terms += [":".join(factor + [n]) for n in self.covariates(b)]
        return tuple(terms)

    def outcome_terms(self) -> tuple[str, ...]:
        return self.terms(OUTCOME_BLOCKS)

    def mediator_terms(self) -> tuple[str, ...]:
        return self.terms(MEDIATOR_BLOCKS)

    @cached_property
    def n_outcome_coefs(self) -> int:
        return self.layout(OUTCOME_BLOCKS)[-1][1].stop

    @cached_property
    def n_mediator_coefs(self) -> int:
        return self.layout(MEDIATOR_BLOCKS)[-1][1].stop

    def covariate_names(self) -> tuple[str, ...]:
        """Unique covariate names, z-list order first, then new v-list names."""
        seen = list(self.z_names)
        seen += [n for n in self.v_names if n not in seen]
        return tuple(seen)


def _profile_values(values: Sequence[float], role: str) -> tuple[float, ...]:
    out = tuple(float(u) for u in values)
    for u in out:
        if not math.isfinite(u):
            raise SchemaError(f"{role} profile value {u!r} is not finite")
    return out


class CovariateProfile(ValueRecord):
    """Fixed covariate values (z for the outcome model, v for the mediator model)
    at which conditional effects are evaluated."""

    __slots__ = FIELDS = ("z", "v")

    def __init__(self, z: Sequence[float] = (), v: Sequence[float] = ()):
        _set(self, "z", _profile_values(z, "z"))
        _set(self, "v", _profile_values(v, "v"))

    @classmethod
    def from_named(cls, spec: ModelSpec, values: Mapping[str, float]) -> "CovariateProfile":
        """Build a profile from a name->value mapping; a covariate shared by both
        models is materialised into both slots."""
        known = set(spec.z_names) | set(spec.v_names)
        unknown = sorted(set(values) - known)
        if unknown:
            raise SchemaError(f"profile names {unknown} are not model covariates")
        missing = sorted(known - set(values))
        if missing:
            raise SchemaError(f"profile is missing covariates {missing}")
        return cls(
            z=tuple(values[n] for n in spec.z_names),
            v=tuple(values[n] for n in spec.v_names),
        )

    def check_against(self, spec: ModelSpec) -> None:
        if len(self.z) != spec.p or len(self.v) != spec.q:
            raise SchemaError(
                f"profile has {len(self.z)} z / {len(self.v)} v values, "
                f"model expects {spec.p} / {spec.q}"
            )


class Contrast(ValueRecord):
    """Exposure contrast x vs x* evaluated at a covariate profile."""

    __slots__ = FIELDS = ("x", "x_star", "profile")

    def __init__(self, x: float, x_star: float, profile: CovariateProfile = CovariateProfile()):
        x, x_star = float(x), float(x_star)
        _set(self, "x", x)
        _set(self, "x_star", x_star)
        _set(self, "profile", profile)
        if not (math.isfinite(x) and math.isfinite(x_star)):
            raise SchemaError("contrast levels must be finite")

    @property
    def delta(self) -> float:
        return self.x - self.x_star


def _block(values, length: int, active: bool, name: str) -> np.ndarray:
    """Coerce one coefficient block to a read-only float64 vector; blocks the
    spec excludes are forced to zero so they stay inert."""
    if values is None:
        arr = np.zeros(length)
    else:
        arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.shape != (length,):
        raise SchemaError(f"{name} block must have length {length}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise SchemaError(f"{name} block contains non-finite values")
    if not active:
        arr = np.zeros(length)
    arr.setflags(write=False)
    return arr


class _Params(Record):
    """Validation, equality and vector packing shared by both parameter
    containers, driven by the class's block table. The fields are ``spec``
    and then the blocks, each in the subclass's ``__init__`` order."""

    __slots__ = ("spec",)
    BLOCKS: ClassVar[tuple[Block, ...]]
    MODEL: ClassVar[str]

    def _store(self, spec: ModelSpec, blocks: tuple) -> None:
        """Check and store ``spec`` and the ``blocks``, given in field order."""
        _set(self, "spec", spec)
        values = dict(zip(self.FIELDS[1:], blocks))
        for b, width, included in spec._table(self.BLOCKS)[0]:
            value = values[b.attr]
            if b.flag is not None:
                value = _block(value, width, included, b.flag)
            else:
                value = float(value)
                if not math.isfinite(value):
                    raise SchemaError(f"{self.MODEL} coefficient {b.attr} is not finite")
            _set(self, b.attr, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.spec == other.spec and np.array_equal(
            self.active_vector(), other.active_vector()
        )

    def active_vector(self) -> np.ndarray:
        """Coefficients of the included blocks, in design column order."""
        layout = self.spec.layout(self.BLOCKS)
        vec = np.empty(layout[-1][1].stop)
        for b, sl in layout:
            vec[sl] = getattr(self, b.attr)
        return vec

    @classmethod
    def from_vector(cls, spec: ModelSpec, vector: Sequence[float]):
        """Inverse of :meth:`active_vector`."""
        layout = spec.layout(cls.BLOCKS)
        vec = np.asarray(vector, dtype=float).reshape(-1)
        size = layout[-1][1].stop
        if vec.shape != (size,):
            raise SchemaError(
                f"{cls.MODEL} coefficient vector has length {vec.size}, model expects {size}"
            )
        return cls(spec, **{b.attr: vec[sl] if b.flag else vec[sl.start] for b, sl in layout})


class OutcomeParams(_Params):
    """Coefficients of the outcome logistic model, stored block by block.

    Blocks excluded by the model spec are held at zero and never enter
    predictors, layouts, or gradients.
    """

    __slots__ = ("intercept", "exposure", "mediator", "exposure_mediator", "confounders",
                 "exposure_confounders", "mediator_confounders", "exposure_mediator_confounders")
    FIELDS = ("spec", *__slots__)
    BLOCKS = OUTCOME_BLOCKS
    MODEL = "outcome"

    def __init__(
        self,
        spec: ModelSpec,
        intercept: float = 0.0,
        exposure: float = 0.0,
        mediator: float = 0.0,
        exposure_mediator: float = 0.0,
        confounders: Sequence[float] | None = None,
        exposure_confounders: Sequence[float] | None = None,
        mediator_confounders: Sequence[float] | None = None,
        exposure_mediator_confounders: Sequence[float] | None = None,
    ):
        self._store(spec, (intercept, exposure, mediator, exposure_mediator, confounders,
                           exposure_confounders, mediator_confounders,
                           exposure_mediator_confounders))

    def linear_predictor(self, x: float, w: float, z: Sequence[float]) -> float:
        """logit P(Y=1 | x, w, z); one fixed evaluation order everywhere so the
        structural-zero identities hold bit for bit."""
        return _OutcomeAt(self, z).eta(x, w)

    def exposure_log_or(self, w: float, z: Sequence[float]) -> float:
        """Conditional log odds ratio of a unit exposure change at fixed W=w:
        bx + bxw*w + bxz'z + bxwz'(w z)."""
        return _OutcomeAt(self, z).exposure_log_or(w)

    def exposure_main_log_or(self, z: Sequence[float]) -> float:
        """bx + bxz'z, the exposure effect with the mediator pathway removed."""
        return _OutcomeAt(self, z).exposure_main_log_or()

    def mediator_log_or(self, x: float, z: Sequence[float]) -> float:
        """Conditional log odds ratio of the mediator on the outcome at
        exposure x: bw + bxw*x + bwz'z + bxwz'(x z)."""
        return _OutcomeAt(self, z).mediator_log_or(x)


class _At:
    """One model's predictors at a covariate vector c: its scalar coefficients
    and the sum coef'c of each covariate block, taken once. ``FIELDS`` names
    them in the order of the model's block table.

    Each field is a float, or, for a batch of N rows, a float64 column of
    length N; the predictor expressions below serve both, because elementwise
    numpy arithmetic rounds as the same Python float expression does. A batch
    (:meth:`at_rows`) is coefficient rows at one profile per draw: one
    parameter set at N profiles (``infer_many`` over a report's profiles) and
    the central-difference points of many draws (the ``verify`` jacobian
    suite) alike. Each row's sum (``_products.row_sums``) has the bits of
    the scalar path's (``_products.row_sum``).
    """

    __slots__ = ()
    PARAMS: ClassVar[type["_Params"]]
    FIELDS: ClassVar[tuple[str, ...]]

    def __init__(self, params: "_Params", c: Sequence[float]):
        for b, name in zip(self.PARAMS.BLOCKS, self.FIELDS):
            value = getattr(params, b.attr)
            setattr(self, name, _products.row_sum(value, c) if b.flag else value)

    @classmethod
    def at_rows(cls, spec: ModelSpec, rows: np.ndarray, profiles: np.ndarray) -> "_At":
        """Coefficient rows at one profile per draw: ``rows`` (G, M, k) holds M
        rows in layout order for each of G draws, and ``profiles`` (G, width)
        the profile of each draw. The fields are columns of length G M, draw
        by draw. A block the spec excludes is a block of zeros, as in the
        parameters. Each block's sums are one ``_products.row_sums`` of
        1 x width rows by width x 1 profiles."""
        g, m, _ = rows.shape
        at = cls.__new__(cls)
        slices = dict(spec.layout(cls.PARAMS.BLOCKS))
        c = np.repeat(profiles, m, axis=0).reshape(g * m, -1, 1)
        for b, name in zip(cls.PARAMS.BLOCKS, cls.FIELDS):
            sl = slices.get(b)
            if not b.flag:  # a scalar block is always included
                setattr(at, name, rows[:, :, sl.start].reshape(-1))
                continue
            block = rows[:, :, sl] if sl is not None else np.zeros((g, m, c.shape[1]))
            block = np.ascontiguousarray(block).reshape(g * m, 1, -1)
            setattr(at, name, _products.row_sums(block, c))
        return at


class _OutcomeAt(_At):
    """The outcome model's predictors at z, from the sums bz'z, bxz'z, bwz'z
    and bxwz'z."""

    __slots__ = FIELDS = ("b0", "bx", "z", "xz", "bw", "bxw", "wz", "xwz")
    PARAMS = OutcomeParams

    def eta(self, x: float, w: float) -> float:
        xw = x * w
        return (
            self.b0
            + self.bx * x
            + self.bw * w
            + self.bxw * xw
            + self.z
            + x * self.xz
            + w * self.wz
            + xw * self.xwz
        )

    def exposure_log_or(self, w: float) -> float:
        return self.bx + self.bxw * w + self.xz + w * self.xwz

    def exposure_main_log_or(self) -> float:
        return self.bx + self.xz

    def mediator_log_or(self, x: float) -> float:
        return self.bw + self.bxw * x + self.wz + x * self.xwz

    def odds(self, x: float, w: float) -> float:
        """e_y(x, w) at this z, for a float w in {0.0, 1.0}."""
        return _checked_exp(self.eta(x, w), "outcome")

    def mediator_odds_ratio(self, x: float) -> float:
        """exp(mediator_log_or(x)), the k of the bridge terms at exposure x."""
        return _checked_exp(self.mediator_log_or(x), "mediator-outcome odds ratio")


class MediatorParams(_Params):
    """Coefficients of the mediator logistic model, stored block by block."""

    __slots__ = ("intercept", "exposure", "confounders", "exposure_confounders")
    FIELDS = ("spec", *__slots__)
    BLOCKS = MEDIATOR_BLOCKS
    MODEL = "mediator"

    def __init__(
        self,
        spec: ModelSpec,
        intercept: float = 0.0,
        exposure: float = 0.0,
        confounders: Sequence[float] | None = None,
        exposure_confounders: Sequence[float] | None = None,
    ):
        self._store(spec, (intercept, exposure, confounders, exposure_confounders))

    def linear_predictor(self, x: float, v: Sequence[float]) -> float:
        return _MediatorAt(self, v).eta(x)


class _MediatorAt(_At):
    """The mediator model's predictor at v, from gv'v and gxv'v."""

    __slots__ = FIELDS = ("g0", "gx", "v", "xv")
    PARAMS = MediatorParams

    def eta(self, x: float) -> float:
        return self.g0 + self.gx * x + self.v + x * self.xv

    def odds(self, x: float) -> float:
        """e_w(x) at this v."""
        return _checked_exp(self.eta(x), "mediator")


def _check_mediator_level(w) -> float:
    w = float(w)
    if w not in (0.0, 1.0):
        raise SchemaError(f"mediator level must be 0 or 1, got {w!r}")
    return w


def e_y(params: OutcomeParams, x: float, w: float, z: Sequence[float]) -> float:
    """Exponentiated outcome predictor exp(logit P(Y=1 | x, w, z)).

    This is the conditional odds of the outcome. Raises
    :class:`PredictorOverflowError` when |predictor| > 709.
    """
    if len(z) != params.spec.p:
        raise SchemaError(f"expected {params.spec.p} z values, got {len(z)}")
    w = _check_mediator_level(w)
    return _OutcomeAt(params, z).odds(float(x), w)


def e_w(params: MediatorParams, x: float, v: Sequence[float]) -> float:
    """Exponentiated mediator predictor exp(logit P(W=1 | x, v)), the
    conditional odds of the mediator."""
    if len(v) != params.spec.q:
        raise SchemaError(f"expected {params.spec.q} v values, got {len(v)}")
    return _MediatorAt(params, v).odds(float(x))


def _finite_column(values, message: str) -> np.ndarray:
    """values as a 1-d float array; SchemaError(message) where one is not finite."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    if not _every_block(np.isfinite, arr, _DESIGN_ROWS):
        raise SchemaError(message)
    return arr


def _binary_column(values, name: str) -> np.ndarray:
    arr = _finite_column(values, f"column {name!r} contains non-finite values")
    if not _every_block(lambda block: (block == 0.0) | (block == 1.0), arr, _DESIGN_ROWS):
        bad = float(arr[(arr != 0.0) & (arr != 1.0)][0])
        raise SchemaError(f"column {name!r} must be binary 0/1, found {bad!r}")
    arr.setflags(write=False)
    return arr


class Dataset(Record):
    """Observed columns: binary outcome y, binary mediator w, exposure x, and
    named covariates (none by default). All columns share one row count."""

    __slots__ = FIELDS = ("y", "w", "x", "covariates")

    def __init__(
        self,
        y: Sequence[float],
        w: Sequence[float],
        x: Sequence[float],
        covariates: Mapping[str, Sequence[float]] | None = None,
    ):
        _set(self, "y", _binary_column(y, "y"))
        _set(self, "w", _binary_column(w, "w"))
        x = _finite_column(x, "column 'x' contains non-finite values")
        x.setflags(write=False)
        _set(self, "x", x)
        cov = {}
        for name, values in dict(covariates or {}).items():
            arr = _finite_column(values, f"covariate {name!r} contains non-finite values")
            arr.setflags(write=False)
            cov[name] = arr
        _set(self, "covariates", cov)
        lengths = {self.y.size, self.w.size, x.size} | {a.size for a in cov.values()}
        if len(lengths) != 1:
            raise SchemaError(f"columns have mismatched lengths {sorted(lengths)}")

    @property
    def n(self) -> int:
        return self.y.size

    def check_columns(self, spec: ModelSpec) -> None:
        missing = [n for n in spec.covariate_names() if n not in self.covariates]
        if missing:
            raise SchemaError(f"dataset is missing covariate columns {missing}")

    def validate_against(self, spec: ModelSpec) -> None:
        """Fit-time validation: columns present and enough rows to identify
        the coefficients."""
        self.check_columns(spec)
        need = max(spec.n_outcome_coefs, spec.n_mediator_coefs)
        if self.n < need:
            raise SchemaError(f"dataset has {self.n} rows, model needs at least {need}")

    def covariate_means(self) -> dict[str, float]:
        if self.n == 0:
            raise SchemaError("cannot take covariate means of an empty dataset")
        return {name: float(a.mean()) for name, a in self.covariates.items()}

    def mean_profile(self, spec: ModelSpec) -> CovariateProfile:
        self.check_columns(spec)
        means = self.covariate_means()
        return CovariateProfile.from_named(
            spec, {n: means[n] for n in spec.covariate_names()}
        )


def _design(
    spec: ModelSpec,
    blocks: tuple[Block, ...],
    x: np.ndarray,
    w: np.ndarray | None,
    columns: Mapping[str, np.ndarray],
) -> np.ndarray:
    """One model's design matrix: each included block's exposure factor (1, x,
    w or xw) times its covariate columns, in coefficient layout order. It is
    filled in blocks of ``_DESIGN_ROWS`` rows, so each product is taken over a
    block that is still in cache."""
    x = np.asarray(x, dtype=float)
    w = None if w is None else np.asarray(w, dtype=float)
    if w is not None and w.shape != x.shape:
        raise SchemaError(f"the mediator has shape {w.shape}, the exposure {x.shape}")
    plan = []  # (factor index x + 2w, covariate column or None) per design column
    for b, _ in spec.layout(blocks):
        for name in spec.covariates(b) if b.flag else (None,):
            c = None if name is None else np.asarray(columns[name], dtype=float)
            if c is not None and c.shape != x.shape:
                raise SchemaError(f"column {name!r} has shape {c.shape}, the exposure {x.shape}")
            plan.append((b.x + 2 * b.w, c))
    out = np.empty((x.size, len(plan)))
    for start in range(0, x.size, _DESIGN_ROWS):
        rows = slice(start, start + _DESIGN_ROWS)
        xb, wb = x[rows], None if w is None else w[rows]
        factors = (None, xb, wb, None if w is None else xb * wb)
        for j, (f, c) in enumerate(plan):
            factor = factors[f]
            if c is None:
                out[rows, j] = 1.0 if factor is None else factor
            else:
                out[rows, j] = c[rows] if factor is None else factor * c[rows]
    return out


def outcome_design(
    spec: ModelSpec, x: np.ndarray, w: np.ndarray, z_columns: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Outcome design matrix with columns in coefficient layout order."""
    return _design(spec, OUTCOME_BLOCKS, x, w, z_columns)


def mediator_design(
    spec: ModelSpec, x: np.ndarray, v_columns: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Mediator design matrix with columns in coefficient layout order."""
    return _design(spec, MEDIATOR_BLOCKS, x, None, v_columns)


def build_design(data: Dataset, spec: ModelSpec, target: str) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix and response for one of the two models.

    ``target`` is ``"outcome"`` (response y, columns 1, x, z, xz, w, xw, wz, xwz)
    or ``"mediator"`` (response w, columns 1, x, v, xv).
    """
    data.check_columns(spec)
    if target == "outcome":
        return outcome_design(spec, data.x, data.w, data.covariates), np.asarray(
            data.y, dtype=float
        )
    if target == "mediator":
        return mediator_design(spec, data.x, data.covariates), np.asarray(data.w, dtype=float)
    raise SchemaError(f"unknown design target {target!r}")
