"""Multiattribute utility: outcomes, lotteries, attribute curves, joint utility, calibration.

An ``Outcome`` is the attribute tuple of one run; every file form of an outcome
lays out its built-in attributes as ``OUTCOME_ATTRIBUTES`` lists them.
Outcomes are scored per attribute on nonincreasing piecewise-linear curves
(utility 1 at the best value, 0 at a hard bound) and combined additively,
multiplicatively, or multilinearly.  ``calibrate_multiplicative``
reconstructs multiplicative weights from a table of outcomes the user
judges equivalent.
"""

from __future__ import annotations

import bisect
import sys
from dataclasses import dataclass, fields
from itertools import accumulate
from operator import attrgetter
from typing import Callable, Container, Iterable, Mapping, Sequence, Union

import numpy as np

PROB_TOLERANCE = 1e-9
_CONSISTENCY_TOL = 1e-7


class InvalidLottery(Exception):
    """Lottery probabilities are nonpositive or do not sum to 1."""


class AttributeMissing(Exception):
    """An outcome lacks an attribute the utility model scores."""


class MalformedModel(Exception):
    """A utility model violates its structural invariants."""


class CalibrationFailed(Exception):
    """No multiplicative model makes the given rows equal in utility."""


def check_keys(data: Mapping, known: Container[str]) -> None:
    """ValueError for the first key of ``data`` that is not in ``known``."""
    for key in data:
        if key not in known:
            raise ValueError(f"has unknown key {key!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Annotation text -> (what a field or file value so annotated must hold, the test of its value).
_KINDS = {
    "int": ("an integer", _is_int),
    "float": ("a number", lambda v: isinstance(v, float) or _is_int(v) and abs(v) <= sys.float_info.max),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "Mapping": ("a mapping", lambda v: isinstance(v, Mapping)),
    "tuple[int, ...]": ("integers", lambda v: isinstance(v, tuple) and all(map(_is_int, v))),
    "str | None": ("a string or None", lambda v: v is None or isinstance(v, str)),
}


def _field(value, name: str, kind: str):
    """``value`` read as ``_KINDS[kind]``, a number as a float, or a TypeError naming ``name`` and the type found."""
    noun, holds = _KINDS[kind]
    if not holds(value):
        raise TypeError(f"{name} must be {noun}, got {type(value).__name__}")
    return float(value) if kind == "float" else value


def check_types(settings) -> None:
    """ValueError naming the field and the value found unless each field of the dataclass ``settings``
    holds what its annotation, read as text, asks in ``_KINDS``; other annotations are not checked."""
    for f in fields(settings):
        noun, holds = _KINDS.get(f.type, ("", None))
        value = getattr(settings, f.name)
        if holds and not holds(value):
            raise ValueError(f"{f.name} must be {noun}, got {value!r}")


@dataclass(frozen=True)
class Lottery:
    """A finite probability distribution over outcomes or scalar values."""

    entries: tuple[tuple[object, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise InvalidLottery("lottery has no entries")
        for _, prob in self.entries:
            if not prob > 0.0:
                raise InvalidLottery(f"nonpositive probability {prob}")
        total = left_sum(prob for _, prob in self.entries)
        if not abs(total - 1.0) <= PROB_TOLERANCE:
            raise InvalidLottery(f"probabilities sum to {total}, not 1")

    @classmethod
    def of(cls, pairs: Iterable[tuple[object, float]]) -> "Lottery":
        return cls(tuple((v, float(p)) for v, p in pairs))


def left_sum(terms: Iterable[float]) -> float:
    """``terms`` added left to right: the float ``sum`` of CPython before 3.12, which compensates since."""
    total = 0.0
    for term in terms:
        total += term
    return total


def expected_value(lot: Lottery) -> float:
    """Probability-weighted mean of a scalar lottery."""
    for value, _ in lot.entries:
        if not isinstance(value, (int, float)):
            raise TypeError(f"expected_value needs scalar values, got {value!r}")
    return left_sum(prob * value for value, prob in lot.entries)


@dataclass(frozen=True)
class AttributeUtility:
    """A single attribute's utility curve: nonincreasing, piecewise linear.

    ``points`` are (attribute value, utility) knots sorted by value; queries
    clamp to the end knots.  Any value at or above ``bound`` scores 0
    regardless of the knots.
    """

    attribute: str
    points: tuple[tuple[float, float], ...]
    bound: float

    def __post_init__(self) -> None:
        if not self.points:
            raise MalformedModel(f"{self.attribute}: curve needs at least one knot")
        xs = [x for x, _ in self.points]
        ys = [y for _, y in self.points]
        if not all(b > a for a, b in zip(xs, xs[1:])):
            raise MalformedModel(f"{self.attribute}: knot values must increase")
        if any(b > a for a, b in zip(ys, ys[1:])):
            raise MalformedModel(f"{self.attribute}: curve must be nonincreasing")
        if any(not 0.0 <= y <= 1.0 for y in ys):
            raise MalformedModel(f"{self.attribute}: utilities must lie in [0, 1]")
        if not self.bound > xs[0]:
            raise MalformedModel(f"{self.attribute}: bound must exceed the best value")

    @classmethod
    def linear(cls, attribute: str, best: float, bound: float) -> "AttributeUtility":
        """Utility 1 at ``best`` falling linearly to 0 at ``bound``."""
        return cls(attribute, ((float(best), 1.0), (float(bound), 0.0)), float(bound))

    @classmethod
    def free(cls, attribute: str, bound: float, best: float = 0.0) -> "AttributeUtility":
        """A free but bounded resource: utility 1 below ``bound``, 0 at or above."""
        return cls(attribute, ((float(best), 1.0),), float(bound))

    def _at(self, values: np.ndarray) -> np.ndarray:
        """The curve at each of ``values``: 0 at or above the bound, a knot value or one beyond
        the end knots its knot's utility (NaN the last knot's), else the line between knots."""
        (first, y_first), (_, y_last) = self.points[0], self.points[-1]
        out = np.where(values <= first, float(y_first), float(y_last))
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            between = (x0 < values) & (values < x1)
            out[between] = y0 + (y1 - y0) * (values[between] - x0) / (x1 - x0)
            out[values == x1] = y1  # exact knot values, no interpolation round-off
        out[values >= self.bound] = 0.0
        return out


_FORMS = ("additive", "multiplicative", "multilinear")


@dataclass(frozen=True)
class UtilityModel:
    """Joint utility over outcome attributes.

    ``weights`` align with ``attributes``.  The multiplicative form needs the
    master constant ``k`` satisfying 1 + K = prod(1 + K*k_i); the multilinear
    form needs pairwise ``interactions`` keyed by attribute-name pairs.
    """

    attributes: tuple[AttributeUtility, ...]
    form: str = "additive"
    weights: tuple[float, ...] = ()
    k: float | None = None
    interactions: tuple[tuple[tuple[str, str], float], ...] = ()
    tag: str = ""

    def __post_init__(self) -> None:
        if self.form not in _FORMS:
            raise MalformedModel(f"unknown combination form {self.form!r}")
        if self.interactions and self.form != "multilinear":
            raise MalformedModel(f"interactions need form multilinear, got {self.form}")
        if not self.attributes:
            raise MalformedModel("utility model needs at least one attribute")
        names = [a.attribute for a in self.attributes]
        if len(set(names)) != len(names):
            raise MalformedModel("duplicate attribute names")
        if len(self.weights) != len(self.attributes):
            raise MalformedModel("one weight per attribute required")
        if not all(w >= 0 for w in self.weights):
            raise MalformedModel("weights must be nonnegative")
        if self.form == "additive":
            if not abs(sum(self.weights) - 1.0) <= _CONSISTENCY_TOL:
                raise MalformedModel("additive weights must sum to 1")
        elif self.form == "multiplicative":
            if self.k is None or not self.k > -1.0 or self.k == 0.0:
                raise MalformedModel("multiplicative form needs K > -1, K != 0")
            prod = 1.0
            for w in self.weights:
                prod *= 1.0 + self.k * w
            if not abs(prod - (1.0 + self.k)) <= _CONSISTENCY_TOL * max(1.0, abs(self.k)):
                raise MalformedModel(
                    "multiplicative weights violate 1 + K = prod(1 + K*k_i)"
                )
        else:  # multilinear
            known = set(names)
            for (a, b), _ in self.interactions:
                if a not in known or b not in known or a == b:
                    raise MalformedModel(f"bad interaction pair ({a}, {b})")
            total = sum(self.weights) + sum(k for _, k in self.interactions)
            if not abs(total - 1.0) <= _CONSISTENCY_TOL:
                raise MalformedModel(
                    "multilinear weights plus interactions must sum to 1"
                )

    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.attribute for a in self.attributes)

    def _combine(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """The form's raw value of each row of per-attribute utility ``columns``: multiplicative
        ``prod *= 1 + k*w*u`` from 1, else ``w*u`` added left to right, then the interactions."""
        if self.form == "multiplicative":
            prod = np.ones_like(columns[0])
            for w, u in zip(self.weights, columns):
                prod *= 1.0 + self.k * w * u
            return prod - 1.0
        total = np.zeros_like(columns[0])
        for w, u in zip(self.weights, columns):
            total += w * u
        by_name = dict(zip(self.attribute_names(), columns))
        for (a, b), kij in self.interactions:
            total += kij * by_name[a] * by_name[b]
        return total


# ``Outcome``'s built-in attributes, in field order.
OUTCOME_ATTRIBUTES = ("path_length", "time_units", "space_units")


@dataclass(frozen=True)
class Outcome:
    """The attribute tuple of one run: moves, computation, peak space.

    ``time_units`` counts node generations and ``space_units`` peak stored
    nodes for real runs; converted outcomes (minutes, megabytes) use the same
    fields.  ``extra`` holds optional additional attributes (e.g. monetary
    cost) as a name -> value mapping.
    """

    path_length: float
    time_units: float
    space_units: float
    solved: bool = True
    extra: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.extra, dict):
            object.__setattr__(self, "extra", tuple(sorted(self.extra.items())))
        if not (self.path_length >= 0 and self.time_units >= 0 and self.space_units >= 0):
            raise ValueError("outcome attributes must be nonnegative and not NaN")


def attribute_value(outcome: Outcome, name: str) -> float:
    """Look up an attribute on an outcome, checking ``extra`` for custom ones."""
    if name in OUTCOME_ATTRIBUTES:
        return getattr(outcome, name)
    for key, value in outcome.extra:
        if key == name:
            return value
    raise AttributeMissing(f"outcome has no attribute {name!r}")


def _column(outcomes: Sequence[Outcome], name: str) -> np.ndarray:
    """Each outcome's attribute ``name``; an unsolved outcome, which scores 0, need not hold an extra one."""
    if name in OUTCOME_ATTRIBUTES:
        return np.fromiter(map(attrgetter(name), outcomes), float, len(outcomes))
    return np.array([attribute_value(o, name) if o.solved else 0.0 for o in outcomes], dtype=float)


UtilityLike = Union[UtilityModel, AttributeUtility]


def utilities_of(values: Sequence[object], u: UtilityLike) -> np.ndarray:
    """The utility of each of ``values`` under ``u``, in one array, each with the bits of
    the scalar arithmetic: a ``UtilityModel`` scores outcomes (0 if unsolved or at a
    bound), an ``AttributeUtility`` scalars or outcomes by its attribute."""
    if isinstance(u, AttributeUtility):
        return u._at(np.array([attribute_value(v, u.attribute) if isinstance(v, Outcome) else v for v in values], float))
    for value in values:
        if not isinstance(value, Outcome):
            raise TypeError(f"UtilityModel scores Outcomes, got {value!r}")
    scored = np.fromiter(map(attrgetter("solved"), values), bool, len(values))
    columns = []
    for curve in u.attributes:
        column = _column(values, curve.attribute)
        scored &= ~(column >= curve.bound)  # NaN is below every bound
        columns.append(curve._at(column))
    value = u._combine(columns) / u._combine([np.ones(1)] * len(columns))  # 1 at the all-best corner
    # min(1, max(0, value)) as Python reads it: NaN and -0.0 give 0.0.
    return np.where(scored & (value > 0.0), np.where(value < 1.0, value, 1.0), 0.0)


def joint_utility(o: Outcome, m: UtilityModel) -> float:
    """Joint utility of an outcome: one read of ``utilities_of``."""
    return float(utilities_of([o], m)[0])


def expected_utility(lot: Lottery, u: UtilityLike) -> float:
    """Probability-weighted utility of a lottery, in [0, 1]."""
    return choose_max_eu([lot], u)[1][0]


def choose_max_eu(
    choices: Sequence[Lottery], u: UtilityLike
) -> tuple[int, list[float]]:
    """Index of the maximum-EU lottery (ties to the lowest index) plus all EUs: one ``utilities_of``
    call scores every entry, then each EU adds its lottery's terms left to right."""
    if not choices:
        raise ValueError("choose_max_eu needs at least one lottery")
    values, probs = zip(*(entry for lot in choices for entry in lot.entries))
    terms = (np.array(probs) * utilities_of(values, u)).tolist()
    ends = list(accumulate(len(lot.entries) for lot in choices))
    eus = [left_sum(terms[start:end]) for start, end in zip([0, *ends], ends)]
    return max(range(len(eus)), key=eus.__getitem__), eus


# --- multiplicative calibration -------------------------------------------

DEFAULT_BOUNDS: Mapping[str, float] = {
    "path_length": 100.0,
    "time_units": 10.0,
    "space_units": 10.0,
}

# Shipped hypothetical workload: three solutions judged equally desirable
# (moves, minutes, megabytes), used to pin the default model's weights.
DEFAULT_EQUIVALENCE_ROWS: tuple[Outcome, ...] = (
    Outcome(path_length=20.0, time_units=8.0, space_units=9.0),
    Outcome(path_length=68.0, time_units=6.0, space_units=9.0),
    Outcome(path_length=93.0, time_units=4.0, space_units=9.0),
)


# The calibration's curves as config blocks: linear from 0 for moves and
# time, free for space.
_CALIBRATION_BLOCKS: Mapping[str, Mapping] = {
    "path_length": {"curve": "linear", "best": 0.0},
    "time_units": {"curve": "linear", "best": 0.0},
    "space_units": {"curve": "free", "best": 0.0},
}


def _calibration_curves(bounds: Mapping[str, float]) -> tuple[AttributeUtility, ...]:
    for name in _CALIBRATION_BLOCKS:
        if name not in bounds:
            raise ValueError(f"bounds must include {name!r}")
    return tuple(
        _attribute_from_block(name, {**block, "bound": bounds[name]})
        for name, block in _CALIBRATION_BLOCKS.items()
    )


# A calibrated model is a solution when its utilities of the rows vary by less.
_VARIANCE_FLOOR = 1e-12

# K's domain and its bisection's cells; K = 0, the degenerate additive root, is excluded.
_K_GRID: tuple[float, ...] = tuple(
    k for k in sorted(-(10.0 ** (-4 + 4 * i / 80)) for i in range(81)) if k > -0.999
) + tuple(10.0 ** (-4 + 8 * i / 160) for i in range(161))


def calibrate_multiplicative(
    equivalence_rows: Sequence[Outcome],
    bounds: Mapping[str, float] = DEFAULT_BOUNDS,
) -> UtilityModel:
    """Fit a multiplicative model that scores the given rows equally.

    Attribute curves are linear from best value to bound for moves and time;
    space is free but bounded (weight 0).  Solves for k_path, k_time, and the
    master constant K: for a trial K, the row-equality equations plus the
    consistency constraint are linear in (A, B, C) = (K*k_p, K*k_t, K^2*k_p*k_t)
    and solved by least squares, which is linear in the right-hand side.  So
    the coupling residual A*B - C is K*(K*a*b - c) for the solution (a, b, c)
    at K = 1, with one nonzero root c/(a*b), which bisection refines in its
    cell of the K grid.  Rows that share a path utility but not a time
    utility, or the reverse, are equal only at a zero weight, which the model
    refuses: they raise CalibrationFailed before any solve, since a solve
    would answer from rounding noise.
    """
    if len(equivalence_rows) < 2:
        raise ValueError("calibration needs at least two equivalence rows")
    curves = _calibration_curves(bounds)
    for row in equivalence_rows:
        for curve in curves:
            if attribute_value(row, curve.attribute) >= curve.bound:
                raise CalibrationFailed(
                    f"row {row} violates the {curve.attribute} bound"
                )
    up, ut = (utilities_of(equivalence_rows, curve).tolist() for curve in curves[:2])
    inconsistent = CalibrationFailed(
        "rows are inconsistent with a multiplicative utility "
        f"(no solution reached variance < {_VARIANCE_FLOOR})"
    )
    if (len(set(up)) == 1) != (len(set(ut)) == 1):
        raise inconsistent
    # Row-equality differences, then the consistency row; the unknowns are (A, B, C).
    matrix = np.array(
        [
            [up[j] - up[j + 1], ut[j] - ut[j + 1], up[j] * ut[j] - up[j + 1] * ut[j + 1]]
            for j in range(len(up) - 1)
        ]
        + [[1.0, 1.0, 1.0]]
    )

    def solve_for(k: float) -> np.ndarray:
        rhs = np.zeros(len(matrix))
        rhs[-1] = k
        solution, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
        return solution

    def coupling(k: float) -> float:
        a, b, c = solve_for(k)
        return a * b - c

    def candidate(k: float) -> UtilityModel | None:
        a, b, _ = solve_for(k)
        k_path, k_time = float(a / k), float(b / k)
        if not (0.0 < k_path <= 1.0 and 0.0 < k_time <= 1.0):
            return None
        # Re-derive K from the recovered weights so the consistency invariant
        # holds to machine precision: 1 + K = (1 + K*k_p)(1 + K*k_t) gives
        # K = (1 - k_p - k_t) / (k_p * k_t).  The model checks K > -1, K != 0.
        try:
            model = UtilityModel(
                attributes=curves,
                form="multiplicative",
                weights=(k_path, k_time, 0.0),
                k=(1.0 - k_path - k_time) / (k_path * k_time),
                tag="multiplicative-calibrated",
            )
        except MalformedModel:
            return None
        return model if np.var(utilities_of(equivalence_rows, model)) < _VARIANCE_FLOOR else None

    a, b, c = solve_for(1.0).tolist()
    i = bisect.bisect_left(_K_GRID, c / (a * b)) if a * b else 0
    model = None
    if 0 < i < len(_K_GRID) and _K_GRID[i - 1] * _K_GRID[i] > 0:
        lo, hi = _K_GRID[i - 1], _K_GRID[i]
        s0 = coupling(lo)
        if s0 == 0.0 or s0 * coupling(hi) < 0:
            model = candidate(lo if s0 == 0.0 else _bisect(coupling, lo, hi, s0))
    if model is None:
        raise inconsistent
    return model


def _bisect(f: Callable[[float], float], lo: float, hi: float, flo: float) -> float:
    """A root of ``f`` between ``lo`` and ``hi``; ``f(lo) = flo`` and ``f(hi)`` differ in sign."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats: no later step would move lo or hi
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def default_utility_model() -> UtilityModel:
    """The shipped model: calibrated on the default equivalence rows."""
    return calibrate_multiplicative(DEFAULT_EQUIVALENCE_ROWS, DEFAULT_BOUNDS)


# --- config files -----------------------------------------------------------


def _attribute_from_block(name: str, block: Mapping) -> AttributeUtility:
    """The curve of one ``attributes`` block of a config."""
    check_keys(block, ("bound", "curve", "best", "points"))
    bound = _field(block["bound"], f"{name} bound", "float")
    curve = block.get("curve", "linear")
    if "points" in block:
        knots = [_field(knot, f"{name} knot", "list") for knot in _field(block["points"], f"{name} points", "list")]
        for knot in knots:
            if len(knot) != 2:
                raise MalformedModel(f"{name} knot must be a [value, utility] pair, got {knot}")
        pts = tuple((_field(x, f"{name} knot", "float"), _field(y, f"{name} knot", "float")) for x, y in knots)
        return AttributeUtility(name, pts, bound)
    best = _field(block.get("best", 0.0), f"{name} best", "float")
    if curve == "free":
        return AttributeUtility.free(name, bound, best=best)
    if curve == "linear":
        return AttributeUtility.linear(name, best, bound)
    raise MalformedModel(f"unknown curve kind {curve!r} for {name}")


def utility_model_from_dict(data: Mapping) -> UtilityModel:
    """Build a model from config data (see the shipped YAML for the schema).

    ``attributes`` maps attribute name to a block with ``bound`` plus either
    ``curve: linear`` (with ``best``) or ``curve: free``, or explicit
    ``points``.  If ``equivalence_rows`` is present the multiplicative model
    is calibrated from them, so ``form``, ``weights``, ``master_k``,
    ``interactions`` and ``tag`` beside them raise ValueError; the blocks
    then give only bounds, and any other setting must match the
    calibration's curves (linear from 0 for path and time, free for space),
    else MalformedModel.  Any other top-level key raises ValueError.
    """
    check_keys(
        data, ("attributes", "equivalence_rows", "form", "weights", "master_k", "interactions", "tag")
    )
    blocks = {
        name: _field(block, name, "Mapping")
        for name, block in _field(data.get("attributes", {}), "attributes", "Mapping").items()
    }
    rows = _field(data.get("equivalence_rows") or [], "equivalence_rows", "list")
    if rows:
        for key in ("form", "weights", "master_k", "interactions", "tag"):
            if key in data:
                raise ValueError(f"has {key!r} beside equivalence_rows, which calibrate the model")
        bounds = {
            name: _field(block["bound"], f"{name} bound", "float") for name, block in blocks.items()
        } or dict(DEFAULT_BOUNDS)
        curves = {c.attribute: c for c in _calibration_curves(bounds)}
        for name, block in blocks.items():
            fixed = _CALIBRATION_BLOCKS.get(name)
            if fixed is None or _attribute_from_block(name, {**fixed, **block}) != curves[name]:
                raise MalformedModel(
                    f"{name}: with equivalence_rows, attributes give only the bounds of "
                    "path_length, time_units (linear from 0) and space_units (free)"
                )
        outcomes = []
        for row in rows:
            row = {"space_units": 0.0, **_field(row, "equivalence_rows entry", "Mapping")}
            check_keys(row, OUTCOME_ATTRIBUTES)
            outcomes.append(Outcome(*(_field(row[k], f"equivalence_rows {k}", "float") for k in OUTCOME_ATTRIBUTES)))
        return calibrate_multiplicative(outcomes, bounds)

    attributes = [_attribute_from_block(name, block) for name, block in blocks.items()]
    names = [a.attribute for a in attributes]
    weight_map = _field(data.get("weights", {}), "weights", "Mapping")
    check_keys(weight_map, names)
    weights = tuple(_field(weight_map.get(n, 0.0), f"weights {n}", "float") for n in names)
    interactions = tuple(
        (_field(key, "interactions key", "str").partition("*")[::2], _field(v, f"interactions {key}", "float"))
        for key, v in _field(data.get("interactions", {}), "interactions", "Mapping").items()
    )
    return UtilityModel(
        attributes=tuple(attributes),
        form=data.get("form", "additive"),
        weights=weights,
        k=_field(data["master_k"], "master_k", "float") if "master_k" in data else None,
        interactions=interactions,  # type: ignore[arg-type]
        tag=_field(data.get("tag", ""), "tag", "str"),
    )
