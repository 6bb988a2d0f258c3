import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eusearch.experiment import load_utility_model
from eusearch.utility import (
    DEFAULT_BOUNDS,
    DEFAULT_EQUIVALENCE_ROWS,
    AttributeMissing,
    AttributeUtility,
    CalibrationFailed,
    InvalidLottery,
    Lottery,
    MalformedModel,
    Outcome,
    UtilityModel,
    _calibration_curves,
    calibrate_multiplicative,
    choose_max_eu,
    default_utility_model,
    expected_utility,
    expected_value,
    joint_utility,
    left_sum,
    utilities_of,
    utility_model_from_dict,
)

from oracles import (
    calibrate_multiplicative_oracle,
    curve_oracle,
    expected_utility_oracle,
    joint_utility_oracle,
)
from replay import replay_decisions

# Rows that calibrate with K < 0.
PINNED_ROWS = (Outcome(10, 9, 2), Outcome(50, 5, 2), Outcome(90, 1.5, 2))

COIN_FLIP = Lottery.of([(10, 0.5), (90, 0.5)])
CERTAIN_55 = Lottery.of([(55, 1.0)])

RISK_AVERSE = AttributeUtility(
    "path_length", ((10.0, 1.0), (55.0, 0.6), (90.0, 0.0)), 90.0
)
RISK_PRONE = AttributeUtility(
    "path_length", ((10.0, 1.0), (55.0, 0.1), (90.0, 0.0)), 90.0
)


class TestLottery:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InvalidLottery):
            Lottery.of([(1, 0.5), (2, 0.4)])

    def test_probabilities_must_be_positive(self):
        with pytest.raises(InvalidLottery):
            Lottery.of([(1, 1.5), (2, -0.5)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidLottery):
            Lottery(())

    @pytest.mark.parametrize("entries", [((1, math.nan),), ((1, 1.0), (2, math.nan)), ((1, math.nan), (2, 1.0))])
    def test_nan_probability_rejected(self, entries):
        with pytest.raises(InvalidLottery):
            Lottery(entries)

    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_normalized_weights_accepted(self, weights):
        total = sum(weights)
        lot = Lottery.of((i, w / total) for i, w in enumerate(weights))
        assert abs(sum(p for _, p in lot.entries) - 1.0) <= 1e-9


class TestExpectedValue:
    def test_coin_flip_is_50(self):
        assert expected_value(COIN_FLIP) == 50.0

    def test_degenerate(self):
        assert expected_value(CERTAIN_55) == 55.0

    def test_weighted_sum(self):
        lot = Lottery.of([(10, 0.2), (45, 0.3), (90, 0.5)])
        assert expected_value(lot) == 60.5

    def test_rejects_non_scalar(self):
        lot = Lottery.of([(Outcome(1, 1, 1), 1.0)])
        with pytest.raises(TypeError):
            expected_value(lot)


class TestExpectedUtility:
    def test_risk_averse_prefers_certainty(self):
        eu_gamble = expected_utility(COIN_FLIP, RISK_AVERSE)
        eu_certain = expected_utility(CERTAIN_55, RISK_AVERSE)
        assert eu_gamble == 0.5
        assert eu_certain == 0.6
        assert eu_certain > eu_gamble

    def test_risk_prone_prefers_gamble(self):
        eu_gamble = expected_utility(COIN_FLIP, RISK_PRONE)
        eu_certain = expected_utility(CERTAIN_55, RISK_PRONE)
        assert eu_gamble == 0.5
        assert eu_certain == 0.1
        assert eu_gamble > eu_certain

    def test_degenerate_equals_curve(self):
        assert expected_utility(Lottery.of([(30, 1.0)]), RISK_AVERSE) == float(utilities_of([30], RISK_AVERSE)[0])

    def test_attribute_curve_scores_its_attribute_of_outcomes(self):
        curve = AttributeUtility.linear("path_length", 0.0, 100.0)
        lot = Lottery.of([(Outcome(25, 9, 9), 0.5), (Outcome(75, 0, 0), 0.5)])
        assert expected_utility(lot, curve) == pytest.approx(0.5)

    @given(
        values=st.lists(st.floats(0, 100), min_size=1, max_size=5),
        alpha=st.floats(0.01, 0.99),
    )
    @settings(max_examples=50, deadline=None)
    def test_mixture_linearity(self, values, alpha):
        curve = AttributeUtility.linear("path_length", 0.0, 120.0)
        l1 = Lottery.of((v, 1.0 / len(values)) for v in values)
        l2 = Lottery.of([(50, 1.0)])
        mixture = Lottery.of(
            [(v, alpha * p) for v, p in l1.entries]
            + [(v, (1 - alpha) * p) for v, p in l2.entries]
        )
        lhs = expected_utility(mixture, curve)
        rhs = alpha * expected_utility(l1, curve) + (1 - alpha) * expected_utility(l2, curve)
        assert abs(lhs - rhs) <= 1e-9

    def test_terms_add_left_to_right_on_every_python(self):
        # Ten terms of 0.1 add to 1 - 2**-53 left to right; CPython 3.12's
        # compensated float ``sum`` gives 1.0, which would move the pinned files.
        best = Outcome(0.0, 0.0, 0.0)
        assert joint_utility(best, default_utility_model()) == 1.0
        assert expected_utility(Lottery.of([(best, 1.0 / 10)] * 10), default_utility_model()) == 0.9999999999999999


class TestChooseMaxEu:
    def test_risk_attitude_flips_choice(self):
        choices = [CERTAIN_55, COIN_FLIP]
        averse_idx, averse_eus = choose_max_eu(choices, RISK_AVERSE)
        prone_idx, prone_eus = choose_max_eu(choices, RISK_PRONE)
        assert averse_idx == 0 and averse_eus == [0.6, 0.5]
        assert prone_idx == 1 and prone_eus == [0.1, 0.5]

    def test_single_choice(self):
        idx, _ = choose_max_eu([COIN_FLIP], RISK_AVERSE)
        assert idx == 0

    def test_tie_breaks_to_lowest_index(self):
        curve = AttributeUtility.linear("path_length", 0.0, 100.0)
        choices = [Lottery.of([(70, 1.0)]), Lottery.of([(30, 1.0)]), Lottery.of([(30, 1.0)])]
        idx, eus = choose_max_eu(choices, curve)
        assert eus == [pytest.approx(0.3), pytest.approx(0.7), pytest.approx(0.7)]
        assert idx == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            choose_max_eu([], RISK_AVERSE)


class TestAttributeUtility:
    def test_bound_forces_zero(self):
        curve = AttributeUtility.linear("time_units", 0.0, 10.0)
        assert float(utilities_of([10.0], curve)[0]) == 0.0
        assert float(utilities_of([25.0], curve)[0]) == 0.0

    def test_linear_interpolation(self):
        curve = AttributeUtility.linear("path_length", 0.0, 100.0)
        assert float(utilities_of([0], curve)[0]) == 1.0
        assert float(utilities_of([25], curve)[0]) == pytest.approx(0.75)
        assert float(utilities_of([-5], curve)[0]) == 1.0

    def test_free_curve(self):
        curve = AttributeUtility.free("space_units", 10.0)
        assert float(utilities_of([9.99], curve)[0]) == 1.0
        assert float(utilities_of([10.0], curve)[0]) == 0.0

    def test_must_be_nonincreasing(self):
        with pytest.raises(MalformedModel):
            AttributeUtility("x", ((0.0, 0.5), (1.0, 0.9)), 2.0)

    def test_knots_must_increase(self):
        with pytest.raises(MalformedModel):
            AttributeUtility("x", ((1.0, 1.0), (1.0, 0.5)), 2.0)

    def test_utilities_within_unit_interval(self):
        with pytest.raises(MalformedModel):
            AttributeUtility("x", ((0.0, 1.2),), 1.0)


class TestUtilityModel:
    def test_additive_weights_must_sum_to_one(self):
        curves = (
            AttributeUtility.linear("path_length", 0, 100),
            AttributeUtility.linear("time_units", 0, 10),
        )
        with pytest.raises(MalformedModel):
            UtilityModel(curves, "additive", (0.5, 0.4))

    def test_multiplicative_consistency_enforced(self):
        curves = (
            AttributeUtility.linear("path_length", 0, 100),
            AttributeUtility.linear("time_units", 0, 10),
        )
        with pytest.raises(MalformedModel):
            UtilityModel(curves, "multiplicative", (0.2, 0.3), k=5.0)

    def test_additive_corner_is_exactly_one(self):
        curves = (
            AttributeUtility.linear("path_length", 0, 100),
            AttributeUtility.linear("time_units", 0, 10),
        )
        m = UtilityModel(curves, "additive", (1 / 3, 2 / 3))
        assert joint_utility(Outcome(0, 0, 0), m) == 1.0

    def test_single_attribute_additive_reduces_to_curve(self):
        curve = AttributeUtility.linear("path_length", 0, 100)
        m = UtilityModel((curve,), "additive", (1.0,))
        for v in (0, 10, 37.5, 99):
            assert joint_utility(Outcome(v, 0, 0), m) == pytest.approx(float(utilities_of([v], curve)[0]))

    def test_multiplicative_near_zero_k_matches_additive(self):
        curves = (
            AttributeUtility.linear("path_length", 0, 100),
            AttributeUtility.linear("time_units", 0, 10),
        )
        k = 1e-6
        k1 = 0.3
        k2 = ((1 + k) / (1 + k * k1) - 1) / k
        mult = UtilityModel(curves, "multiplicative", (k1, k2), k=k)
        add = UtilityModel(curves, "additive", (0.3, 0.7))
        for o in (Outcome(20, 2, 0), Outcome(50, 5, 0), Outcome(90, 9, 0)):
            assert joint_utility(o, mult) == pytest.approx(joint_utility(o, add), abs=1e-4)

    def test_multilinear_form(self):
        curves = (
            AttributeUtility.linear("path_length", 0, 100),
            AttributeUtility.linear("time_units", 0, 10),
        )
        m = UtilityModel(
            curves,
            "multilinear",
            (0.3, 0.3),
            interactions=((("path_length", "time_units"), 0.4),),
        )
        o = Outcome(50, 5, 0)
        u1, u2 = 0.5, 0.5
        expected = 0.3 * u1 + 0.3 * u2 + 0.4 * u1 * u2
        assert joint_utility(o, m) == pytest.approx(expected)
        assert joint_utility(Outcome(0, 0, 0), m) == 1.0

    def test_multilinear_weights_must_normalize(self):
        curves = (
            AttributeUtility.linear("path_length", 0, 100),
            AttributeUtility.linear("time_units", 0, 10),
        )
        with pytest.raises(MalformedModel):
            UtilityModel(
                curves,
                "multilinear",
                (0.5, 0.5),
                interactions=((("path_length", "time_units"), 0.4),),
            )

    def test_unsolved_scores_zero(self):
        m = default_utility_model()
        assert joint_utility(Outcome(100, 1, 1, solved=False), m) == 0.0

    def test_attribute_missing(self):
        curves = (AttributeUtility.linear("cost_dollars", 0, 10_000),)
        m = UtilityModel(curves, "additive", (1.0,))
        with pytest.raises(AttributeMissing):
            joint_utility(Outcome(1, 1, 1), m)

    def test_extra_attribute_scored(self):
        curves = (AttributeUtility.linear("cost_dollars", 0, 10_000),)
        m = UtilityModel(curves, "additive", (1.0,))
        o = Outcome(1, 1, 1, extra={"cost_dollars": 2500.0})
        assert joint_utility(o, m) == pytest.approx(0.75)


class TestCalibration:
    def test_default_rows_equal_within_tolerance(self):
        m = calibrate_multiplicative(DEFAULT_EQUIVALENCE_ROWS, DEFAULT_BOUNDS)
        scores = [joint_utility(row, m) for row in DEFAULT_EQUIVALENCE_ROWS]
        for a in scores[1:]:
            assert abs(a - scores[0]) < 1e-6

    def test_default_rows_nontrivial_utility(self):
        m = calibrate_multiplicative(DEFAULT_EQUIVALENCE_ROWS, DEFAULT_BOUNDS)
        score = joint_utility(DEFAULT_EQUIVALENCE_ROWS[0], m)
        assert 0.0 < score < 1.0

    def test_corner_exactly_one_and_bounds_exactly_zero(self):
        m = calibrate_multiplicative(DEFAULT_EQUIVALENCE_ROWS, DEFAULT_BOUNDS)
        assert joint_utility(Outcome(0.0, 0.0, 0.0), m) == 1.0
        assert joint_utility(Outcome(20.0, 10.0, 9.0), m) == 0.0
        assert joint_utility(Outcome(100.0, 4.0, 9.0), m) == 0.0
        assert joint_utility(Outcome(20.0, 4.0, 10.0), m) == 0.0

    def test_space_is_free_below_bound(self):
        m = calibrate_multiplicative(DEFAULT_EQUIVALENCE_ROWS, DEFAULT_BOUNDS)
        a = joint_utility(Outcome(20, 8, 0.1), m)
        b = joint_utility(Outcome(20, 8, 9.9), m)
        assert a == b

    def test_identical_rows_calibrate_quickly(self):
        rows = (Outcome(50, 5, 1), Outcome(50, 5, 1))
        m = calibrate_multiplicative(rows, DEFAULT_BOUNDS)
        assert joint_utility(rows[0], m) == joint_utility(rows[1], m)

    def test_monotonicity_conflict_fails(self):
        rows = (Outcome(10, 1, 1), Outcome(10, 9, 1))
        with pytest.raises(CalibrationFailed):
            calibrate_multiplicative(rows, DEFAULT_BOUNDS)

    def test_rows_that_share_one_attribute_utility_fail(self):
        # Only a zero weight on the other attribute scores these rows
        # equally; a solve once returned a model with weight ~1e-16.
        sets = [(Outcome(0, 2, 0), Outcome(0, 4, 0), Outcome(0, 0, 0))]
        for a, b in combinations(range(10), 2):
            sets += [(Outcome(shared, a, 0), Outcome(shared, b, 0)) for shared in (0, 50)]
            sets += [(Outcome(10 * a, shared, 0), Outcome(10 * b, shared, 0)) for shared in (0, 5)]
        for rows in sets:
            with pytest.raises(CalibrationFailed):
                calibrate_multiplicative(rows, DEFAULT_BOUNDS)

    def test_out_of_bound_row_fails(self):
        rows = (Outcome(120, 5, 1), Outcome(10, 5, 1))
        with pytest.raises(CalibrationFailed):
            calibrate_multiplicative(rows, DEFAULT_BOUNDS)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            calibrate_multiplicative((Outcome(10, 1, 1),), DEFAULT_BOUNDS)

    def test_pinned_calibrations(self):
        # Exact reprs: a change in the calibration's arithmetic fails here by
        # name, not only as a changed desk fingerprint.
        m = default_utility_model()
        assert repr(m.weights) == "(0.11989342806394335, 0.36944937833037317, 0.0)"
        assert repr(m.k) == "11.528668091168061"
        m = calibrate_multiplicative(PINNED_ROWS, DEFAULT_BOUNDS)
        assert repr(m.weights) == "(0.5258620689655179, 0.5603448275862076, 0.0)"
        assert repr(m.k) == "-0.29255989911728014"

    def test_equals_the_grid_scan_oracle(self):
        # Bisecting only the cell that holds the root gives what scanning the
        # whole K grid gave: the weights and K by repr, or the error type.
        sets = [*replay_decisions.utility_row_sets(300), DEFAULT_EQUIVALENCE_ROWS, PINNED_ROWS]

        def result(calibrate, rows):
            try:
                m = calibrate(rows, DEFAULT_BOUNDS)
            except Exception as exc:
                return type(exc).__name__
            return repr((m.weights, m.k))

        got = [result(calibrate_multiplicative, rows) for rows in sets]
        assert got == [result(calibrate_multiplicative_oracle, rows) for rows in sets]
        assert 100 < sum(r != "CalibrationFailed" for r in got) < len(sets) - 100

    def test_default_model_makes_at_most_60_least_squares_solves(self, monkeypatch):
        lstsq, calls = np.linalg.lstsq, []
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or lstsq(*a, **k))
        default_utility_model()
        assert 0 < len(calls) <= 60

    def test_model_invariants_hold(self):
        m = calibrate_multiplicative(DEFAULT_EQUIVALENCE_ROWS, DEFAULT_BOUNDS)
        assert m.form == "multiplicative"
        assert m.k is not None and m.k > -1.0 and m.k != 0.0
        prod = 1.0
        for w in m.weights:
            prod *= 1.0 + m.k * w
        assert prod == pytest.approx(1.0 + m.k, rel=1e-9)


@st.composite
def solved_outcomes(draw):
    return Outcome(
        path_length=draw(st.floats(0, 99.5)),
        time_units=draw(st.floats(0, 9.95)),
        space_units=draw(st.floats(0, 9.95)),
    )


class TestJointUtilityProperties:
    @given(o=solved_outcomes())
    @settings(max_examples=80, deadline=None)
    def test_range(self, o):
        m = default_utility_model()
        u = joint_utility(o, m)
        assert 0.0 <= u <= 1.0

    @given(o=solved_outcomes(), shrink=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_monotone_improvement(self, o, shrink):
        m = default_utility_model()
        better = Outcome(
            path_length=o.path_length * shrink,
            time_units=o.time_units * shrink,
            space_units=o.space_units,
        )
        assert joint_utility(better, m) >= joint_utility(o, m) - 1e-12

    def test_one_only_at_corner(self):
        m = default_utility_model()
        assert joint_utility(Outcome(0, 0, 0), m) == 1.0
        assert joint_utility(Outcome(0.5, 0, 0), m) < 1.0
        assert joint_utility(Outcome(0, 0.01, 0), m) < 1.0


# Knot values and bounds on a grid, so that drawn outcomes land on them exactly.
GRID = st.one_of(st.integers(0, 40).map(float), st.floats(0, 40))
NAMES = ("path_length", "time_units", "space_units", "cost")


@st.composite
def curves(draw, name):
    xs = sorted(draw(st.lists(GRID, min_size=1, max_size=4, unique=True)))
    ys = sorted(
        draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)), min_size=len(xs), max_size=len(xs))),
        reverse=True,
    )
    bound = draw(st.one_of(st.sampled_from(xs[1:] or [xs[0] + 1]), GRID.map(lambda b: xs[0] + 0.5 + b)))
    return AttributeUtility(name, tuple(zip(xs, ys)), bound)


def _master_k(weights) -> float:
    """The nonzero root K of 1 + K = prod(1 + K*k_i), by bisection."""
    def excess(k):
        return math.prod(1.0 + k * w for w in weights) - (1.0 + k)

    lo, hi = (-1.0 + 1e-12, -1e-9) if sum(weights) > 1 else (1e-9, 1e6)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) * excess(lo) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


@st.composite
def utility_models(draw):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    attributes = tuple(draw(curves(name)) for name in names)
    form = draw(st.sampled_from(["additive", "multiplicative", "multilinear"]))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(names), max_size=len(names)))
    if form == "multiplicative":
        if len(names) == 1:
            return UtilityModel(attributes, form, (1.0,), draw(st.sampled_from([-0.9, -0.3, 0.5, 4.0])))
        weights = tuple(w * draw(st.sampled_from([0.3, 0.6, 0.9])) for w in raw)
        if abs(sum(weights) - 1.0) < 0.05:
            weights = (*weights[:-1], 0.0)
        try:
            return UtilityModel(attributes, form, weights, _master_k(weights))
        except MalformedModel:  # a bisection that stopped short of the tolerance
            return UtilityModel(attributes, "additive", tuple(w / sum(raw) for w in raw))
    pairs = list(combinations(names, 2)) if form == "multilinear" else []
    ks = draw(st.lists(st.floats(-0.2, 0.5), min_size=len(pairs), max_size=len(pairs)))
    total = sum(raw) + sum(ks)
    return UtilityModel(
        attributes, form, tuple(w / total for w in raw), interactions=tuple((p, k / total) for p, k in zip(pairs, ks))
    )


@st.composite
def outcomes_for(draw, model):
    """Outcomes on the model's knots and bounds or off them, some unsolved, with extra attributes."""
    points = [x for a in model.attributes for x, _ in a.points] + [a.bound for a in model.attributes]
    value = st.one_of(st.sampled_from(points), GRID, st.floats(0, 1e3))
    solved = draw(st.booleans())
    extra = {"risk": draw(value)}  # scored by no model
    if solved or draw(st.booleans()):  # an unsolved outcome scores 0 and need not hold ``cost``
        extra["cost"] = draw(st.one_of(value, st.just(math.nan)))
    return Outcome(draw(value), draw(value), draw(value), solved=solved, extra=extra)


def lotteries(draw, values):
    """``values`` cut into lotteries of different lengths with drawn probabilities."""
    cuts = sorted(draw(st.sets(st.integers(1, len(values) - 1), max_size=4))) if len(values) > 1 else []
    out = []
    for start, end in zip([0, *cuts], [*cuts, len(values)]):
        weights = draw(st.lists(st.floats(0.1, 1.0), min_size=end - start, max_size=end - start))
        out.append(Lottery.of((v, w / sum(weights)) for v, w in zip(values[start:end], weights)))
    return out


class TestArrayScorer:
    """``utilities_of`` and its readers against the scalar oracles, bit for bit."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_scalar_oracle(self, data):
        model = data.draw(utility_models())
        outcomes = data.draw(st.lists(outcomes_for(model), min_size=1, max_size=30))
        want = [joint_utility_oracle(o, model) for o in outcomes]
        assert list(map(repr, utilities_of(outcomes, model).tolist())) == list(map(repr, want))
        assert repr(joint_utility(outcomes[0], model)) == repr(want[0])

        lots = lotteries(data.draw, outcomes)
        eus = [expected_utility_oracle(lot, model) for lot in lots]
        best, got = choose_max_eu(lots, model)
        assert list(map(repr, got)) == list(map(repr, eus)) and best == eus.index(max(eus))
        assert repr(expected_utility(lots[-1], model)) == repr(eus[-1])

        for curve in model.attributes:
            scalars = [attr for o in outcomes for attr in (o.path_length, o.time_units)] + [math.nan, curve.bound]
            got = [repr(float(utilities_of([v], curve)[0])) for v in scalars]
            assert got == [repr(float(curve_oracle(curve, v))) for v in scalars]
            lots = lotteries(data.draw, scalars)
            eus = [expected_utility_oracle(lot, curve) for lot in lots]
            assert list(map(repr, choose_max_eu(lots, curve)[1])) == list(map(repr, eus))
            if curve.attribute != "cost":  # an outcome lottery scored by one built-in attribute
                lot = lotteries(data.draw, outcomes)[0]
                assert repr(expected_utility(lot, curve)) == repr(expected_utility_oracle(lot, curve))

    def test_oracle_sums_terms_left_to_right(self):
        lot = Lottery.of([(Outcome(0, 0, 0), 1.0 / 10)] * 10)
        assert expected_utility_oracle(lot, default_utility_model()) == left_sum([0.1] * 10)

    def test_the_clamp_reads_minus_zero_as_zero(self):
        # Under K < 0 the all-best corner is K, so a raw 0 divides to -0.0.
        curve = AttributeUtility("path_length", ((0.0, 1.0), (10.0, 0.0)), 20.0)
        model = UtilityModel((curve,), "multiplicative", (1.0,), -0.5)
        worst = [Outcome(15, 0, 0)] * 9
        assert list(map(repr, utilities_of(worst, model).tolist())) == [repr(joint_utility_oracle(worst[0], model))] * 9
        assert repr(joint_utility_oracle(worst[0], model)) == "0.0"

    def test_a_solved_outcome_without_a_scored_attribute_raises(self):
        cost = AttributeUtility.linear("cost", 0.0, 10.0)
        model = UtilityModel((PATH, cost), weights=(0.5, 0.5))
        assert utilities_of([Outcome(1, 1, 1, solved=False)], model).tolist() == [0.0]
        with pytest.raises(AttributeMissing, match="cost"):
            utilities_of([Outcome(1, 1, 1, extra={"cost": 2.0}), Outcome(1, 1, 1)], model)


class TestConfig:
    DEFAULT_ROWS = [
        {"path_length": 20, "time_units": 8, "space_units": 9},
        {"path_length": 68, "time_units": 6, "space_units": 9},
        {"path_length": 93, "time_units": 4, "space_units": 9},
    ]

    def test_explicit_weights_round_trip(self):
        data = {
            "form": "additive",
            "attributes": {
                "path_length": {"best": 0, "bound": 100, "curve": "linear"},
                "time_units": {"best": 0, "bound": 10, "curve": "linear"},
            },
            "weights": {"path_length": 0.25, "time_units": 0.75},
        }
        m = utility_model_from_dict(data)
        assert joint_utility(Outcome(0, 0, 0), m) == 1.0
        assert joint_utility(Outcome(50, 5, 0), m) == pytest.approx(
            0.25 * 0.5 + 0.75 * 0.5
        )

    def test_equivalence_rows_trigger_calibration(self):
        data = {
            "attributes": {
                "path_length": {"best": 0, "bound": 100, "curve": "linear"},
                "time_units": {"best": 0, "bound": 10, "curve": "linear"},
                "space_units": {"bound": 10, "curve": "free"},
            },
            "equivalence_rows": self.DEFAULT_ROWS,
        }
        m = utility_model_from_dict(data)
        assert m.form == "multiplicative"
        scores = {joint_utility(Outcome(20, 8, 9), m), joint_utility(Outcome(93, 4, 9), m)}
        assert max(scores) - min(scores) < 1e-6

    def test_shipped_config_is_the_default_model(self):
        path = Path(__file__).parents[1] / "configs" / "utility_default.yaml"
        assert load_utility_model(str(path)) == default_utility_model()

    @pytest.mark.parametrize(
        "blocks",
        [
            {"path_length": {"bound": 100}, "time_units": {"bound": 10}, "space_units": {"bound": 10}},
            {
                "path_length": {"bound": 100, "points": [[0, 1], [100, 0]]},
                "time_units": {"bound": 10, "best": 0, "curve": "linear"},
                "space_units": {"bound": 10, "best": 0, "curve": "free"},
            },
        ],
    )
    def test_equivalence_rows_accept_the_calibration_curves(self, blocks):
        data = {"attributes": blocks, "equivalence_rows": self.DEFAULT_ROWS}
        assert utility_model_from_dict(data) == default_utility_model()

    @pytest.mark.parametrize(
        "name, block",
        [
            ("path_length", {"best": 30, "bound": 100, "curve": "free"}),
            ("path_length", {"best": 5, "bound": 100}),
            ("time_units", {"bound": 10, "points": [[0, 1], [5, 0.2], [10, 0]]}),
            ("space_units", {"bound": 10, "curve": "linear"}),
            ("cost", {"bound": 5}),
        ],
    )
    def test_equivalence_rows_reject_other_settings(self, name, block):
        blocks = {n: {"bound": b} for n, b in DEFAULT_BOUNDS.items()}
        data = {"attributes": {**blocks, name: block}, "equivalence_rows": self.DEFAULT_ROWS}
        with pytest.raises(MalformedModel, match=f"^{name}:"):
            utility_model_from_dict(data)

    def test_yaml_file_load(self, tmp_path):
        import yaml

        path = tmp_path / "utility.yaml"
        data = {
            "form": "additive",
            "attributes": {"path_length": {"best": 0, "bound": 100}},
            "weights": {"path_length": 1.0},
        }
        path.write_text(yaml.safe_dump(data))
        m = load_utility_model(str(path))
        assert joint_utility(Outcome(25, 0, 0), m) == pytest.approx(0.75)


PATH = AttributeUtility.linear("path_length", 0.0, 100.0)
TIME = AttributeUtility.linear("time_units", 0.0, 10.0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: AttributeUtility("path_length", (), 100.0), MalformedModel, "at least one knot"),
        (lambda: AttributeUtility("path_length", ((5.0, 1.0),), 5.0), MalformedModel, "bound must exceed"),
        (lambda: UtilityModel((PATH,), form="bogus", weights=(1.0,)), MalformedModel, "unknown combination form"),
        (lambda: UtilityModel((), weights=()), MalformedModel, "at least one attribute"),
        (lambda: UtilityModel((PATH, PATH), weights=(0.5, 0.5)), MalformedModel, "duplicate attribute names"),
        (lambda: UtilityModel((PATH, TIME), weights=(1.0,)), MalformedModel, "one weight per attribute"),
        (lambda: UtilityModel((PATH, TIME), weights=(1.5, -0.5)), MalformedModel, "weights must be nonnegative"),
        (
            lambda: UtilityModel((PATH, TIME), form="multiplicative", weights=(0.5, 0.5), k=-1.0),
            MalformedModel,
            "K > -1, K != 0",
        ),
        (
            lambda: UtilityModel((PATH, TIME), form="multiplicative", weights=(0.5, 0.5), k=0.0),
            MalformedModel,
            "K > -1, K != 0",
        ),
        (
            lambda: UtilityModel(
                (PATH, TIME), form="multilinear", weights=(0.5, 0.5),
                interactions=((("path_length", "space_units"), 0.0),),
            ),
            MalformedModel,
            "bad interaction pair",
        ),
        (lambda: expected_utility(Lottery.of([(3.0, 1.0)]), default_utility_model()), TypeError, "scores Outcomes"),
        (
            lambda: _calibration_curves({"path_length": 100.0, "time_units": 10.0}),
            ValueError,
            "bounds must include 'space_units'",
        ),
        (
            lambda: utility_model_from_dict({"attributes": {"path_length": {"bound": 100, "curve": "cubic"}}}),
            MalformedModel,
            "unknown curve kind 'cubic'",
        ),
    ],
    ids=[
        "no-knots", "bound-at-best", "unknown-form", "no-attributes", "duplicate-names",
        "weight-count", "negative-weight", "K-minus-one", "K-zero", "bad-pair", "model-over-scalars",
        "calibration-without-bound", "unknown-curve",
    ],
)
def test_malformed_utility_input_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()
