"""Expected-utility selection of lookahead levels; whole algorithms are chosen
the same way, by ``utility.choose_max_eu`` over their outcome lotteries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .perfmodel import EmpiricalTable, MarkovParams, _entries
from .utility import Lottery, Outcome, UtilityModel, choose_max_eu

# ``expected_utility`` is looked up here by the benchmark's tracer (perfbench/tracing.py).
from .utility import expected_utility  # noqa: F401


@dataclass(frozen=True)
class SelectionReport:
    """The chosen lookahead level plus the expected utility of every candidate."""

    chosen_level: int
    eu_by_level: Mapping[int, float]

    def __post_init__(self) -> None:
        best = max(self.eu_by_level.values())
        if self.eu_by_level[self.chosen_level] != best:
            raise ValueError("chosen level does not attain the maximum EU")


def select_lookahead(
    d: int,
    model: MarkovParams | EmpiricalTable,
    u: UtilityModel,
    levels: Sequence[int],
    samples: int = 10_000,
    seed: int = 0,
    extrapolate: bool = False,
    convert: Callable[[Outcome], Outcome] | None = None,
) -> SelectionReport:
    """Pick the level maximizing expected utility at depth ``d``.

    Ties break toward the smaller level (cheaper decisions at equal EU).  One
    ``_entries`` call reads every level's entries, so Markov predictions share
    one walk.  ``convert`` maps predicted outcomes into the utility model's units
    (e.g. node generations to minutes) before scoring; default is identity.
    Each level's entries (``predict``'s) are converted once, into one ``Lottery``.
    """
    if not levels:
        raise ValueError("select_lookahead needs at least one level")
    levels = sorted(levels)
    per_level = _entries(model, d, levels, samples, seed, extrapolate)
    if convert is not None:
        per_level = [[(convert(o), p) for o, p in entries] for entries in per_level]
    best, eus = choose_max_eu([Lottery(tuple(entries)) for entries in per_level], u)
    return SelectionReport(chosen_level=levels[best], eu_by_level=dict(zip(levels, eus)))
