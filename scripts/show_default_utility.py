#!/usr/bin/env python3
"""Print the calibrated default utility model and its equivalence-row scores."""

from eusearch.utility import (
    DEFAULT_EQUIVALENCE_ROWS,
    Outcome,
    default_utility_model,
    joint_utility,
)


def main() -> None:
    model = default_utility_model()
    names = model.attribute_names()
    print("form:", model.form)
    print("master K:", model.k)
    for name, weight in zip(names, model.weights):
        print(f"weight k_{name}: {weight}")
    print()
    print("equivalence rows (moves, minutes, megabytes) -> joint utility")
    for row in DEFAULT_EQUIVALENCE_ROWS:
        print(
            f"  ({row.path_length:5.1f}, {row.time_units:4.1f}, {row.space_units:4.1f})"
            f" -> {joint_utility(row, model):.9f}"
        )
    print()
    print("corner (0 moves, 0 min, 0 MB) ->", joint_utility(Outcome(0, 0, 0), model))
    print("over time bound (20, 10, 9)  ->", joint_utility(Outcome(20, 10, 9), model))


if __name__ == "__main__":
    main()
