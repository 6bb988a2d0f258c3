"""``scripts/replay_decisions.py``, loaded from its file as a module.

Its ``tile_pairs`` is the one decoder of the state-key traces that 2x2 and
3x3 runs record: tests that need a traced run's tiles read them through it.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).parents[1] / "scripts" / "replay_decisions.py"
_SPEC = importlib.util.spec_from_file_location("replay_decisions", _PATH)
replay_decisions = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(replay_decisions)
tile_pairs = replay_decisions.tile_pairs
