"""Golden-count gate: every round must reproduce the stored counts exactly.

The determinism contract says speed work never changes counts, so the same
workload and seed must always give the same frames, frame errors, bit
errors, information-bit errors and total iterations per Eb/N0 point.

Counts for the seeds listed in ``golden_counts.json`` (next to this file)
were recorded on the tree that introduced the benchmark.  A seed not listed
there is recorded by its first round into the checkout's benchmark cache,
and every later round and run is compared with that record.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

COMMITTED = Path(__file__).with_name("golden_counts.json")


def golden_key(spec: dict, seed: int) -> str:
    """Key of one workload and seed (the smoke twin is keyed separately)."""
    return f"{spec['name']}/c{spec['circulant']}/seed{int(seed)}"


def _load(path: Path) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


class GoldenCounts:
    """Expected per-point counts, from the committed file or a local record."""

    def __init__(self, learned_path: Path) -> None:
        self.committed = _load(COMMITTED)
        self.learned_path = Path(learned_path)

    def expected(self, key: str) -> list[dict] | None:
        if key in self.committed:
            return self.committed[key]
        return _load(self.learned_path).get(key)

    def record(self, key: str, points: list[dict]) -> None:
        learned = _load(self.learned_path)
        learned[key] = points
        self.learned_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.learned_path.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            json.dump(learned, handle, indent=1, sort_keys=True)
        os.replace(tmp, self.learned_path)

    def mismatches(self, key: str, points: list[dict]) -> list[int]:
        """Indices of the points that differ from the golden counts.

        The first round of an unrecorded key records it and passes.  A
        different number of points marks every point as mismatched.
        """
        expected = self.expected(key)
        if expected is None:
            self.record(key, points)
            return []
        if len(expected) != len(points):
            return list(range(max(len(expected), len(points))))
        return [i for i, (want, got) in enumerate(zip(expected, points)) if want != got]
