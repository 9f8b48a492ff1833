"""Girth-aware construction of Quasi-Cyclic circulant specifications.

The official CCSDS 131.1-O-2 standard fixes the exact first-row positions of
the 32 circulants of the C2 code.  Those tables are not redistributed here;
instead :func:`build_ccsds_like_spec` builds a code with the *same structure*
(2 x 16 array of 511 x 511 circulants, block weight 2, total column weight 4,
row weight 32) and girth >= 6, using a deterministic greedy search over
circulant offsets.  The algebraic 4-cycle condition used below is the
standard one for QC-LDPC codes: a length-4 cycle exists exactly when two
(block-row, block-column) difference sets collide.

If the official tables are available they can be loaded with
:mod:`repro.io.circulant_table` and every downstream component (encoder,
decoders, architecture model) works unchanged.
"""

from __future__ import annotations

from itertools import combinations

from repro.codes.qc import CirculantSpec
from repro.utils.rng import ensure_rng

__all__ = [
    "build_ccsds_like_spec",
    "build_random_regular_spec",
    "spec_has_four_cycle",
    "count_four_cycles",
]


def _pair_differences(positions_a, positions_b, size: int, *, same_block: bool) -> list[int]:
    """All differences ``(p - q) mod size`` between two position sets.

    When ``same_block`` is true the diagonal pairs ``p == q`` are skipped
    (they correspond to the same bit / same check, not a cycle).
    """
    diffs = []
    for p in positions_a:
        for q in positions_b:
            if same_block and p == q:
                continue
            diffs.append((p - q) % size)
    return diffs


def spec_has_four_cycle(spec: CirculantSpec) -> bool:
    """Whether the expanded Tanner graph of ``spec`` contains a 4-cycle.

    Works purely on the circulant offsets (no graph expansion) using the
    difference-set condition, so it is exact and fast even for the full
    511-circulant code.
    """
    return count_four_cycles(spec, stop_at_first=True) > 0


def count_four_cycles(spec: CirculantSpec, *, stop_at_first: bool = False) -> int:
    """Count the block-level 4-cycle conditions violated by ``spec``.

    The count is the number of colliding difference pairs at the block level
    (each corresponds to ``circulant_size`` actual 4-cycles in the expanded
    graph); it is intended as a construction-quality metric, not an exact
    cycle enumeration.
    """
    size = spec.circulant_size
    violations = 0

    # Condition A: within one block row, a repeated difference for a column
    # pair (two distinct circulant-position pairs giving the same shift).
    for j in range(spec.row_blocks):
        for k1 in range(spec.col_blocks):
            for k2 in range(k1, spec.col_blocks):
                same = k1 == k2
                diffs = _pair_differences(
                    spec.block_positions[j][k1],
                    spec.block_positions[j][k2],
                    size,
                    same_block=same,
                )
                repeats = len(diffs) - len(set(diffs))
                violations += repeats
                if stop_at_first and violations:
                    return violations

    # Condition B: across two block rows, the difference sets of the same
    # column pair intersect.
    for j1, j2 in combinations(range(spec.row_blocks), 2):
        for k1 in range(spec.col_blocks):
            for k2 in range(k1, spec.col_blocks):
                same = k1 == k2
                diffs1 = set(
                    _pair_differences(
                        spec.block_positions[j1][k1],
                        spec.block_positions[j1][k2],
                        size,
                        same_block=same,
                    )
                )
                diffs2 = set(
                    _pair_differences(
                        spec.block_positions[j2][k1],
                        spec.block_positions[j2][k2],
                        size,
                        same_block=same,
                    )
                )
                violations += len(diffs1 & diffs2)
                if stop_at_first and violations:
                    return violations
    return violations


def _column_violations(
    new_column: list[tuple[int, ...]],
    placed_columns: list[list[tuple[int, ...]]],
    size: int,
) -> int:
    """Number of block-level 4-cycle conditions introduced by ``new_column``.

    ``new_column[j]`` is the position tuple for block row ``j``;
    ``placed_columns`` holds the previously accepted columns.  Zero means the
    column can be added without creating any 4-cycle.
    """
    row_blocks = len(new_column)
    violations = 0

    # Within the new column: differences of distinct rows must not collide,
    # and each row's own difference set must have no repeats.
    per_row_diffs = []
    for j in range(row_blocks):
        diffs = _pair_differences(new_column[j], new_column[j], size, same_block=True)
        violations += len(diffs) - len(set(diffs))
        per_row_diffs.append(set(diffs))
    for j1, j2 in combinations(range(row_blocks), 2):
        violations += len(per_row_diffs[j1] & per_row_diffs[j2])

    # Against every previously placed column.
    for other in placed_columns:
        cross_sets = []
        for j in range(row_blocks):
            diffs = _pair_differences(new_column[j], other[j], size, same_block=False)
            violations += len(diffs) - len(set(diffs))
            cross_sets.append(set(diffs))
        for j1, j2 in combinations(range(row_blocks), 2):
            violations += len(cross_sets[j1] & cross_sets[j2])
    return violations


def build_ccsds_like_spec(
    circulant_size: int = 511,
    row_blocks: int = 2,
    col_blocks: int = 16,
    block_weight: int = 2,
    *,
    rng=None,
    max_attempts_per_column: int = 500,
    require_girth_6: bool = False,
) -> CirculantSpec:
    """Build a QC circulant specification with the CCSDS C2 structure.

    Columns are placed one at a time; for each column, candidate circulant
    offsets are drawn uniformly at random and the candidate introducing the
    fewest 4-cycles against the already-placed columns is kept (stopping
    early when a 4-cycle-free candidate is found).  With the real CCSDS
    parameters (511-circulants, 16 block columns, weight 2) a 4-cycle-free —
    i.e. girth >= 6 — code is always found within a handful of attempts per
    column; for heavily scaled-down circulant sizes (used by fast tests) a
    best-effort code with a few short cycles may be returned instead, unless
    ``require_girth_6`` is set.

    Parameters
    ----------
    circulant_size, row_blocks, col_blocks, block_weight:
        Structure of the block array; the defaults are the CCSDS C2 values.
    rng:
        Seed or generator; the same seed always produces the same code.
    max_attempts_per_column:
        Rejection-sampling budget per block column.
    require_girth_6:
        When ``True``, raise instead of returning a code containing 4-cycles.

    Raises
    ------
    RuntimeError
        If ``require_girth_6`` is set and a 4-cycle-free column cannot be
        found within the attempt budget.
    """
    if block_weight < 1:
        raise ValueError("block_weight must be >= 1")
    if block_weight > circulant_size:
        raise ValueError("block_weight cannot exceed circulant_size")
    rng = ensure_rng(rng)
    placed: list[list[tuple[int, ...]]] = []
    for column_index in range(col_blocks):
        best_candidate = None
        best_violations = None
        for _ in range(max_attempts_per_column):
            candidate = [
                tuple(
                    sorted(
                        int(p)
                        for p in rng.choice(circulant_size, size=block_weight, replace=False)
                    )
                )
                for _ in range(row_blocks)
            ]
            violations = _column_violations(candidate, placed, circulant_size)
            if best_violations is None or violations < best_violations:
                best_candidate = candidate
                best_violations = violations
            if violations == 0:
                break
        if best_violations and require_girth_6:
            raise RuntimeError(
                f"could not place block column {column_index} without 4-cycles; "
                f"increase circulant_size or lower block_weight"
            )
        placed.append(best_candidate)

    block_rows = tuple(
        tuple(placed[k][j] for k in range(col_blocks)) for j in range(row_blocks)
    )
    return CirculantSpec(circulant_size, block_rows)


def build_random_regular_spec(
    circulant_size: int,
    row_blocks: int,
    col_blocks: int,
    block_weight: int = 1,
    *,
    rng=None,
) -> CirculantSpec:
    """Build a random (not girth-conditioned) regular circulant specification.

    Useful as a baseline in construction-quality studies and for exercising
    code paths on arbitrary shapes; prefer :func:`build_ccsds_like_spec` for
    codes that will actually be decoded.
    """
    rng = ensure_rng(rng)
    rows = []
    for _ in range(row_blocks):
        row = []
        for _ in range(col_blocks):
            positions = tuple(
                sorted(
                    int(p)
                    for p in rng.choice(circulant_size, size=block_weight, replace=False)
                )
            )
            row.append(positions)
        rows.append(tuple(row))
    return CirculantSpec(circulant_size, tuple(rows))
