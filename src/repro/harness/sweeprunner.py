"""Multi-process sweep runner: farm independent (scenario, seed) cells.

Campaigns and sweeps are embarrassingly parallel — every cell builds its
own deterministic cluster.  A *cell* is one unit of sweep work (an
aggregate overload point, a fault schedule at one seed, a shard-count
measurement): the module-level function that measures it plus picklable
keyword arguments, so it can cross a process boundary and its result
comes back unchanged.

Two guarantees the tests pin:

* **Collision-free per-cell seeds.**  Child seeds are derived by hashing
  ``(scenario, base seed, cell index)`` with SHA-256 — never ``seed + i``,
  which collides across scenarios sharing a base seed (scenario A cell 1
  and scenario B cell 0 would run identical RNG streams and masquerade as
  independent measurements).  Cells that carry an explicit ``seed`` (the
  fault campaign's schedule × seed grid, where the seed is part of the
  cell's identity for deterministic re-runs) bypass derivation.
* **Serial ≡ parallel.**  Results are returned in cell order regardless
  of completion order, every cell runs against a fresh deterministic
  simulation, and merged documents are serialized with sorted keys — so
  a parallel run's merged JSON is byte-identical to a serial run of the
  same cells.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class SweepCell:
    """One unit of sweep work: ``fn(seed=..., **params)``.

    ``fn`` must be a module-level function and ``params`` picklable, so
    the cell can cross a process boundary; its result comes back as is.
    """

    fn: Callable[..., Any]
    scenario: str                  # scenario label, part of seed derivation
    params: dict = field(default_factory=dict)
    seed: Optional[int] = None     # explicit seed; None derives one per cell


def derive_cell_seed(scenario: str, base_seed: int, index: int) -> int:
    """Collision-free child seed for cell ``index`` of ``scenario``.

    SHA-256 over the full identity, truncated to 63 bits — distinct
    (scenario, base_seed, index) triples get distinct streams with
    overwhelming probability, unlike ``base_seed + index`` which collides
    as soon as two scenarios share a base seed.
    """
    material = f"cell|{scenario}|{base_seed}|{index}".encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big") >> 1


def _run_cell(cell: SweepCell, seed: int) -> Any:
    """Top-level so it pickles under any multiprocessing start method."""
    return cell.fn(seed=seed, **cell.params)


def cell_seeds(cells: list[SweepCell], base_seed: int) -> list[int]:
    """The seed each cell will run at: explicit if set, derived otherwise."""
    return [
        cell.seed if cell.seed is not None
        else derive_cell_seed(cell.scenario, base_seed, index)
        for index, cell in enumerate(cells)
    ]


def run_cells(
    cells: list[SweepCell], base_seed: int = 3, workers: int = 1
) -> list:
    """Run every cell; results in cell order regardless of ``workers``.

    ``workers <= 1`` runs in-process (no subprocess cost, same results);
    more farms cells across a process pool.
    """
    seeds = cell_seeds(cells, base_seed)
    if workers <= 1 or len(cells) <= 1:
        return list(map(_run_cell, cells, seeds))
    with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
        return list(pool.map(_run_cell, cells, seeds))


def merged_json(document: dict) -> str:
    """Canonical serialization for merged BENCH documents.

    Sorted keys and fixed separators make the bytes a pure function of
    the data, so serial and parallel sweeps of the same cells can be
    compared with ``==`` on the file contents.
    """
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
