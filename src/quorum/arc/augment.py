"""Dihedral augmentation and leave-one-out splits."""

from __future__ import annotations

import logging

from ..grids import Grid
from .dsl import DslProgram, Op, eval_dsl
from .task import ArcTask

log = logging.getLogger(__name__)

# The eight symmetries of a rectangle: four rotations, optionally
# preceded by a horizontal flip.  Names double as variant id suffixes.
D4_ELEMENTS = (
    "r0",
    "r90",
    "r180",
    "r270",
    "fr0",
    "fr90",
    "fr180",
    "fr270",
)

_ROTS = {"r0": (), "r90": ("rotate90",), "r180": ("rotate180",), "r270": ("rotate270",)}


def group_program(element: str) -> DslProgram:
    """The symmetry as a DSL program (flip first, then rotate)."""
    flip = ("flip_h",) if element.startswith("f") else ()
    rot = _ROTS[element.removeprefix("f")]
    return DslProgram(tuple(Op(name) for name in flip + rot))


def group_inverse(element: str) -> str:
    """Inverse element: flips are involutions, rotations add mod 360."""
    if element.startswith("f"):
        return element  # (flip then rotate) composed with itself is id
    return {"r0": "r0", "r90": "r270", "r180": "r180", "r270": "r90"}[element]


def apply_element(element: str, grid: Grid) -> Grid:
    return eval_dsl(group_program(element), grid)


def conjugate_program(program: DslProgram, element: str) -> DslProgram:
    """Transport a program along a symmetry: apply the element, the
    program, then the inverse element.  For a pure-geometry program this
    solves a task exactly when the program solves its augmented variant.
    """
    return DslProgram(
        group_program(element).ops + program.ops + group_program(group_inverse(element)).ops
    )


def augment(task: ArcTask) -> list[ArcTask]:
    """All dihedral variants of a task, deduplicated.

    Every input and output grid is transformed by the same group
    element; symmetric tasks collapse to fewer than eight variants.
    Variant ids get deterministic ``:<element>`` suffixes.
    """
    variants, kept = [], []  # kept keys are compared by equality: no grid is hashed
    for element in D4_ELEMENTS:
        train = tuple(
            (apply_element(element, i), apply_element(element, o)) for i, o in task.train
        )
        test = tuple(
            (apply_element(element, i), apply_element(element, o) if o is not None else None)
            for i, o in task.test
        )
        key = (train, test)
        if key in kept:
            continue
        kept.append(key)
        variants.append(ArcTask(f"{task.id}:{element}", train, test))
    return variants


def leave_one_out(task: ArcTask) -> list[tuple[ArcTask, tuple[Grid, Grid]]]:
    """One variant per training pair, with that pair moved to the test slot.

    The held-out pair's output is retained (as the variant's test
    reference) for scoring.  Single-pair tasks yield nothing.
    """
    if len(task.train) < 2:
        log.warning("task %s has %d train pair(s); leave-one-out needs 2", task.id, len(task.train))
        return []
    out = []
    for i, held in enumerate(task.train):
        rest = task.train[:i] + task.train[i + 1:]
        variant = ArcTask(f"{task.id}:loo{i}", rest, (held,))
        out.append((variant, held))
    return out
