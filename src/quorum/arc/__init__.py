from ..grids import Grid
from .augment import (
    D4_ELEMENTS,
    apply_element,
    augment,
    conjugate_program,
    group_inverse,
    group_program,
    leave_one_out,
)
from .dsl import GEOMETRY_OPS, MAX_OPS, DslProgram, Op, eval_dsl, parse_dsl, print_dsl
from .programs import ExternalProgram, ProgramRunError, predict, run_program, verify_program
from .prompts import STYLES, format_prompt
from .task import ArcTask

__all__ = [
    "D4_ELEMENTS",
    "apply_element",
    "augment",
    "conjugate_program",
    "group_inverse",
    "group_program",
    "leave_one_out",
    "GEOMETRY_OPS",
    "MAX_OPS",
    "DslProgram",
    "Op",
    "eval_dsl",
    "parse_dsl",
    "print_dsl",
    "Grid",
    "ExternalProgram",
    "ProgramRunError",
    "predict",
    "run_program",
    "verify_program",
    "STYLES",
    "format_prompt",
    "ArcTask",
]
