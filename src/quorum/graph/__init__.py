from .execute import Trace, TraceEntry, digest, execute
from .model import Edge, GraphValidationError, NodeDef, PipelineGraph
from .mutate import MUTATION_KINDS, Mutation, MutationError, mutate, parse_proposal_line
from .ops import ExecutionContext, op_def

__all__ = [
    "Trace",
    "TraceEntry",
    "digest",
    "execute",
    "Edge",
    "GraphValidationError",
    "NodeDef",
    "PipelineGraph",
    "MUTATION_KINDS",
    "Mutation",
    "MutationError",
    "mutate",
    "ExecutionContext",
    "op_def",
    "parse_proposal_line",
]
