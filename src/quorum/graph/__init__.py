from .execute import Trace, TraceEntry, digest, execute
from .model import Edge, GraphValidationError, NodeDef, PipelineGraph
from .mutate import MUTATION_KINDS, Mutation, MutationError, mutate
from .ops import ExecutionContext, op_def
from .revise import ab_test, parse_proposal_line

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
    "ab_test",
    "parse_proposal_line",
]
