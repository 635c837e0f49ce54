from .execute import Trace, TraceEntry, bind, digest, execute
from .model import Edge, GraphValidationError, NodeDef, PipelineGraph
from .mutate import MUTATION_KINDS, Mutation, MutationError, mutate, parse_proposal_line
from .ops import op_def

__all__ = [
    "Trace",
    "TraceEntry",
    "bind",
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
    "op_def",
    "parse_proposal_line",
]
