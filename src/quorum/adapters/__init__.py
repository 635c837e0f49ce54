from functools import partial

from ..aggregate import table_name
from ..errors import ConfigurationError, integer, json_object, list_of, number, string
from .base import SolverError, sample, supports_two_stage
from .chat import (
    ChatAuthError,
    ChatClient,
    ChatError,
    ChatRateLimitError,
    ChatRequestError,
    ChatServerError,
    ChatSolver,
)
from .scripted import ScriptedSolver, TransformSolver

__all__ = [
    "SolverError",
    "sample",
    "supports_two_stage",
    "ChatAuthError",
    "ChatClient",
    "ChatError",
    "ChatRateLimitError",
    "ChatRequestError",
    "ChatServerError",
    "ChatSolver",
    "ScriptedSolver",
    "TransformSolver",
    "resolve_solvers",
]


def _null_or(check):
    return lambda value, what: None if value is None else check(value, what)


# Each http-model param with its shape check; a ChatClient setting left
# out keeps the default in the client's own signature.
_CHAT_PARAMS = {
    "base_url": string, "model": string, "cache_dir": string, "api_key_env": _null_or(string),
    "temperature": number, "max_tokens": _null_or(partial(integer, floor=1)),
    "timeout_s": partial(number, positive=True), "max_retries": partial(integer, floor=0),
    "max_in_flight": partial(integer, floor=1),
}
# The params each solver kind takes.
_PARAMS = {"scripted": ("table", "rng_seed", "prompt_triggers", "two_stage"), "http-model": _CHAT_PARAMS}


def resolve_solvers(entries, cache_root) -> dict:
    """Resolve a run config's ``solvers`` list into solvers keyed by id.

    ``http-model`` replies are cached under ``cache_root`` unless the
    solver names its own ``cache_dir``.
    """
    solvers = {}
    for entry in list_of(entries, "solvers"):
        sid = string(json_object(entry, "a solver entry", required=("id", "kind"))["id"], "solver id", nonempty=True)
        table_name(sid, "the solver id")
        if sid in solvers:
            raise ConfigurationError(f"two solvers have the id {sid!r}")
        kind = string(entry["kind"], f"solver {sid!r} kind")
        if kind not in _PARAMS:
            raise ConfigurationError(f"unknown solver kind {kind!r}")
        params = json_object(entry.get("params", {}), f"{kind} solver {sid!r} params", keys=_PARAMS[kind])
        if kind == "scripted":
            solvers[sid] = ScriptedSolver(sid, **{"table": {}, **params})
        else:
            for key in ("base_url", "model", *params):  # the first two are required
                _CHAT_PARAMS[key](params.get(key), f"http-model solver {sid!r} {key!r} param")
            solvers[sid] = ChatSolver(sid, ChatClient(**{"cache_dir": cache_root, **params}))
    return solvers
