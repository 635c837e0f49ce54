from ..errors import ConfigurationError, json_object
from .base import Solver, SolverError, sample, supports_two_stage
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
    "Solver",
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


# The ChatClient settings an http-model solver's params may set; the
# client's own signature holds the default of each one left out.
_CHAT_PARAMS = frozenset({"base_url", "model", "cache_dir", "api_key_env", "temperature", "max_tokens",
                          "timeout_s", "max_retries", "max_in_flight"})


def resolve_solvers(entries, cache_root) -> dict:
    """Resolve a run config's ``solvers`` list into solvers keyed by id.

    ``http-model`` replies are cached under ``cache_root`` unless the
    solver names its own ``cache_dir``.
    """
    solvers = {}
    for entry in entries:
        json_object(entry, "a solver entry")
        try:
            sid, kind = entry["id"], entry["kind"]
        except KeyError as exc:
            raise ConfigurationError(f"solver {entry.get('id')!r} needs a {exc.args[0]!r} entry") from exc
        if not isinstance(sid, str) or not sid:
            raise ConfigurationError(f"solver id must be a non-empty string, got {sid!r}")
        if sid in solvers:
            raise ConfigurationError(f"two solvers have the id {sid!r}")
        params = json_object(entry.get("params", {}), f"solver {sid!r} params")
        if kind == "scripted":
            solver = ScriptedSolver(
                sid,
                table=params.get("table", {}),
                rng_seed=params.get("rng_seed", 0),
                prompt_triggers=params.get("prompt_triggers", {}),
                two_stage=params.get("two_stage", {}),
            )
        elif kind == "http-model":
            for key in ("base_url", "model"):
                if not isinstance(params.get(key), str):
                    raise ConfigurationError(f"http-model solver {sid!r} needs a string {key!r} param")
            unknown = sorted(set(params) - _CHAT_PARAMS)
            if unknown:
                raise ConfigurationError(f"http-model solver {sid!r} takes no {unknown[0]!r} param")
            solver = ChatSolver(sid, ChatClient(**{"cache_dir": cache_root, **params}))
        else:
            raise ConfigurationError(f"unknown solver kind {kind!r}")
        solvers[sid] = solver
    return solvers
