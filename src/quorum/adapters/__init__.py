from ..core.model import SolverBinding
from ..errors import ConfigurationError
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


def resolve_solvers(entries, cache_root) -> dict:
    """Resolve a run config's ``solvers`` list into solvers keyed by id.

    ``http-model`` replies are cached under ``cache_root`` unless the
    solver names its own ``cache_dir``.
    """
    solvers = {}
    for entry in entries:
        try:
            binding = SolverBinding(entry["id"], entry["kind"], entry.get("params", {}))
        except KeyError as exc:
            raise ConfigurationError(f"solver {entry.get('id')!r} needs a {exc.args[0]!r} entry") from exc
        params = binding.params
        if binding.kind == "scripted":
            solver = ScriptedSolver(
                binding.id,
                table={k: [tuple(e) for e in v] for k, v in params.get("table", {}).items()},
                rng_seed=params.get("rng_seed", 0),
                prompt_triggers={
                    t: {k: [tuple(e) for e in v] for k, v in tab.items()}
                    for t, tab in params.get("prompt_triggers", {}).items()
                },
                two_stage={
                    k: [(pre, p, [tuple(e) for e in tab]) for pre, p, tab in v]
                    for k, v in params.get("two_stage", {}).items()
                },
            )
        else:  # http-model, the only other kind a binding admits
            client = ChatClient(
                base_url=params["base_url"],
                model=params["model"],
                cache_dir=params.get("cache_dir", cache_root),
                api_key_env=params.get("api_key_env", "OPENAI_API_KEY"),
                temperature=params.get("temperature", 1.0),
                max_tokens=params.get("max_tokens"),
                timeout_s=params.get("timeout_s", 60.0),
                max_retries=params.get("max_retries", 3),
                max_in_flight=params.get("max_in_flight", 4),
            )
            solver = ChatSolver(binding.id, client)
        solvers[binding.id] = solver
    return solvers
