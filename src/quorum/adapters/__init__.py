from ..core.model import SolverBinding
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


def resolve_solvers(entries, cache_root) -> dict:
    """Resolve a run config's ``solvers`` list into solvers keyed by id.

    ``http-model`` replies are cached under ``cache_root`` unless the
    solver names its own ``cache_dir``.
    """
    solvers = {}
    for entry in entries:
        json_object(entry, "a solver entry")
        try:
            binding = SolverBinding(entry["id"], entry["kind"], entry.get("params", {}))
        except KeyError as exc:
            raise ConfigurationError(f"solver {entry.get('id')!r} needs a {exc.args[0]!r} entry") from exc
        if binding.id in solvers:
            raise ConfigurationError(f"two solvers have the id {binding.id!r}")
        params = binding.params
        if binding.kind == "scripted":
            solver = ScriptedSolver(
                binding.id,
                table=params.get("table", {}),
                rng_seed=params.get("rng_seed", 0),
                prompt_triggers=params.get("prompt_triggers", {}),
                two_stage=params.get("two_stage", {}),
            )
        else:  # http-model, the only other kind a binding admits
            for key in ("base_url", "model"):
                if not isinstance(params.get(key), str):
                    raise ConfigurationError(f"http-model solver {binding.id!r} needs a string {key!r} param")
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
