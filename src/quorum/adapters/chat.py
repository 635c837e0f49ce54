"""OpenAI-compatible chat-completions client with a disk cache.

One client per endpoint; in-flight requests are bounded by a semaphore.
Identical (model, prompt, params, seed) requests are served from the
cache without touching the network.  Cache files hold request and
response verbatim for audit.  Secrets come only from the environment
variable named in the configuration, never from config files.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional

from ..errors import ConfigurationError, QuorumError
from .base import SolverError


class ChatError(QuorumError):
    """Base for HTTP chat failures."""


class ChatAuthError(ChatError):
    pass


class ChatRateLimitError(ChatError):
    pass


class ChatServerError(ChatError):
    pass


class ChatRequestError(ChatError):
    pass


def _error_for_status(status: int, body: str) -> ChatError:
    snippet = body[:200]
    if status in (401, 403):
        return ChatAuthError(f"HTTP {status}: {snippet}")
    if status == 429:
        return ChatRateLimitError(f"HTTP {status}: {snippet}")
    if status >= 500:
        return ChatServerError(f"HTTP {status}: {snippet}")
    return ChatRequestError(f"HTTP {status}: {snippet}")


# json.dumps(..., sort_keys=True) without a fresh encoder per call
_encode = json.JSONEncoder(sort_keys=True).encode


def _retry_after_s(value: Optional[str], cap: float) -> float:
    """The seconds a ``Retry-After`` header asks for, at most ``cap``; 0
    when it is absent or not a number of seconds (an HTTP date is ignored)."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return 0.0
    return min(seconds, cap) if seconds >= 0 else 0.0


class ChatClient:
    def __init__(
        self,
        base_url: str,
        model: str,
        cache_dir: str | Path,
        api_key_env: Optional[str] = "OPENAI_API_KEY",
        temperature: float = 1.0,
        max_tokens: Optional[int] = None,
        timeout_s: float = 60.0,
        max_retries: int = 3,
        backoff_s: float = 0.5,
        max_in_flight: int = 4,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.api_key_env = api_key_env
        self.temperature = temperature
        self.max_tokens = max_tokens
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._gate = threading.BoundedSemaphore(max_in_flight)
        self._local = threading.local()
        self._entry_prefix = os.path.join(self.cache_dir, "")  # a str: each entry's path is one concatenation
        self._key_memo = self._key_prefix()
        self._session = None  # built on the first cache miss: a fully cached run never imports requests
        self._session_lock = threading.Lock()

    # -- cache ---------------------------------------------------------

    def _params(self) -> dict:
        params = {"temperature": self.temperature}
        if self.max_tokens is not None:
            params["max_tokens"] = self.max_tokens
        return params

    def _key_prefix(self) -> tuple:
        """sha256 fed the key JSON up to the prompt, with the settings it was
        built from.  Sorted, the request's keys run model, params, prompt,
        seed, so the fixed part comes first."""
        model, temperature, max_tokens = self.model, self.temperature, self.max_tokens
        head = _encode({"model": model, "params": self._params()})
        return model, temperature, max_tokens, hashlib.sha256(f'{head[:-1]}, "prompt": '.encode())

    def cache_key(self, prompt: str, seed: int) -> str:
        """sha256 of ``json.dumps`` of the request with sorted keys."""
        memo = self._key_memo
        # by identity: equal settings may encode apart (1 and 1.0, 0.0 and -0.0)
        if memo[0] is not self.model or memo[1] is not self.temperature or memo[2] is not self.max_tokens:
            memo = self._key_memo = self._key_prefix()
        digest = memo[3].copy()
        digest.update(f'{_encode(prompt)}, "seed": {seed if type(seed) is int else _encode(seed)}}}'.encode())
        return digest.hexdigest()

    def _cache_path(self, key: str) -> str:
        return f"{self._entry_prefix}{key}.json"

    def _cache_read(self, key: str) -> Optional[str]:
        try:
            with open(self._cache_path(key), "rb", buffering=0) as fh:
                blob = fh.read()
        except FileNotFoundError:
            return None
        try:
            # Decoded strictly as UTF-8 before parsing, as a text-mode read
            # does: json.loads of the bytes would also take a BOM or UTF-16.
            entry = json.loads(blob.decode())
            return entry["response"]["choices"][0]["message"]["content"]
        except (ValueError, RecursionError, KeyError, IndexError, TypeError):
            return None  # corrupt cache entries count as misses: not UTF-8 JSON, too long an int or too deep

    def _cache_write(self, key: str, request: dict, response: dict):
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump({"request": request, "response": response}, fh, indent=2, sort_keys=True)
        os.replace(tmp, self._cache_path(key))

    # -- requests ------------------------------------------------------

    @property
    def last_trace(self) -> list[dict]:
        """Attempt log of this thread's most recent ``complete`` call."""
        return getattr(self._local, "trace", [])

    def complete(self, prompt: str, seed: int = 0) -> str:
        key = self.cache_key(prompt, seed)
        self._local.trace = trace = []
        cached = self._cache_read(key)
        if cached is not None:
            trace.append({"attempt": 0, "source": "cache", "key": key})
            return cached

        if self.api_key_env is not None and not os.environ.get(self.api_key_env):
            raise ConfigurationError(f"secret environment variable {self.api_key_env!r} is not set")

        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "seed": seed,
            **self._params(),
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key_env is not None:
            headers["Authorization"] = f"Bearer {os.environ[self.api_key_env]}"

        import requests

        with self._session_lock:  # threads share a client
            if self._session is None:
                self._session = requests.Session()
            session = self._session
        url = f"{self.base_url}/chat/completions"
        last_error: Optional[ChatError] = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(max(self.backoff_s * 2 ** (attempt - 1), retry_after))
            retry_after = 0.0  # set from this attempt's 429 or 503, read before the next
            try:
                with self._gate:
                    resp = session.post(url, json=body, headers=headers, timeout=self.timeout_s)
            except requests.RequestException as exc:
                last_error = ChatServerError(f"network error: {exc}")
                trace.append({"attempt": attempt, "source": "network", "error": str(exc)})
                continue
            if resp.status_code == 200:
                try:  # a body that is not a chat completion is a server fault: retried, never cached
                    payload = resp.json()
                    reply = payload["choices"][0]["message"]["content"]
                except (ValueError, LookupError, TypeError):
                    reply = None
                if isinstance(reply, str):
                    self._cache_write(key, body, payload)
                    trace.append({"attempt": attempt, "source": "network", "status": 200, "key": key})
                    return reply
                last_error = ChatServerError(f"HTTP 200 without a chat completion: {resp.text[:200]}")
            else:
                last_error = _error_for_status(resp.status_code, resp.text)
                if resp.status_code in (429, 503):
                    retry_after = _retry_after_s(resp.headers.get("Retry-After"), self.timeout_s)
            trace.append({"attempt": attempt, "source": "network", "status": resp.status_code})
            if isinstance(last_error, (ChatAuthError, ChatRequestError)):
                raise last_error  # retrying cannot fix these
        raise last_error


class ChatSolver:
    """Adapter exposing a :class:`ChatClient` through the solver protocol."""

    def __init__(self, id: str, client: ChatClient):
        self.id = id
        self.client = client

    def solve(self, task_id: str, prompt: str, seed: int) -> str:
        try:
            return self.client.complete(prompt, seed)
        except ChatError as exc:
            raise SolverError(str(exc)) from exc
