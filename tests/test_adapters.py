"""Scripted solvers and the HTTP chat client."""

import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from scipy import stats

from quorum.adapters import (
    ChatAuthError,
    ChatClient,
    ChatServerError,
    ChatSolver,
    ScriptedSolver,
    SolverError,
    TransformSolver,
    sample,
)
from quorum.core import Task, normalize_answer
from quorum.errors import ConfigurationError


def _task(task_id="t", kind="choice"):
    return Task(id=task_id, category="test", prompt="pick one", answer_kind=kind)


class TestScriptedSolver:
    def test_same_seed_same_answer(self):
        solver = ScriptedSolver("s", {"t": [("A", 0.5), ("B", 0.5)]}, rng_seed=1)
        a = [solver.solve("t", "p", 1) for _ in range(5)]
        assert len(set(a)) == 1
        assert solver.solve("t", "p", 1) == ScriptedSolver(
            "s", {"t": [("A", 0.5), ("B", 0.5)]}, rng_seed=1
        ).solve("t", "p", 1)

    def test_certain_answer(self):
        solver = ScriptedSolver("s", {"*": [("A", 1.0)]})
        assert all(solver.solve("x", "p", seed) == "A" for seed in range(50))

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            ScriptedSolver("s", {"t": [("A", 0.5), ("B", 0.4)]})

    def test_empirical_rate_matches_table(self):
        solver = ScriptedSolver("s", {"t": [("correct", 0.3), ("wrong", 0.7)]}, rng_seed=7)
        hits = sum(solver.solve("t", "p", seed) == "correct" for seed in range(10_000))
        # Binomial oracle: 0.3 +/- 0.02 at n=10,000 (> 4 sigma).
        assert abs(hits / 10_000 - 0.3) < 0.02

    def test_distribution_chi_square(self):
        table = [("A", 0.5), ("B", 0.3), ("C", 0.2)]
        solver = ScriptedSolver("s", {"t": table}, rng_seed=3)
        n = 10_000
        counts = {"A": 0, "B": 0, "C": 0}
        for seed in range(n):
            counts[solver.solve("t", "p", seed)] += 1
        observed = [counts[a] for a, _ in table]
        expected = [p * n for _, p in table]
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.01

    def test_prompt_trigger_overrides_table(self):
        solver = ScriptedSolver(
            "s",
            {"t": [("B", 1.0)]},
            prompt_triggers={"principle": {"t": [("A", 1.0)]}},
        )
        assert solver.solve("t", "plain", 0) == "B"
        assert solver.solve("t", "use the principle of parity", 0) == "A"

    def test_error_entries_raise(self):
        solver = ScriptedSolver("s", {"t": [("!error:down", 1.0)]})
        with pytest.raises(SolverError, match="down"):
            solver.solve("t", "p", 0)

    def test_two_stage_tables(self):
        solver = ScriptedSolver(
            "s",
            {"t": [("A", 1.0)]},
            two_stage={"t": [("P1", 0.5, [("A", 1.0)]), ("P2", 0.5, [("B", 1.0)])]},
        )
        prefix = solver.solve_prefix("t", "p", 0)
        assert prefix in ("P1", "P2")
        completion = solver.solve_completion("t", "p", prefix, 0)
        assert completion == ("A" if prefix == "P1" else "B")

    def test_sample_wraps_errors_as_candidates(self):
        solver = ScriptedSolver("s", {"other": [("A", 1.0)]})
        cand = sample(solver, _task("t"), 0)
        assert cand.is_error and "no scripted answers" in cand.error

    def test_sample_normalizes(self):
        solver = ScriptedSolver("s", {"t": [(" a ", 1.0)]})
        cand = sample(solver, _task("t"), 0)
        assert cand.answer == normalize_answer("A", "choice")
        assert cand.elapsed_ms == 0  # deterministic timing for scripted solvers

    def test_transform_solver(self):
        rot13 = TransformSolver("rot", lambda p, rng: p.translate(
            str.maketrans(
                "abcdefghijklmnopqrstuvwxyz",
                "nopqrstuvwxyzabcdefghijklm",
            )
        ))
        assert rot13.solve("t", "uryyb", 0) == "hello"


# 200 replies whose body is not a chat completion
MALFORMED_200 = {"not-json": b"<html>busy</html>", "no-content": json.dumps({"choices": []}).encode()}


class _MockChat(BaseHTTPRequestHandler):
    """Minimal chat-completions endpoint with a scriptable status queue
    (an HTTP status, a (status, Retry-After value) pair, or a key of
    MALFORMED_200)."""

    statuses: list = []
    requests_seen: list[dict] = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests_seen.append(body)
        status = type(self).statuses.pop(0) if type(self).statuses else 200
        status, retry_after = status if isinstance(status, tuple) else (status, None)
        if status in MALFORMED_200:
            status, blob = 200, MALFORMED_200[status]
        elif status != 200:
            self.send_response(status)
            if retry_after is not None:
                self.send_header("Retry-After", retry_after)
            self.end_headers()
            self.wfile.write(b"nope")
            return
        else:
            blob = json.dumps({"choices": [{"message": {
                "role": "assistant", "content": f"echo: {body['messages'][0]['content']}"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args):
        pass


@pytest.fixture()
def mock_server():
    _MockChat.statuses = []
    _MockChat.requests_seen = []
    server = HTTPServer(("127.0.0.1", 0), _MockChat)
    # a short poll: shutdown() waits up to one poll interval for the loop to notice
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1", _MockChat
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)


def _client(base_url, tmp_path, **kw):
    defaults = dict(model="mock-model", cache_dir=tmp_path / "cache", api_key_env=None,
                    backoff_s=0.01, timeout_s=5.0)
    defaults.update(kw)
    return ChatClient(base_url, **defaults)


def _cache_key_whole_request(client, prompt, seed):
    # ChatClient.cache_key as it once encoded the whole request on each call;
    # every cache directory on disk is keyed by this digest.
    params = {"temperature": client.temperature}
    if client.max_tokens is not None:
        params["max_tokens"] = client.max_tokens
    blob = json.dumps({"model": client.model, "prompt": prompt, "params": params, "seed": seed}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_read_text_mode(path):
    # ChatClient._cache_read as it once read an entry through a UTF-8 text file.
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        return entry["response"]["choices"][0]["message"]["content"]
    except FileNotFoundError:
        return None
    except (ValueError, RecursionError, KeyError, IndexError, TypeError):
        return None


KEY_PROMPTS = ["", "x" * 10_000, 'say "hi" \\ "there\\"', "\x00\x01\t\n\r\x1f\x7f", "héllo → 世界",
               "😀 𝔘 \U0010ffff", "\ud800 lone \udfff"]
ENTRY = {"request": {}, "response": {"choices": [{"message": {"role": "assistant", "content": "héllo 😀"}}]}}
ENTRY_JSON = json.dumps(ENTRY, ensure_ascii=False)
CACHE_ENTRIES = {  # entry bytes -> the reply a read gives, None for a miss
    "utf-8": (ENTRY_JSON.encode(), "héllo 😀"),
    "ascii-escaped": (json.dumps(ENTRY).encode(), "héllo 😀"),
    "crlf-indented": (json.dumps(ENTRY, indent=2).replace("\n", "\r\n").encode(), "héllo 😀"),
    "utf-8-bom": (b"\xef\xbb\xbf" + ENTRY_JSON.encode(), None),
    "utf-16": (ENTRY_JSON.encode("utf-16"), None),
    "utf-16-le": (ENTRY_JSON.encode("utf-16-le"), None),
    "utf-32": (ENTRY_JSON.encode("utf-32"), None),
    "latin-1": (ENTRY_JSON.replace("😀", "").encode("latin-1"), None),
    "encoded-surrogate": (ENTRY_JSON.encode().replace("😀".encode(), b"\xed\xa0\x80"), None),
    "empty": (b"", None),
}


class TestChatClient:
    def test_cache_key_is_the_digest_of_the_whole_request(self, tmp_path):
        # One client whose settings change one at a time between calls: the
        # key follows each, even between equal numbers that encode apart.
        client = _client("http://unused", tmp_path)

        def check():
            for prompt in KEY_PROMPTS:
                for seed in [0, 1, -1, -(2**63), 2**64 - 1]:
                    assert client.cache_key(prompt, seed) == _cache_key_whole_request(client, prompt, seed), \
                        (client.model, client.max_tokens, client.temperature, prompt[:20], seed)

        for client.model in ["mock-model", 'quote"d \\ model', "modèle-ü"]:
            check()
            for client.max_tokens in [None, 256]:
                check()
                for client.temperature in [1.0, 1, 0.0, -0.0, 0.7]:
                    check()

    def test_cache_key_of_a_new_client_is_the_digest_of_the_whole_request(self, tmp_path):
        for kw in [{}, {"temperature": 0.25, "max_tokens": 64}, {"model": "modèle \\ \"q\""}]:
            client = _client("http://unused", tmp_path, **kw)
            assert client.cache_key("p", 7) == _cache_key_whole_request(client, "p", 7)

    @pytest.mark.parametrize("name", sorted(CACHE_ENTRIES))
    def test_cache_read_accepts_and_rejects_as_the_text_mode_read(self, tmp_path, name):
        blob, reply = CACHE_ENTRIES[name]
        client = _client("http://unused", tmp_path)
        key = client.cache_key("p", 0)
        path = tmp_path / "cache" / f"{key}.json"
        path.write_bytes(blob)
        assert client._cache_read(key) == _cache_read_text_mode(path) == reply

    def test_entry_written_by_cache_write_is_a_hit(self, tmp_path):
        client = _client("http://unused", tmp_path)
        key = client.cache_key("p", 3)
        assert client._cache_read(key) is None
        client._cache_write(key, {"model": client.model}, ENTRY["response"])
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [f"{key}.json"]
        assert client._cache_read(key) == "héllo 😀"
        assert client.complete("p", seed=3) == "héllo 😀"  # no server: a hit opens no connection
        assert client.last_trace == [{"attempt": 0, "source": "cache", "key": key}]

    def test_cache_hit_skips_network(self, mock_server, tmp_path):
        base_url, handler = mock_server
        client = _client(base_url, tmp_path)
        first = client.complete("hello", seed=1)
        assert first == "echo: hello"
        assert len(handler.requests_seen) == 1
        second = client.complete("hello", seed=1)
        assert second == first
        assert len(handler.requests_seen) == 1  # no new network call
        assert client.last_trace[0]["source"] == "cache"

    def test_cache_key_sensitivity(self, tmp_path):
        client = _client("http://unused", tmp_path)
        base = client.cache_key("p", 1)
        assert client.cache_key("p", 2) != base
        assert client.cache_key("q", 1) != base
        client.model = "other"
        assert client.cache_key("p", 1) != base
        client.model = "mock-model"
        client.temperature = 0.5
        assert client.cache_key("p", 1) != base

    def test_corrupt_cache_treated_as_miss(self, mock_server, tmp_path):
        base_url, handler = mock_server
        client = _client(base_url, tmp_path)
        client.complete("hello", seed=1)
        key = client.cache_key("hello", 1)
        # not JSON, not UTF-8, an integer too long to convert, nested too deep
        for corrupt in (b"{not json", b'{"response": "\xff"}', b"1" + b"0" * 5000, b"[" * 100_000):
            (tmp_path / "cache" / f"{key}.json").write_bytes(corrupt)
            assert client.complete("hello", seed=1) == "echo: hello"
        assert len(handler.requests_seen) == 5

    def test_missing_secret_before_network(self, tmp_path, monkeypatch):
        monkeypatch.delenv("TEST_SECRET", raising=False)
        client = _client("http://127.0.0.1:1", tmp_path, api_key_env="TEST_SECRET")
        with pytest.raises(ConfigurationError, match="TEST_SECRET"):
            client.complete("hello", seed=0)

    def test_rate_limit_then_success_records_retry(self, mock_server, tmp_path):
        base_url, handler = mock_server
        handler.statuses = [429]
        client = _client(base_url, tmp_path)
        assert client.complete("hi", seed=0) == "echo: hi"
        statuses = [t.get("status") for t in client.last_trace]
        assert statuses == [429, 200]  # exactly one retry recorded

    @pytest.mark.parametrize("status,retry_after,wait", [
        (429, "2", 2.0),
        (503, "2", 2.0),
        (429, "600", 5.0),  # capped at timeout_s
        (503, "0.001", 0.01),  # the backoff is longer
        (429, "Wed, 21 Oct 2026 07:28:00 GMT", 0.01),  # only seconds are understood
        (500, "2", 0.01),  # honoured on 429 and 503 only
    ], ids=["429", "503", "capped", "backoff-longer", "http-date", "500"])
    def test_retry_waits_for_retry_after(self, mock_server, tmp_path, monkeypatch, status, retry_after, wait):
        base_url, handler = mock_server
        handler.statuses = [(status, retry_after)]
        waits = []
        monkeypatch.setattr("time.sleep", waits.append)
        client = _client(base_url, tmp_path)
        assert client.complete("hi", seed=0) == "echo: hi"
        assert waits == [wait]

    def test_auth_error_not_retried(self, mock_server, tmp_path):
        base_url, handler = mock_server
        handler.statuses = [401, 200]
        client = _client(base_url, tmp_path)
        with pytest.raises(ChatAuthError):
            client.complete("hi", seed=0)
        assert len(handler.requests_seen) == 1

    def test_malformed_200_is_retried_and_never_cached(self, mock_server, tmp_path):
        base_url, handler = mock_server
        handler.statuses = ["not-json", "no-content"]
        client = _client(base_url, tmp_path)
        assert client.complete("hi", seed=0) == "echo: hi"
        assert [t.get("status") for t in client.last_trace] == [200, 200, 200]
        [entry] = (tmp_path / "cache").glob("*.json")
        assert json.loads(entry.read_text())["response"]["choices"][0]["message"]["content"] == "echo: hi"

    @pytest.mark.parametrize("body", sorted(MALFORMED_200))
    def test_malformed_200_on_every_attempt_is_a_solver_error(self, mock_server, tmp_path, body):
        base_url, handler = mock_server
        handler.statuses = [body, body]
        client = _client(base_url, tmp_path, max_retries=1)
        with pytest.raises(ChatServerError, match="HTTP 200 without a chat completion"):
            client.complete("hi", seed=0)
        assert len(handler.requests_seen) == 2
        assert list((tmp_path / "cache").glob("*.json")) == []
        handler.statuses = [body, body]
        with pytest.raises(SolverError):
            ChatSolver("remote", client).solve("t", "hi", 0)

    def test_chat_solver_maps_errors(self, tmp_path):
        client = _client("http://127.0.0.1:1", tmp_path, max_retries=0)
        solver = ChatSolver("remote", client)
        with pytest.raises(SolverError):
            solver.solve("t", "p", 0)

    def test_many_threads_share_one_client(self, mock_server, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        base_url, handler = mock_server
        client = _client(base_url, tmp_path, max_in_flight=4)
        prompts = [f"q{i % 8}" for i in range(64)]
        with ThreadPoolExecutor(max_workers=16) as pool:
            replies = list(pool.map(lambda p: client.complete(p, seed=0), prompts))
        assert replies == [f"echo: {p}" for p in prompts]
        # every distinct (prompt, seed) hit the network at least once and
        # the cache directory holds exactly the eight distinct entries
        assert len(list((tmp_path / "cache").glob("*.json"))) == 8
