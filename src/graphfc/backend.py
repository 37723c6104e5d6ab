"""Text-generation backends: networked HTTP, scripted (for tests/replay),
and a caching wrapper, plus run-wide cost accounting and the per-claim view.

All backends expose ``model``, ``complete(GenRequest) -> GenResponse`` and
``close()``, and are safe to share across threads.  A ``BackendSuite`` holds
one backend and one generation policy per pipeline role.
``BackendSuite.counted`` gives each claim its own view of the suite, carrying
its gold documents and a fresh ``ClaimMemo``: every completion and retrieval
of the claim passes through that view, which answers repeats and counts the
requests, and their tokens, that reach a backend.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import logging
import random
import select
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

logger = logging.getLogger(__name__)

PURPOSE_GRAPH = "graph_construction"
PURPOSE_INFILL = "infilling"
PURPOSE_VERIFY = "verification"
PURPOSE_SELECT = "selection"
PURPOSES = (PURPOSE_GRAPH, PURPOSE_INFILL, PURPOSE_VERIFY, PURPOSE_SELECT)
# The memo kind of BM25 retrievals, beside the four purposes.
RETRIEVAL = "retrieval"


class CacheFileError(ValueError):
    """Raised for a response-cache file line that is JSON but not an entry."""


class BackendError(RuntimeError):
    """A generation call failed after exhausting retries."""

    def __init__(self, message: str, status: Optional[int] = None, body: str = ""):
        super().__init__(message)
        self.status = status
        self.body = body


@dataclass(frozen=True)
class GenPolicy:
    """Generation parameters.  A temperature of 0 decodes greedily, so its
    answers are reused by the per-claim memo and the response cache; any
    other temperature samples, and each such request reaches the backend."""

    max_new_tokens: int = 32
    temperature: float = 0.0
    top_p: float = 1.0

    def __post_init__(self) -> None:
        for name, holds, bound in (
            ("max_new_tokens", self.max_new_tokens >= 1, ">= 1"),
            ("temperature", self.temperature >= 0, ">= 0"),
            ("top_p", 0 < self.top_p <= 1, "in (0, 1]"),
        ):
            if not holds:
                raise ValueError(f"{name} must be {bound}, got {getattr(self, name)}")


@dataclass(frozen=True, kw_only=True)
class GenRequest(GenPolicy):
    prompt: str
    purpose: str = PURPOSE_VERIFY


@dataclass(frozen=True)
class GenResponse:
    text: str
    input_tokens: int = 0
    output_tokens: int = 0
    from_cache: bool = False


@dataclass
class PurposeTotals:
    requests: int = 0
    cache_hits: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    cost: float = 0.0


class CostLedger:
    """Thread-safe accumulator of request counts, token usage, and USD cost.

    ``prices`` maps a model identifier to ``(input_usd_per_1k_tokens,
    output_usd_per_1k_tokens)``.  Cache hits count as requests but contribute
    neither tokens nor cost.
    """

    def __init__(self, prices: Optional[Dict[str, tuple]] = None):
        self.prices = dict(prices or {})
        self._lock = threading.Lock()
        self._per_purpose: Dict[str, PurposeTotals] = {}

    def record(self, purpose: str, model: str, response: GenResponse) -> None:
        with self._lock:
            totals = self._per_purpose.setdefault(purpose, PurposeTotals())
            totals.requests += 1
            if response.from_cache:
                totals.cache_hits += 1
                return
            totals.input_tokens += response.input_tokens
            totals.output_tokens += response.output_tokens
            in_price, out_price = self.prices.get(model, (0.0, 0.0))
            totals.cost += (
                response.input_tokens / 1000.0 * in_price
                + response.output_tokens / 1000.0 * out_price
            )

    def per_purpose(self) -> Dict[str, PurposeTotals]:
        with self._lock:
            return {p: replace(t) for p, t in self._per_purpose.items()}

    def totals(self) -> PurposeTotals:
        rows = self.per_purpose().values()
        return PurposeTotals(
            *(sum(getattr(row, f.name) for row in rows) for f in fields(PurposeTotals))
        )


def approx_token_count(text: str) -> int:
    """Whitespace token count; used where the provider reports no usage."""
    return len(text.split())


def _read_completion(body: bytes) -> tuple:
    """(text, prompt tokens, completion tokens) of a 200 chat-completions body.

    Raises ValueError when the body is not JSON, lacks ``choices[0]`` or
    holds a completion text that is not a string; the caller retries such a
    response like a failed request.
    """
    payload = json.loads(body)  # JSONDecodeError and UnicodeDecodeError are ValueErrors
    try:
        choice = payload["choices"][0]
        text = choice.get("message", {}).get("content")
        if text is None:
            text = choice.get("text", "")
        if not isinstance(text, str):
            raise ValueError(f"completion text is not a string: {text!r:.100}")
        usage = payload.get("usage", {})
        return text, int(usage.get("prompt_tokens", 0)), int(usage.get("completion_tokens", 0))
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise ValueError(f"no usable choices[0] in response body ({exc!r})") from exc


def _retryable(status: int) -> bool:
    """Whether a non-200 status can succeed on a later attempt."""
    return status in (408, 429) or status >= 500


def _retry_after(status: int, headers: http.client.HTTPMessage, cap: float) -> Optional[float]:
    """The seconds a 429 or 503 response's ``Retry-After`` header asks to
    wait, capped at ``cap``; None for other statuses, no header, or its
    HTTP-date form."""
    value = (headers.get("Retry-After") or "").strip()
    if status in (429, 503) and value.isascii() and value.isdigit():
        return min(float(value), cap)
    return None


def split_http_url(url: str, name: str = "endpoint") -> urllib.parse.SplitResult:
    """The parts of ``url``; ValueError, naming it as ``name``, unless it is an
    http or https URL with a host and, if it gives one, a port from 1 to 65535."""
    try:
        parts = urllib.parse.urlsplit(url)
        valid = parts.scheme in ("http", "https") and bool(parts.hostname) and parts.port != 0
    except ValueError:  # a port that is not a number, or one out of range
        valid = False
    if not valid:
        raise ValueError(f"{name} must be an http or https URL with a host, got {url!r}")
    return parts


class HttpBackend:
    """Client for a chat/completions-style JSON endpoint.

    Sends ``{"model", "messages", "max_tokens", "temperature", "top_p"}`` and
    reads the first choice's message content plus the usage block.  Connection
    errors, malformed 200 bodies, 408, 429 and 5xx are retried with jittered
    exponential backoff up to ``max_attempts``; any other status, a redirect
    included, fails at once.  A 429 or 503 whose ``Retry-After`` header gives
    delta-seconds waits that long instead of the backoff, at most ``timeout``
    seconds.

    Each thread that calls ``complete`` keeps one keep-alive connection of
    its own, opened on its first request; ``close`` closes them all.  An
    https endpoint is verified against the system's trust store.
    ``http_proxy``, ``https_proxy`` and ``no_proxy`` are read from the
    environment when the backend is built.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str = "",
        timeout: float = 60.0,
        max_attempts: int = 3,
        retry_base_delay: float = 1.0,
        ledger: Optional[CostLedger] = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.retry_base_delay = retry_base_delay
        self.ledger = ledger
        self._lock = threading.Lock()
        self._connections: Dict[threading.Thread, http.client.HTTPConnection] = {}
        self._rng = random.Random()

        url = split_http_url(endpoint)
        https = url.scheme == "https"
        authority = url.netloc.rpartition("@")[2]  # host[:port], without credentials
        self._connection_class = http.client.HTTPSConnection if https else http.client.HTTPConnection
        self._address = (url.hostname, url.port or (443 if https else 80))
        self._target = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
        self._tunnel: Optional[tuple] = None
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(authority):
            proxy_url = split_http_url(
                proxy if "://" in proxy else "http://" + proxy, f"{url.scheme}_proxy"
            )
            proxy_headers = {}
            if proxy_url.username:
                unquote = urllib.parse.unquote
                credentials = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
                proxy_headers["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(credentials.encode()).decode()
                )
            if https:  # a CONNECT tunnel through the proxy, TLS inside it
                self._tunnel = (*self._address, proxy_headers)
            else:  # the proxy forwards a request whose target is the whole URL
                self._target = f"http://{authority}{self._target}"
                self._headers.update(proxy_headers)
            self._address = (proxy_url.hostname, proxy_url.port or 80)

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection.  Opening one closes those of the
        threads that have ended.  A connection that the server closed while
        it sat idle is closed here, so that the next request on it
        reconnects instead of failing."""
        thread = threading.current_thread()
        with self._lock:
            connection = self._connections.get(thread)
            if connection is None:
                for ended in [t for t in self._connections if not t.is_alive()]:
                    self._connections.pop(ended).close()
                connection = self._connection_class(*self._address, timeout=self.timeout)
                if self._tunnel is not None:
                    connection.set_tunnel(*self._tunnel)
                self._connections[thread] = connection
                return connection
        if connection.sock is not None and select.select([connection.sock], [], [], 0)[0]:
            # Nothing is due between requests: readable means the server
            # hung up, or sent bytes that no request asked for.
            connection.close()
        return connection

    def close(self) -> None:
        """Close every thread's connection, once no request is in flight.  A
        later request opens a new one."""
        with self._lock:
            connections, self._connections = list(self._connections.values()), {}
        for connection in connections:
            connection.close()

    def _payload(self, req: GenRequest) -> dict:
        return {
            "model": self.model,
            "messages": [{"role": "user", "content": req.prompt}],
            "max_tokens": req.max_new_tokens,
            "temperature": float(req.temperature),
            "top_p": req.top_p,
        }

    def complete(self, req: GenRequest) -> GenResponse:
        body = json.dumps(self._payload(req)).encode("utf-8")
        last_status: Optional[int] = None
        last_body = ""
        location = ""  # where a failing redirect pointed
        attempts = 0
        wait: Optional[float] = None  # what the last response's Retry-After asked for
        for attempt in range(self.max_attempts):
            if attempt:
                if wait is None:
                    delay = self.retry_base_delay * (2 ** (attempt - 1))
                    wait = delay * self._rng.uniform(0.5, 1.5)
                time.sleep(wait)
            wait = None
            attempts += 1
            connection = self._connection()
            try:
                connection.request("POST", self._target, body, self._headers)
                response = connection.getresponse()
                # Read to the end, so that the connection can carry the next request.
                status, headers, data = response.status, response.headers, response.read()
            except (OSError, http.client.HTTPException) as exc:
                connection.close()
                last_status, last_body = None, str(exc)
                logger.warning("backend request failed (attempt %d): %s", attempt + 1, exc)
                continue
            last_status, last_body = status, data.decode("utf-8", errors="replace")[:200]
            if status != 200:
                logger.warning("backend HTTP %d (attempt %d): %s", status, attempt + 1, last_body)
                if not _retryable(status):
                    location = headers.get("Location") or ""
                    break
                wait = _retry_after(status, headers, self.timeout)
                continue
            try:
                text, input_tokens, output_tokens = _read_completion(data)
            except ValueError as exc:
                logger.warning(
                    "backend malformed response (attempt %d): %s", attempt + 1, exc
                )
                continue
            result = GenResponse(text, input_tokens, output_tokens)
            if self.ledger is not None:
                self.ledger.record(req.purpose, self.model, result)
            return result
        raise BackendError(
            f"request failed after {attempts} attempt{'s' if attempts != 1 else ''}"
            + (f" (HTTP {last_status})" if last_status else "")
            + (f", Location: {location}" if location else ""),
            status=last_status,
            body=last_body,
        )


Matcher = Union[str, Callable[[str], bool]]
Response = Union[str, Callable[[str], str]]
# A registration as ScriptedBackend stores it: (predicate, answer) on the prompt.
Registration = Tuple[Callable[[str], bool], Callable[[str], str]]


class ScriptedBackend:
    """Deterministic backend answering from registered (matcher, response) pairs.

    A matcher is an exact prompt string or a predicate.  When several
    registrations match, repeated matching calls consume them in registration
    order, sticking at the last one.  An unmatched prompt raises BackendError
    naming the prompt's first 80 characters.
    """

    def __init__(self, model: str = "scripted", ledger: Optional[CostLedger] = None):
        self.model = model
        self.ledger = ledger
        self._registrations: List[Registration] = []
        self._lock = threading.Lock()
        self._seen: Dict[tuple, int] = {}
        self.calls: List[GenRequest] = []

    def register(self, matcher: Matcher, response: Response) -> "ScriptedBackend":
        if not callable(matcher):
            matcher = lambda p, m=matcher: p == m
        if not callable(response):
            response = lambda p, r=response: r
        self._registrations.append((matcher, response))
        return self

    def register_contains(self, *needles: str, response: Response) -> "ScriptedBackend":
        return self.register(lambda p, n=needles: all(x in p for x in n), response)

    @property
    def call_count(self) -> int:
        with self._lock:
            return len(self.calls)

    def complete(self, req: GenRequest) -> GenResponse:
        matched = [
            (i, answer)
            for i, (matches, answer) in enumerate(self._registrations)
            if matches(req.prompt)
        ]
        with self._lock:
            self.calls.append(req)
            if not matched:
                raise BackendError(
                    f"no scripted response for prompt: {req.prompt[:80]!r}"
                )
            key = tuple(i for i, _ in matched)
            turn = self._seen.get(key, 0)
            self._seen[key] = turn + 1
        text = matched[min(turn, len(matched) - 1)][1](req.prompt)
        result = GenResponse(text, approx_token_count(req.prompt), approx_token_count(text))
        if self.ledger is not None:
            self.ledger.record(req.purpose, self.model, result)
        return result

    def close(self) -> None:
        """Nothing to release."""


# Script matcher keys, each a test of the prompt against the key's value.
_SCRIPT_MATCHERS = {
    "equals": lambda p, v: p == v,
    "prefix": str.startswith,
    "suffix": str.endswith,
    "contains": lambda p, v: all(n in p for n in v),
}


def load_script(path: str) -> List[Registration]:
    """Load scripted (predicate, answer) registrations from a JSON file.

    The file holds a list of objects with a ``response`` string plus matcher
    keys: ``equals``, ``prefix``, ``suffix``, and/or ``contains`` (string or
    list of strings; every listed needle must appear).  All given matcher keys
    must hold for the registration to match.  Any other shape, invalid JSON
    included, raises ValueError naming the entry.
    """
    with open(path, "r", encoding="utf-8") as handle:
        entries = json.load(handle)
    if not isinstance(entries, list):
        raise ValueError("a script must be a JSON list of entries")
    registrations = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("response"), str):
            raise ValueError(f"entry {i}: not an object with a string 'response'")
        values = {key: entry[key] for key in _SCRIPT_MATCHERS if key in entry}
        if isinstance(values.get("contains"), str):
            values["contains"] = [values["contains"]]
        if not values:
            raise ValueError(f"entry {i}: script entry has no matcher key")
        for key, value in values.items():
            strings = value if key == "contains" and isinstance(value, list) else [value]
            if not all(isinstance(s, str) for s in strings):
                raise ValueError(f"entry {i}: {key!r} must hold strings, got {value!r}")
        tests = tuple((_SCRIPT_MATCHERS[key], value) for key, value in values.items())
        matcher = lambda p, ts=tests: all(test(p, v) for test, v in ts)
        registrations.append((matcher, lambda p, r=entry["response"]: r))
    return registrations


class ResponseCache:
    """Append-safe on-disk key/value store for GenResponse values.

    Entries are single JSON lines, so concurrent readers can follow a single
    writer.  A partial trailing line (in-flight write), even one cut inside a
    multi-byte character, is ignored on load, and the next entry starts on a
    new line.  A line that is JSON but not an object with string ``key`` and
    ``text`` and integer token counts raises CacheFileError naming the file
    and the line.  With ``path=None`` the cache is memory-only.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._lock = threading.Lock()
        self._entries: Dict[str, GenResponse] = {}
        self.hits = 0
        self.misses = 0
        self._unterminated = False  # the file's last line lacks its newline
        if path is not None:
            self._load(path)

    def _load(self, path: str) -> None:
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            return
        with handle:
            for lineno, line in enumerate(handle, start=1):
                self._unterminated = not line.endswith(b"\n")
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line.decode("utf-8"))
                except ValueError:  # a partial trailing write: not UTF-8 or not JSON
                    continue
                if not (
                    isinstance(row, dict)
                    and all(type(row.get(name)) is str for name in ("key", "text"))
                    and all(type(row.get(name)) is int for name in ("input_tokens", "output_tokens"))
                ):
                    raise CacheFileError(
                        f"{path}:{lineno}: not a cache entry (an object with string "
                        f"'key' and 'text' and integer 'input_tokens' and 'output_tokens')"
                    )
                self._entries[row["key"]] = GenResponse(
                    row["text"], row["input_tokens"], row["output_tokens"]
                )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[GenResponse]:
        with self._lock:
            found = self._entries.get(key)
            if found is None:
                self.misses += 1
            else:
                self.hits += 1
            return found

    def put(self, key: str, response: GenResponse) -> None:
        row = {
            "key": key,
            "text": response.text,
            "input_tokens": response.input_tokens,
            "output_tokens": response.output_tokens,
        }
        with self._lock:
            self._entries[key] = replace(response, from_cache=False)
            if self.path is not None:
                lead = "\n" if self._unterminated else ""
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(lead + json.dumps(row, ensure_ascii=False) + "\n")
                    handle.flush()
                self._unterminated = False


def cache_key(model: str, req: GenRequest) -> str:
    # The fourth slot held the decoding mode when that was a setting of its
    # own; only greedy requests are cached, so it keeps that mode's name and
    # cache files written then still hit.
    material = json.dumps(
        [model, req.prompt, req.max_new_tokens, "greedy", req.temperature, req.top_p],
        ensure_ascii=False,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class CachedBackend:
    """Caching wrapper around another backend.

    Requests at temperature 0 are answered from the store when possible;
    requests with a temperature above 0 bypass the cache entirely.  Hits are
    recorded in the ledger as requests with zero priced tokens.
    """

    def __init__(self, inner, store: ResponseCache, ledger: Optional[CostLedger] = None):
        self.inner = inner
        self.store = store
        self.ledger = ledger

    @property
    def model(self) -> str:
        return self.inner.model

    def complete(self, req: GenRequest) -> GenResponse:
        if req.temperature:  # sampling: nothing to reuse
            return self.inner.complete(req)
        key = cache_key(self.model, req)
        cached = self.store.get(key)
        if cached is not None:
            result = replace(cached, from_cache=True)
            if self.ledger is not None:
                self.ledger.record(req.purpose, self.model, result)
            return result
        result = self.inner.complete(req)
        self.store.put(key, result)
        return result

    def close(self) -> None:
        self.inner.close()


# Generation policy of each role when none is configured: the constructor
# emits a whole graph, the other roles a short answer.
DEFAULT_POLICIES = {
    PURPOSE_GRAPH: GenPolicy(max_new_tokens=1024),
    PURPOSE_INFILL: GenPolicy(),
    PURPOSE_VERIFY: GenPolicy(),
    PURPOSE_SELECT: GenPolicy(),
}


class ClaimMemo:
    """Results of work already done for one claim, answered again on repeat,
    and the claim's account of the requests that reached a backend.

    Keys are (kind, key): a purpose and a prompt for greedy completions,
    ``RETRIEVAL`` and (query, k) for retrievals.  ``hits`` counts the answers
    given from the memo, per kind; ``calls`` and the token totals count the
    responses backends returned, per purpose.  A memo serves one claim on one
    thread, so it takes no lock.
    """

    def __init__(self):
        self._results: Dict[tuple, object] = {}
        self.hits: Dict[str, int] = dict.fromkeys(PURPOSES + (RETRIEVAL,), 0)
        self.calls: Dict[str, int] = dict.fromkeys(PURPOSES, 0)
        self.input_tokens = 0
        self.output_tokens = 0

    def recall(self, kind: str, key, compute: Callable[[], object]):
        """The result stored for (kind, key), or ``compute()``'s, stored."""
        if (kind, key) in self._results:
            self.hits[kind] += 1
            return self._results[kind, key]
        result = self._results[kind, key] = compute()
        return result

    def sent(self, purpose: str, response: GenResponse) -> GenResponse:
        """Count a response that a backend returned for this claim."""
        self.calls[purpose] += 1
        self.input_tokens += response.input_tokens
        self.output_tokens += response.output_tokens
        return response


@dataclass
class BackendSuite:
    """One backend per pipeline role, in fields named after the purposes, and
    one generation policy per purpose.  The per-claim view that ``counted``
    builds also carries the claim's gold documents and its ``ClaimMemo``,
    through which it sends, memoizes and counts."""

    graph_construction: object
    infilling: object
    verification: object
    selection: object
    policies: Dict[str, GenPolicy] = field(default_factory=DEFAULT_POLICIES.copy)
    memo: Optional[ClaimMemo] = None  # this and ``gold`` are set only by ``counted``
    gold: tuple = ()

    @classmethod
    def single(cls, backend, **kwargs) -> "BackendSuite":
        """Use one backend instance for every role (common in tests)."""
        return cls(backend, backend, backend, backend, **kwargs)

    def request(self, purpose: str, prompt: str) -> GenRequest:
        # A GenRequest is its role's GenPolicy plus the prompt and purpose.
        return GenRequest(prompt=prompt, purpose=purpose, **vars(self.policies[purpose]))

    def backend_for(self, purpose: str):
        return getattr(self, purpose)

    def close(self) -> None:
        """Close the backend of every role."""
        for purpose in PURPOSES:
            self.backend_for(purpose).close()

    def recall_retrieval(self, fetch: Callable, index, query: str, k: int):
        """``fetch(index, query, k, gold)`` with this view's gold documents,
        answered from the memo, if this view carries one, when (query, k)
        repeats.  Callers pass their module's ``retrieve``, so a wrapper bound
        to that name sees every retrieval the memo does not answer."""
        if self.memo is None:
            return fetch(index, query, k, self.gold)
        return self.memo.recall(
            RETRIEVAL, (query, k), lambda: fetch(index, query, k, self.gold)
        )

    def complete(self, purpose: str, prompt: str) -> GenResponse:
        """Requests at temperature 0 repeated within a claim are answered from
        the memo; requests with a temperature above 0 always reach the
        backend.  The memo counts each response a backend returns."""
        request = self.request(purpose, prompt)
        backend, memo = self.backend_for(purpose), self.memo
        if memo is None:
            return backend.complete(request)

        def send() -> GenResponse:
            return memo.sent(purpose, backend.complete(request))

        if request.temperature:
            return send()
        return memo.recall(purpose, prompt, send)

    def counted(self, gold=()) -> "BackendSuite":
        """A view of this suite for one claim, with a fresh ClaimMemo that
        answers the claim's repeats and counts what reaches a backend, and
        the claim's ``gold`` documents, merged into each of its retrievals."""
        return replace(self, memo=ClaimMemo(), gold=tuple(gold))
