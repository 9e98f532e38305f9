"""Minimal chat-completion client for actor and critic turns.

Speaks the OpenAI-compatible wire shape (POST {base_url}/chat/completions
with {model, messages, temperature, max_tokens}) because that is what
both commercial endpoints and local open-model servers expose. A
dialogue has only user and assistant turns and opens with a user turn.
EndpointConfig checks every field's type and range when it is built.
API keys are read from an environment variable at call time and never
logged or persisted.

The client is built on the standard library (`http.client`) and opens
one connection per attempt, closed when the reply has been read. A 3xx
reply is not followed. The proxy comes from http_proxy/https_proxy and
no_proxy, read by name at each call with urllib's rules: the lower-case
name first, then the upper-case one. Platform proxy settings outside the
environment are not read. HTTPS verifies against the system CA store (or
SSL_CERT_FILE).
"""

import base64
import http.client
import json
import logging
import os
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass

from .theory import check_int, check_number

logger = logging.getLogger(__name__)

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}


class TransportError(Exception):
    """Request could not be completed after all retries."""


class AuthenticationError(TransportError):
    """Endpoint rejected the credentials (401/403); never retried."""


class ResponseParseError(TransportError):
    """Endpoint replied but not in the expected shape; carries the raw body."""

    def __init__(self, message: str, body: str):
        super().__init__(message)
        self.body = body


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("user", "assistant"):
            raise ValueError(f"unknown role {self.role!r}")


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str
    api_key_env: str = "LLM_API_KEY"
    temperature: float = 0.0
    max_tokens: int = 512
    timeout: float = 60.0
    max_retries: int = 3
    retry_backoff: tuple[float, ...] = (0.5, 1.0, 2.0)

    def __post_init__(self) -> None:
        # Only HTTP is an endpoint: _post has a connection for http and https alone.
        if not (isinstance(self.base_url, str)
                and urllib.parse.urlsplit(self.base_url).scheme in ("http", "https")):
            raise ValueError(f"base_url must be an http(s) URL, got {self.base_url!r}")
        for name in ("model", "api_key_env"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        # The request body is strict JSON, which has no NaN or Infinity.
        check_number(self.temperature, "temperature")
        check_number(self.timeout, "timeout", positive=True)
        check_int(self.max_tokens, "max_tokens")
        check_int(self.max_retries, "max_retries", least=0)
        if not isinstance(self.retry_backoff, tuple):
            raise ValueError(f"retry_backoff must list numbers >= 0, got {self.retry_backoff!r}")
        for delay in self.retry_backoff:
            # time.sleep refuses a negative delay, which would end the whole batch.
            check_number(delay, "retry_backoff delay")
        if self.max_retries > 0 and not self.retry_backoff:
            raise ValueError(
                f"retry_backoff must list at least one delay when max_retries > 0, "
                f"got {self.retry_backoff!r}"
            )


def _proxy_variable(name: str) -> str | None:
    """The value of `<name>_proxy` as urllib reads it, or None for no proxy.

    The lower-case variable wins, and set but empty it means no proxy.
    """
    value = os.environ.get(f"{name}_proxy")
    # Under CGI, HTTP_PROXY can come from a client's "Proxy:" header.
    if value is None and not (name == "http" and "REQUEST_METHOD" in os.environ):
        value = os.environ.get(f"{name.upper()}_PROXY")
    return value or None


def _proxy_for(scheme: str, netloc: str) -> str | None:
    """The proxy URL for a request to `netloc`, or None to connect directly."""
    proxy = _proxy_variable(scheme)
    if proxy is None:
        return None
    no_proxy = _proxy_variable("no")
    if no_proxy and urllib.request.proxy_bypass_environment(netloc, {"no": no_proxy}):
        return None
    return proxy


_CONNECTION = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}


def _post(url: urllib.parse.SplitResult, proxy: str | None, timeout: float,
          data: bytes, headers: dict[str, str]) -> tuple[int, str]:
    """POST `data` to `url` over one new connection; return the status and body.

    Through a proxy, an http target is requested by its absolute URL, and an
    https target is tunnelled with CONNECT, TLS running to the target. The
    proxy's credentials go on the CONNECT in that case, never through the
    tunnel.
    """
    selector = urllib.parse.urlunsplit(("", "", url.path, url.query, ""))
    if proxy is None:
        conn = _CONNECTION[url.scheme](url.netloc, timeout=timeout)
    else:
        parts = urllib.parse.urlsplit(proxy if "://" in proxy else "//" + proxy)
        proxy_headers = {}
        if parts.username and parts.password:
            user_pass = ":".join(map(urllib.parse.unquote, (parts.username, parts.password)))
            proxy_headers["Proxy-Authorization"] = (
                "Basic " + base64.b64encode(user_pass.encode()).decode("ascii")
            )
        proxy_host = urllib.parse.unquote(parts.netloc.rpartition("@")[2])
        if url.scheme == "https":
            conn = http.client.HTTPSConnection(proxy_host, timeout=timeout)
            conn.set_tunnel(url.netloc, headers=proxy_headers)
        else:
            # A proxy given as host:port, with no scheme, speaks http.
            conn = _CONNECTION.get(parts.scheme, http.client.HTTPConnection)(
                proxy_host, timeout=timeout
            )
            selector = url.geturl()
            headers = {**headers, **proxy_headers}
    try:
        conn.request("POST", selector, data, {**headers, "Connection": "close"})
        resp = conn.getresponse()
        return resp.status, resp.read().decode("utf-8", errors="replace")
    finally:
        conn.close()


def _extract_content(body: str) -> str:
    try:
        content = json.loads(body)["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise ResponseParseError(f"malformed completion response: {exc}", body) from exc
    if not isinstance(content, str):
        raise ResponseParseError("completion content is not text", body)
    return content


def complete(config: EndpointConfig, messages: list[ChatMessage]) -> str:
    """Return the first choice's message content for one chat completion.

    Retries transient failures (HTTP 429/5xx, connection errors,
    timeouts) up to max_retries times following the backoff schedule;
    auth failures are terminal.
    """
    if not messages or messages[0].role != "user":
        raise ValueError("messages must open with a user turn")

    url = urllib.parse.urlsplit(config.base_url.rstrip("/") + "/chat/completions")
    payload = {
        "model": config.model,
        "messages": [{"role": m.role, "content": m.content} for m in messages],
        "temperature": config.temperature,
        "max_tokens": config.max_tokens,
    }
    data = json.dumps(payload, allow_nan=False).encode()
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(config.api_key_env)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"

    proxy = _proxy_for(url.scheme, url.netloc)

    last_error: Exception | None = None
    for attempt in range(config.max_retries + 1):
        if attempt > 0:
            time.sleep(config.retry_backoff[min(attempt, len(config.retry_backoff)) - 1])
        try:
            status, body = _post(url, proxy, config.timeout, data, headers)
        except (OSError, http.client.HTTPException) as exc:
            last_error = exc
            logger.debug("completion attempt %d failed: %s", attempt + 1, exc)
            continue
        if status in (401, 403):
            raise AuthenticationError(f"endpoint rejected credentials (HTTP {status})")
        if status in _RETRYABLE_STATUS:
            last_error = TransportError(f"HTTP {status}")
            logger.debug("completion attempt %d got retryable HTTP %d", attempt + 1, status)
            continue
        if status != 200:
            raise TransportError(f"HTTP {status}: {body[:200]}")
        return _extract_content(body)

    raise TransportError(
        f"completion failed after {config.max_retries + 1} attempts: {last_error}"
    )
