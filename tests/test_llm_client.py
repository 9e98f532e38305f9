"""Offline tests for the chat-completion client against a local stub."""

import socketserver
import threading
import time

import pytest

from acsql.llm_client import (
    AuthenticationError,
    ChatMessage,
    EndpointConfig,
    ResponseParseError,
    TransportError,
    complete,
)
from stub_llm import StubLLMServer

FAST_BACKOFF = (0.01,)


@pytest.fixture
def stub():
    server = StubLLMServer().start()
    yield server
    server.stop()


def _clear_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@pytest.fixture
def proxy(monkeypatch):
    """A second stub, set as HTTP_PROXY; the proxy environment is otherwise empty."""
    _clear_proxy_env(monkeypatch)
    server = StubLLMServer().start()
    monkeypatch.setenv("HTTP_PROXY", server.base_url)
    yield server
    server.stop()


def _config(stub, **overrides):
    defaults = dict(
        base_url=stub.base_url,
        model="stub-model",
        max_retries=3,
        retry_backoff=FAST_BACKOFF,
        timeout=5.0,
    )
    defaults.update(overrides)
    return EndpointConfig(**defaults)


def test_request_wire_shape(stub):
    stub.handler = lambda body: "True"
    config = _config(stub, temperature=0.7, max_tokens=128)
    out = complete(config, [ChatMessage("user", "hello")])
    assert out == "True"
    assert len(stub.requests) == 1
    body = stub.requests[0]["body"]
    assert set(body) == {"model", "messages", "temperature", "max_tokens"}
    assert body["model"] == "stub-model"
    assert body["messages"] == [{"role": "user", "content": "hello"}]
    assert body["temperature"] == 0.7
    assert body["max_tokens"] == 128
    assert stub.requests[0]["path"] == "/chat/completions"


def test_retries_transient_then_succeeds(stub):
    state = {"n": 0}

    def handler(body):
        state["n"] += 1
        if state["n"] <= 2:
            return (429, "slow down")
        return "eventually"

    stub.handler = handler
    out = complete(_config(stub), [ChatMessage("user", "x")])
    assert out == "eventually"
    assert len(stub.requests) == 3


def test_transport_error_after_exhaustion(stub):
    stub.handler = lambda body: (503, "down")
    with pytest.raises(TransportError):
        complete(_config(stub, max_retries=2), [ChatMessage("user", "x")])
    assert len(stub.requests) == 3  # 1 + max_retries


def test_timeout_is_retried_then_raises(stub):
    stub.handler = lambda body: time.sleep(1.0) or "late"
    with pytest.raises(TransportError):
        complete(_config(stub, max_retries=1, timeout=0.3), [ChatMessage("user", "x")])
    assert len(stub.requests) == 2  # 1 + max_retries


def test_other_client_error_is_terminal_and_names_the_body(stub):
    stub.handler = lambda body: (400, "context length exceeded")
    with pytest.raises(TransportError, match="context length exceeded") as exc_info:
        complete(_config(stub), [ChatMessage("user", "x")])
    assert "HTTP 400" in str(exc_info.value)
    assert len(stub.requests) == 1


def test_http_proxy_from_environment(proxy):
    # A loopback target with nothing listening: a client that ignored the
    # proxy would fail locally instead of looking a name up.
    proxy.handler = lambda body: "via proxy"
    config = EndpointConfig(
        base_url="http://127.0.0.2:9/v1", model="m", max_retries=0, timeout=5.0
    )
    assert complete(config, [ChatMessage("user", "x")]) == "via proxy"
    assert [r["path"] for r in proxy.requests] == ["http://127.0.0.2:9/v1/chat/completions"]


class _TunnelRecorder(socketserver.StreamRequestHandler):
    """Answers CONNECT with 200, records the first tunnelled byte, then hangs up."""

    def handle(self):
        request_line = self.rfile.readline().decode("latin-1").split()
        while self.rfile.readline() not in (b"\r\n", b"\n", b""):
            pass
        self.wfile.write(b"HTTP/1.1 200 Connection established\r\n\r\n")
        self.server.attempts.append((request_line[:2], self.rfile.read(1)))


@pytest.fixture
def connect_proxy(monkeypatch):
    """A CONNECT-only proxy, set as HTTPS_PROXY; records one entry per tunnel."""
    _clear_proxy_env(monkeypatch)
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _TunnelRecorder)
    server.daemon_threads = True
    server.attempts = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    monkeypatch.setenv("HTTPS_PROXY", f"http://{host}:{port}")
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


def test_https_retries_stay_tunnelled(connect_proxy):
    # Every attempt, retries included, must CONNECT and then start TLS
    # (a ClientHello record opens with byte 0x16), never send the request
    # in clear text through the tunnel.
    config = EndpointConfig(
        base_url="https://127.0.0.2:9/v1",
        model="m",
        max_retries=2,
        retry_backoff=FAST_BACKOFF,
        timeout=5.0,
    )
    with pytest.raises(TransportError):
        complete(config, [ChatMessage("user", "x")])
    assert connect_proxy.attempts == [(["CONNECT", "127.0.0.2:9"], b"\x16")] * 3


def test_no_proxy_bypasses_the_proxy(stub, proxy, monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    assert complete(_config(stub), [ChatMessage("user", "x")]) == "ok"
    assert len(stub.requests) == 1
    assert proxy.requests == []


def test_auth_failure_is_terminal(stub):
    stub.handler = lambda body: (401, "no")
    with pytest.raises(AuthenticationError):
        complete(_config(stub), [ChatMessage("user", "x")])
    assert len(stub.requests) == 1


def test_malformed_response_carries_body(stub):
    stub.handler = lambda body: (200, '{"unexpected": 1}')
    with pytest.raises(ResponseParseError) as exc_info:
        complete(_config(stub), [ChatMessage("user", "x")])
    assert exc_info.value.body == '{"unexpected": 1}'


def test_api_key_read_from_env_at_call_time(stub, monkeypatch):
    stub.handler = lambda body: "ok"
    config = _config(stub, api_key_env="STUB_LLM_KEY")
    monkeypatch.delenv("STUB_LLM_KEY", raising=False)
    complete(config, [ChatMessage("user", "x")])
    assert stub.requests[0]["authorization"] is None
    monkeypatch.setenv("STUB_LLM_KEY", "sk-test-123")
    complete(config, [ChatMessage("user", "x")])
    assert stub.requests[1]["authorization"] == "Bearer sk-test-123"


def test_auth_header_never_logged(stub, monkeypatch, caplog):
    stub.handler = lambda body: "ok"
    monkeypatch.setenv("LLM_API_KEY", "sk-super-secret")
    with caplog.at_level("DEBUG"):
        complete(_config(stub), [ChatMessage("user", "x")])
        stub.handler = lambda body: (500, "x")
        with pytest.raises(TransportError):
            complete(_config(stub, max_retries=1), [ChatMessage("user", "x")])
    assert "sk-super-secret" not in caplog.text


def test_message_validation(stub):
    with pytest.raises(ValueError):
        complete(_config(stub), [])
    with pytest.raises(ValueError):
        complete(_config(stub), [ChatMessage("assistant", "hi")])
    for role in ("tool", "system"):  # nothing sends a system turn
        with pytest.raises(ValueError):
            ChatMessage(role, "x")


def test_config_validation():
    with pytest.raises(ValueError):
        EndpointConfig(base_url="", model="m")
    with pytest.raises(ValueError):
        EndpointConfig(base_url="http://x", model="m", temperature=-1)
    with pytest.raises(ValueError):
        EndpointConfig(base_url="http://x", model="m", max_tokens=0)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(temperature=float("nan")),
        dict(temperature=float("inf")),
        dict(base_url="localhost:8000/v1"),
        dict(base_url="file:///etc/v1"),
        dict(base_url="ftp://example.org/v1"),
    ],
)
def test_config_refuses_what_the_client_cannot_send(overrides):
    with pytest.raises(ValueError):
        EndpointConfig(**{"base_url": "http://x", "model": "m", **overrides})
