"""Offline tests for the chat-completion client against a local stub."""

import http.client
import socketserver
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from acsql.llm_client import (
    AuthenticationError,
    ChatMessage,
    EndpointConfig,
    ResponseParseError,
    TransportError,
    _proxy_for,
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


def test_retry_k_waits_the_kth_delay_then_the_last(stub, monkeypatch):
    waits = []
    monkeypatch.setattr(time, "sleep", waits.append)
    stub.handler = lambda body: (503, "down")
    with pytest.raises(TransportError):
        complete(_config(stub, max_retries=4, retry_backoff=(0.25, 0.5)), [ChatMessage("user", "x")])
    assert waits == [0.25, 0.5, 0.5, 0.5]


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


def test_http_proxy_credentials_go_on_the_request(proxy, monkeypatch):
    monkeypatch.setenv("HTTP_PROXY", proxy.base_url.replace("http://", "http://u:p@"))
    proxy.handler = lambda body: "via proxy"
    config = EndpointConfig(
        base_url="http://127.0.0.2:9/v1", model="m", max_retries=0, timeout=5.0
    )
    assert complete(config, [ChatMessage("user", "x")]) == "via proxy"
    assert [(r["path"], r["proxy_authorization"]) for r in proxy.requests] == [
        ("http://127.0.0.2:9/v1/chat/completions", "Basic dTpw")  # base64 of "u:p"
    ]


_PROXY_ENVIRONMENTS = {
    "none": {},
    "upper-case": {"HTTP_PROXY": "http://upper:1", "HTTPS_PROXY": "http://upper:2"},
    "lower-over-upper": {
        "http_proxy": "http://lower:1", "HTTP_PROXY": "http://upper:1",
        "https_proxy": "lower:2", "HTTPS_PROXY": "http://upper:2",
    },
    "empty-lower": {"http_proxy": "", "HTTP_PROXY": "http://upper:1", "HTTPS_PROXY": "http://upper:2"},
    "cgi": {"REQUEST_METHOD": "POST", "HTTP_PROXY": "http://client:1", "HTTPS_PROXY": "http://upper:2"},
    "cgi-lower": {"REQUEST_METHOD": "POST", "http_proxy": "http://lower:1"},
    "no-proxy-star": {"HTTP_PROXY": "http://upper:1", "NO_PROXY": "*"},
    "no-proxy-suffix": {
        "HTTP_PROXY": "http://upper:1", "HTTPS_PROXY": "http://upper:2", "NO_PROXY": ".example.com",
    },
    "no-proxy-host-port": {"HTTP_PROXY": "http://upper:1", "NO_PROXY": "other.org, api.example.com:8000"},
    "no-proxy-lower-over-upper": {"HTTP_PROXY": "http://upper:1", "no_proxy": "other.org", "NO_PROXY": "*"},
    "no-proxy-empty-lower": {"HTTP_PROXY": "http://upper:1", "no_proxy": "", "NO_PROXY": "*"},
}

_TARGETS = [
    ("http", "api.example.com:8000"),
    ("http", "api.example.com"),
    ("http", "example.com"),
    ("https", "api.example.com:443"),
    ("https", "other.org"),
    ("http", "127.0.0.1:9"),
]


@pytest.mark.parametrize("environment", _PROXY_ENVIRONMENTS.values(), ids=_PROXY_ENVIRONMENTS)
def test_proxy_choice_equals_urllib(environment, monkeypatch):
    _clear_proxy_env(monkeypatch)
    monkeypatch.delenv("REQUEST_METHOD", raising=False)
    for name, value in environment.items():
        monkeypatch.setenv(name, value)
    proxies = urllib.request.getproxies_environment()
    for scheme, netloc in _TARGETS:
        bypass = scheme not in proxies or urllib.request.proxy_bypass_environment(netloc)
        expected = None if bypass else proxies[scheme]
        assert _proxy_for(scheme, netloc) == expected, (scheme, netloc)


class _TunnelRecorder(socketserver.StreamRequestHandler):
    """Answers CONNECT with 200, records its headers and the first tunnelled byte, then hangs up."""

    def handle(self):
        request_line = self.rfile.readline().decode("latin-1").split()
        headers = {}
        while (line := self.rfile.readline()) not in (b"\r\n", b"\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        self.server.connect_headers.append(headers)
        self.wfile.write(b"HTTP/1.1 200 Connection established\r\n\r\n")
        self.server.attempts.append((request_line[:2], self.rfile.read(1)))


@pytest.fixture
def connect_proxy(monkeypatch):
    """A CONNECT-only proxy, set as HTTPS_PROXY; records one entry per tunnel."""
    _clear_proxy_env(monkeypatch)
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _TunnelRecorder)
    server.daemon_threads = True
    server.attempts = []
    server.connect_headers = []
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


def test_https_proxy_credentials_go_on_the_connect_only(connect_proxy, monkeypatch):
    host, port = connect_proxy.server_address[:2]
    monkeypatch.setenv("HTTPS_PROXY", f"http://u:p@{host}:{port}")
    tunnelled = []
    request = http.client.HTTPConnection.request

    def recording_request(self, method, url, body=None, headers={}, **kwargs):
        tunnelled.append({name.lower() for name in headers})
        return request(self, method, url, body, headers, **kwargs)

    monkeypatch.setattr(http.client.HTTPConnection, "request", recording_request)
    config = EndpointConfig(
        base_url="https://127.0.0.2:9/v1", model="m", max_retries=0, timeout=5.0
    )
    with pytest.raises(TransportError):
        complete(config, [ChatMessage("user", "x")])
    assert [h.get("proxy-authorization") for h in connect_proxy.connect_headers] == ["Basic dTpw"]
    assert len(tunnelled) == 1 and "proxy-authorization" not in tunnelled[0]


def test_no_proxy_bypasses_the_proxy(stub, proxy, monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    assert complete(_config(stub), [ChatMessage("user", "x")]) == "ok"
    assert len(stub.requests) == 1
    assert proxy.requests == []


class _Redirector(BaseHTTPRequestHandler):
    """Answers every request with a 302 to another path and records it."""

    def _redirect(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.requests.append((self.command, self.path))
        self.send_response(302)
        self.send_header("Location", "/elsewhere")
        self.send_header("Content-Length", "5")
        self.end_headers()
        self.wfile.write(b"moved")

    do_GET = do_POST = _redirect

    def log_message(self, *args):
        pass


def test_redirect_is_terminal():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Redirector)
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        config = EndpointConfig(
            base_url=f"http://{host}:{port}/v1", model="m", retry_backoff=FAST_BACKOFF, timeout=5.0
        )
        with pytest.raises(TransportError, match="HTTP 302"):
            complete(config, [ChatMessage("user", "x")])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert server.requests == [("POST", "/v1/chat/completions")]


def test_auth_failure_is_terminal(stub):
    stub.handler = lambda body: (401, "no")
    with pytest.raises(AuthenticationError):
        complete(_config(stub), [ChatMessage("user", "x")])
    assert len(stub.requests) == 1


def test_malformed_response_carries_body(stub):
    for reply, message in (
        ('{"unexpected": 1}', "malformed completion response"),
        ('{"choices": [{"message": {"content": 5}}]}', "completion content is not text"),
    ):
        stub.handler = lambda body: (200, reply)
        with pytest.raises(ResponseParseError, match=message) as exc_info:
            complete(_config(stub), [ChatMessage("user", "x")])
        assert exc_info.value.body == reply


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
    # An empty schedule would leave the delay between retries undefined.
    with pytest.raises(ValueError, match="retry_backoff"):
        EndpointConfig(base_url="http://x", model="m", retry_backoff=())
    EndpointConfig(base_url="http://x", model="m", max_retries=0, retry_backoff=())


@pytest.mark.parametrize(
    "overrides",
    [
        dict(temperature=float("nan")),
        dict(temperature=float("inf")),
        dict(base_url="localhost:8000/v1"),
        dict(base_url="file:///etc/v1"),
        dict(base_url="ftp://example.org/v1"),
        dict(retry_backoff=(0.5, -1)),  # time.sleep refuses a negative delay
    ],
)
def test_config_refuses_what_the_client_cannot_send(overrides):
    with pytest.raises(ValueError):
        EndpointConfig(**{"base_url": "http://x", "model": "m", **overrides})
