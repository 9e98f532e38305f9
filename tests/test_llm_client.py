"""Offline tests for the chat-completion client against a local stub."""

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


def _config(stub, **overrides):
    defaults = dict(
        base_url=stub.base_url,
        model_name="stub-model",
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
    config = _config(stub, api_key_env_var="STUB_LLM_KEY")
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
    with pytest.raises(ValueError):
        ChatMessage("tool", "x")


def test_config_validation():
    with pytest.raises(ValueError):
        EndpointConfig(base_url="", model_name="m")
    with pytest.raises(ValueError):
        EndpointConfig(base_url="http://x", model_name="m", temperature=-1)
    with pytest.raises(ValueError):
        EndpointConfig(base_url="http://x", model_name="m", max_tokens=0)
