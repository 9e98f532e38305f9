"""In-process HTTP stub serving the chat-completion wire shape for tests."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubLLMServer:
    """Scriptable chat-completion endpoint bound to an ephemeral local port.

    `handler` receives the parsed request body and returns either the
    reply content (served as a well-formed completion) or a
    (status_code, raw_body) pair for fault injection. Every request is
    recorded for assertions.
    """

    def __init__(self, handler=None):
        self.handler = handler or (lambda body: "ok")
        self.requests: list[dict] = []
        self._lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        assert self._server is not None, "server not started"
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "StubLLMServer":
        stub = self

        class Handler(BaseHTTPRequestHandler):
            # headers and body go out in two sends; a keep-alive client would
            # otherwise wait for its delayed ACK before the body
            disable_nagle_algorithm = True

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length) if length else b"{}"
                try:
                    body = json.loads(raw)
                except ValueError:
                    body = {}
                with stub._lock:
                    stub.requests.append(
                        {
                            "path": self.path,
                            "body": body,
                            "authorization": self.headers.get("Authorization"),
                            "proxy_authorization": self.headers.get("Proxy-Authorization"),
                        }
                    )
                result = stub.handler(body)
                if isinstance(result, str):
                    payload = json.dumps(
                        {"choices": [{"message": {"content": result}}]}
                    ).encode()
                    status = 200
                else:
                    status, text = result
                    payload = text.encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):  # keep test output clean
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A short poll interval: shutdown() in stop() waits for one poll.
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(0.01,), daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
