"""Chat-completions endpoint for the ablation workload.

Speaks HTTP/1.1 with keep-alive, so a client that reuses connections can
show it. Every reply is a pure function of the request body, whatever
the thread schedule. The actor (model STUB["actor_model"]) answers with
the task's gold SQL, a wrong but executable variant, or a syntax-error
variant; the critic answers True or False at the configured false-accept
rate q and false-reject rate s. A hash-selected share of first attempts
gets HTTP 503 so the client's retry path runs. Counters record the chat
requests served and the connections that carried at least one of them;
GET /stats returns them.

The draws hash the request's place in the run, not its text: the task's
position in the tasks file and, for the actor, the number of earlier
drafts in the conversation, or, for the critic, which variant of the gold
the candidate is. Every seed then gets the same pattern of replies, and a
change to prompt wording changes no reply, so neither moves throughput
through the number of calls.
"""

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from gen import actor_raw, broken_sql, wrong_sql


def _unit(key: bytes, salt: str) -> float:
    """A uniform draw in [0, 1) derived from the request key."""
    digest = hashlib.sha256(key + salt.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class ChatStub:
    def __init__(self, answers: list[tuple[str, str]], settings: dict):
        # question -> (task position, gold SQL)
        self.answers = {q: (i, gold) for i, (q, gold) in enumerate(answers)}
        self.settings = settings
        self.requests = 0
        self.connections = 0
        self.unavailable = 0
        self._awaiting_retry: set[bytes] = set()
        self._lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- reply logic ---------------------------------------------------------

    def identify(self, body: dict) -> tuple[bytes, str | None]:
        """(hash key, gold SQL) of one chat request; gold is None if unknown."""
        messages = body.get("messages") or [{}]
        text = str(messages[-1].get("content", ""))
        if body.get("model") == self.settings["critic_model"]:
            head, _, candidate = text.rpartition(" SQL: ")
            task, gold = self.answers.get(head.rpartition("Question: ")[2], (None, None))
            if gold is None:
                return b"", None
            variants = [gold, broken_sql(gold), *(wrong_sql(gold, k) for k in range(6))]
            variant = variants.index(candidate) if candidate in variants else candidate
            identity = ["critic", task, variant]
        else:
            task, gold = self.answers.get(text.rpartition(": ")[2], (None, None))
            drafts = sum(m.get("role") == "assistant" for m in messages)
            identity = ["actor", task, drafts]
        return hashlib.sha256(json.dumps(identity).encode()).digest(), gold

    def reply(self, body: dict) -> tuple[int, str]:
        """(status, content) for one chat request; updates the retry set."""
        key, gold = self.identify(body)
        if gold is None:
            return 400, ""
        with self._lock:
            if key in self._awaiting_retry:
                self._awaiting_retry.discard(key)
            elif _unit(key, "unavailable") < self.settings["retry_share"]:
                self._awaiting_retry.add(key)
                self.unavailable += 1
                return 503, ""
        if body.get("model") == self.settings["critic_model"]:
            candidate = str(body["messages"][-1]["content"]).rpartition(" SQL: ")[2]
            draw = _unit(key, "verdict")
            if candidate == gold:
                accepted = draw >= self.settings["s"]
            else:
                accepted = draw < self.settings["q"]
            return 200, "True" if accepted else "False"
        draw = _unit(key, "actor")
        if draw < self.settings["p_gold"]:
            sql = gold
        elif draw < self.settings["p_gold"] + self.settings["p_wrong"]:
            sql = wrong_sql(gold, int(_unit(key, "variant") * 6))
        else:
            sql = broken_sql(gold)
        return 200, actor_raw(sql, _unit(key, "fence") < 0.5)

    # -- server --------------------------------------------------------------

    @property
    def base_url(self) -> str:
        if self._server is None:
            raise RuntimeError("stub not started")
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def stats(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "unavailable": self.unavailable,
            }

    def start(self) -> "ChatStub":
        stub = self
        delay = self.settings["delay_s"]

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = 10  # an idle keep-alive connection is dropped after this

            def setup(self):
                super().setup()
                self.counted = False

            def _send(self, status: int, payload: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_POST(self):
                raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with stub._lock:
                    stub.requests += 1
                    if not self.counted:
                        stub.connections += 1
                        self.counted = True
                try:
                    body = json.loads(raw)
                except ValueError:
                    body = {}
                status, content = stub.reply(body)
                time.sleep(delay)
                payload = b""
                if status == 200:
                    payload = json.dumps(
                        {"choices": [{"message": {"role": "assistant", "content": content}}]}
                    ).encode()
                self._send(status, payload)

            def do_GET(self):
                self._send(200, json.dumps(stub.stats()).encode())

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = False  # server_close() joins the handlers
        self._thread = threading.Thread(target=self._server.serve_forever)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join()
            self._server = None
