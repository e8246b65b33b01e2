"""The system under test: ``repro serve`` processes started from source.

Servers run from the checkout's ``src/`` tree, either plainly
(``python -m repro serve``) or through ``traced_serve.py``.  Every process
started here is stopped with SIGTERM (the server's graceful drain) and
waited for.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

STOP_TIMEOUT = 30.0


class Server:
    """One ``repro serve`` process listening on a free local port."""

    def __init__(self, root: str, workdir: str, tag: str, *, traced: bool,
                 extra_args: tuple = ()):
        self.trace_file = os.path.join(workdir, f"{tag}.trace.json") if traced else None
        self._stderr = open(os.path.join(workdir, f"{tag}.stderr"), "w+b")
        serve_args = ["--port", "0", *extra_args]
        if traced:
            command = [sys.executable, os.path.join(root, "perfbench", "traced_serve.py"),
                       self.trace_file, *serve_args]
        else:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr, env=env, cwd=root
        )
        self.address = None

    def wait_listening(self) -> tuple:
        """Block until the server announces its address."""
        for line in self.proc.stdout:
            line = line.strip()
            if line.startswith(b"{"):
                event = json.loads(line)
                if event.get("event") == "listening":
                    self.address = (event["host"], event["port"])
                    return self.address
        raise RuntimeError(f"server exited before listening: {self.stderr_tail()}")

    def peak_rss_mb(self) -> float:
        """Peak resident set size so far (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stderr_tail(self) -> str:
        self._stderr.seek(0)
        return self._stderr.read().decode(errors="replace")[-2000:]

    def stop(self) -> dict:
        """Drain the server and wait for it; returns its trace, if traced."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        if self.trace_file is None:
            return {}
        with open(self.trace_file, encoding="utf-8") as handle:
            return json.load(handle)


def start_servers(root: str, workdir: str, tag: str, count: int, *, traced: bool,
                  extra_args=lambda index: ()) -> list[Server]:
    """Spawn ``count`` servers at once and wait until all listen."""
    servers = []
    try:
        for index in range(count):
            servers.append(Server(root, workdir, f"{tag}-{index}", traced=traced,
                                  extra_args=tuple(extra_args(index))))
        for server in servers:
            server.wait_listening()
    except BaseException:
        for server in servers:
            server.stop()
        raise
    return servers
