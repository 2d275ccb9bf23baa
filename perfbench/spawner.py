"""Small helper process that starts benchmark children and measures them.

Linux folds the memory high-water mark of the process image a child replaces
into the child's ``ru_maxrss``, so a child started straight from the
benchmark (which holds inputs and parsed outputs) would report the
benchmark's own peak. This helper imports only the standard library and
starts every child from its own small image instead.

Protocol: one JSON request per stdin line, ``{"args", "cwd", "env", "timeout"}``;
one JSON reply per stdout line, ``{"rc", "wall_s", "rss_mb"}``. The wall time
covers process start to exit, the RSS is the child's peak from ``wait4``.
On SIGTERM or end of input the running child, if any, is killed and reaped.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

_live: subprocess.Popen | None = None
_lock = threading.Lock()


def _kill_live(*_args) -> None:
    with _lock:
        if _live is not None and _live.returncode is None:
            _live.send_signal(signal.SIGKILL)


def _terminate(*_args) -> None:
    _kill_live()
    if _live is not None:
        _live.wait()
    raise SystemExit(1)


def run_one(req: dict) -> dict:
    global _live
    with open(os.path.join(req["cwd"], "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["args"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=err, stderr=err)
        with _lock:
            _live = proc
        timer = threading.Timer(req["timeout"], _kill_live)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
        with _lock:
            proc.returncode = os.waitstatus_to_exitcode(status)
            _live = None
    return {"rc": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        reply = run_one(json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
