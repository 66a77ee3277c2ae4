"""``ppd serve`` stops on SIGTERM even when the kernel delivers the
signal to a thread other than the main one.

Python runs signal handlers only on the main thread.  If the signal
lands on the ``ppd-accept`` thread while the main thread sits in an
untimed wait, the handler is flagged but never run and the daemon keeps
serving.  The script below reproduces exactly that delivery in a child
process (so a hang costs a bounded timeout, not the test session).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import pytest

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "pthread_kill"), reason="needs pthread_kill"
)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

SCRIPT = textwrap.dedent(
    """
    import signal, sys, tempfile, threading, time

    from repro.server import DebugService

    service = DebugService(port=0, spool_dir=tempfile.mkdtemp())
    service.start()
    # The handler _main_serve installs.
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: service.request_shutdown())
    accept = next(t for t in threading.enumerate() if t.name == "ppd-accept")
    main_id = threading.main_thread().ident
    sent = []

    def kill_accept_thread():
        # Wait until the main thread is blocked inside wait_for_shutdown,
        # then signal the accept thread only.
        while True:
            frame = sys._current_frames().get(main_id)
            names = []
            while frame is not None:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            if "wait_for_shutdown" in names and names[0] == "wait":
                break
            time.sleep(0.01)
        sent.append(time.monotonic())
        signal.pthread_kill(accept.ident, signal.SIGTERM)

    threading.Thread(target=kill_accept_thread, daemon=True).start()
    service.wait_for_shutdown()
    print(f"stopped {time.monotonic() - sent[0]:.3f}", flush=True)
    """
)


def test_sigterm_on_accept_thread_stops_the_service():
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        done = subprocess.run(
            [sys.executable, "-c", SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=20,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("wait_for_shutdown ignored a SIGTERM delivered to ppd-accept")
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    assert line.startswith("stopped ")
    assert float(line.split()[1]) < 3.0
