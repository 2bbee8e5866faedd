"""Session set-up shared by every test module.

``pyproject.toml`` puts ``src`` on this process's import path, but a test
that starts a Python child process (the acceptance replay, the benchmark
tracer hook) needs it in ``PYTHONPATH`` too, or the child cannot import
the package from a bare checkout.

Every test must also reap each child process it starts: a traced run's
trace writer, a pool worker, a subprocess.
"""

import os

import pytest


def pytest_configure(config):
    src = str(config.rootpath / "src")
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([src] + [p for p in paths if p])


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    state = "still running" if pid == 0 else f"pid {pid} exited, status {status}"
    pytest.fail(f"the test left a child process unreaped ({state})")
