"""Session set-up shared by every test module.

``pyproject.toml`` puts ``src`` on this process's import path, but a test
that starts a Python child process (the acceptance replay, the benchmark
tracer hook) needs it in ``PYTHONPATH`` too, or the child cannot import
the package from a bare checkout.
"""

import os


def pytest_configure(config):
    src = str(config.rootpath / "src")
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([src] + [p for p in paths if p])
