"""``python -m repro.service`` end to end: boot, serve, SIGTERM drain.

This is the test CI's ``service`` job runs: a real subprocess server on
an ephemeral port, a client smoke call, and a clean-drain assertion on
the exit status.
"""

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import list_apps
from repro.service import ServiceClient
from repro.service import __main__ as service_main

SRC = Path(__file__).resolve().parents[2] / "src"


def test_cli_serves_and_drains_on_sigterm():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--port",
            "0",
            "--batch-size",
            "8",
            "--preload",
            "cavity",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"serving on http://([\d.]+):(\d+)", banner)
        assert match, f"no serving banner in {banner!r}"
        host, port = match.group(1), int(match.group(2))

        with ServiceClient(host, port) as client:
            health = client.health()
            assert health["status"] == "ok"
            assert client.apps()["cavity"]["loaded"] is True  # preloaded
            events = list(
                client.sweep("cavity", variants=["baseline"], onchip_counts=[None])
            )
            assert [e["type"] for e in events] == [
                "start",
                "record",
                "record",
                "end",
            ]

        proc.send_signal(signal.SIGTERM)
        output, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)

    assert proc.returncode == 0, output
    assert "draining in-flight sweeps" in output
    assert "drained cleanly" in output


def test_cli_rejects_unknown_preload_app():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--port",
            "0",
            "--preload",
            "cavity",
            "nosuchapp",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "unknown app(s) nosuchapp" in proc.stderr
    for app in list_apps():
        assert app in proc.stderr


@pytest.mark.parametrize(
    "flags, expected",
    [
        ([], ()),
        (["--preload"], list_apps()),
        (["--preload", "motion", "cavity"], ("motion", "cavity")),
    ],
)
def test_preload_flag_names_the_apps_to_warm(monkeypatch, flags, expected):
    """A bare ``--preload`` warms every registered app."""
    configs = []

    async def fake_serve(service):
        return True

    monkeypatch.setattr(service_main, "SweepService", configs.append)
    monkeypatch.setattr(service_main, "serve", fake_serve)
    assert service_main.main(["--port", "0", *flags]) == 0
    assert configs[0].preload_apps == expected
