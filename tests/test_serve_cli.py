"""``python -m repro.serve`` is the HTTP server only: ``--http PORT`` is
required and no other flag is accepted (the serving scenarios run as
``python -m repro.bench serving``; the protocol's checks are the
``net``-marked suites).  Bad arguments fail before a model is trained.

The ``net``-marked end-to-end test starts the real command as a
subprocess, talks to it over HTTP, and stops it with SIGINT."""

import asyncio
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.serve import AsyncHTTPClient
from repro.serve import __main__ as cli


@pytest.fixture(autouse=True)
def _no_training(monkeypatch):
    def trained(*args, **kwargs):
        pytest.fail("a model was trained before the arguments were checked")
    monkeypatch.setattr(cli, "_build_http_front", trained)


@pytest.mark.parametrize("argv", [[], ["--smoke"], ["--profile", "ci"]])
def test_missing_http_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "the following arguments are required: --http" \
        in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--datasets", "dmv"], ["--workers", "2"],
                                  ["--chaos", "kill-worker"],
                                  ["--no-artifact"], ["--json"],
                                  ["--smoke"]])
def test_scenario_flags_are_rejected(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--http", "0", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.net
def test_binary_serves_until_sigint():
    """Train at ``ci``, read the ``serving http://HOST:PORT`` line,
    answer /healthz, /estimate and /status, then exit 0 on SIGINT."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--profile", "ci",
             "--http", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env) as proc:
        # A server that never prints its address must not hang the
        # suite: the kill closes the pipe, so the read below ends.
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            _drive_and_interrupt(proc)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()


def _drive_and_interrupt(proc):
    for line in proc.stdout:
        if line.startswith("serving http://"):
            break
    else:
        pytest.fail(f"no serving line; exit code {proc.wait()}")
    host, port = line.split()[1].removeprefix("http://").split(":")

    async def scenario():
        client = AsyncHTTPClient(host, int(port))
        try:
            return (await client.get("/healthz"),
                    await client.post(
                        "/estimate",
                        {"sql": "model_year <= 30 AND fuel_type = 2"}),
                    await client.get("/status"))
        finally:
            await client.close()

    healthz, estimate, status = asyncio.run(scenario())
    assert healthz[0] == 200 and healthz[1] == {"ok": True}
    assert estimate[0] == 200 and estimate[1]["estimate"] >= 0.0
    assert isinstance(estimate[1]["version"], int)
    assert status[0] == 200
    version = status[1]["service"]["namespaces"]["dmv"]["service"][
        "model_version"]
    assert isinstance(version, int)

    proc.send_signal(signal.SIGINT)
    out, _ = proc.communicate(timeout=30)
    assert proc.returncode == 0, out
