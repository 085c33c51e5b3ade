"""``python -m repro.serve`` is the HTTP server only: ``--http PORT`` is
required and no scenario flag is accepted (the serving scenarios run as
``python -m repro.bench serving``).  Bad arguments fail before a model
is trained."""

import pytest

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
    assert "--http" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--datasets", "dmv"], ["--workers", "2"],
                                  ["--chaos", "kill-worker"],
                                  ["--no-artifact"], ["--json"]])
def test_scenario_flags_are_rejected(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--http", "0", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
