"""CLI: ``python -m repro.serve --http PORT [--profile ci|small|bench|paper]``:
the JSON-over-HTTP front door.

Trains the profile's DMV model once, then serves the JSON-over-HTTP
protocol (``POST /estimate``, ``POST /estimate_batch``,
``POST /feedback``, ``GET /status``, ``GET /healthz``, ``GET /metrics``,
``GET /debug/traces``) until Ctrl-C.  ``PORT`` 0 binds an ephemeral port
(printed once bound).  The protocol's checks live in the ``net``-marked
test suites, which also start this command as a subprocess.

The serving scenarios (the Section 4.5 loop, multi-table, scale-out,
open-loop load and chaos) run only as ``python -m repro.bench serving``.
"""

from __future__ import annotations

import argparse

from ..bench.profiles import PROFILES


def _build_http_front(profile):
    """Train the profile's DMV model and serve it as the one namespace of
    a :class:`~repro.serve.router.RoutedEstimateService`."""
    from ..core import UAE
    from ..data import load
    from .router import RoutedEstimateService

    table = load("dmv", rows=profile.dataset_rows("dmv"), seed=0)
    uae = UAE(table, hidden=profile.hidden,
              num_blocks=profile.num_blocks,
              est_samples=profile.est_samples,
              dps_samples=max(4, profile.dps_samples),
              batch_size=profile.batch_size,
              query_batch_size=profile.query_batch_size, seed=0)
    uae.fit(epochs=max(1, profile.epochs // 3), mode="data")
    front = RoutedEstimateService(max_batch=32, seed=7)
    front.add_table(uae)
    return front


def _run_http(profile, port: int) -> int:
    from .net import serve_http

    print(f"training DMV model (profile={profile.name}) ...", flush=True)
    with _build_http_front(profile) as front:
        serve_http(front, port=port, ready=lambda d: print(
            f"serving http://{d.host}:{d.port} "
            "(POST /estimate | /estimate_batch | /feedback, "
            "GET /status | /healthz; Ctrl-C stops)", flush=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve the JSON-over-HTTP front door over a DMV model "
                    "trained at the given profile.  The serving "
                    "scenarios run as `python -m repro.bench serving`.")
    parser.add_argument("--profile", default="small",
                        choices=sorted(PROFILES),
                        help="scale profile (default: small)")
    parser.add_argument("--http", type=int, required=True, metavar="PORT",
                        help="serve on PORT (0 = ephemeral); Ctrl-C stops")
    args = parser.parse_args(argv)
    return _run_http(PROFILES[args.profile], args.http)


if __name__ == "__main__":
    raise SystemExit(main())
