"""CLI: ``python -m repro.bench <experiment> [--profile small|bench|paper]``.

``python -m repro.bench list`` shows every experiment id;
``python -m repro.bench all`` runs the full sweep; each experiment saves
``results/<id>.json`` and its rendered table ``results/<id>.txt``.
"""

from __future__ import annotations

import argparse
import sys
import time

from .experiments import EXPERIMENTS
from .profiles import PROFILES
from .reporting import format_table, save_result


def main(argv: list[str] | None = None) -> int:
    """Entry point: run one experiment (or `all`/`list`) and report."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment",
                        help="experiment id, 'list', or 'all'")
    parser.add_argument("--profile", default=None,
                        choices=sorted(PROFILES),
                        help="scale profile (default: $REPRO_PROFILE or "
                             "'bench')")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    profile = PROFILES[args.profile] if args.profile else None
    names = list(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; "
              f"try 'list'", file=sys.stderr)
        return 2

    failed: list[str] = []
    for name in names:
        start = time.perf_counter()
        try:
            result = EXPERIMENTS[name](profile)
        except Exception as exc:
            # A single experiment run is a gate (CI smoke) — propagate.
            # In an `all` sweep, report and keep going so one timing
            # blip doesn't discard every experiment after it.
            if len(names) == 1:
                raise
            print(f"[{name} FAILED after "
                  f"{time.perf_counter() - start:.1f}s: {exc}]\n",
                  file=sys.stderr)
            failed.append(name)
            continue
        elapsed = time.perf_counter() - start
        print(format_table(result["rows"], result["columns"],
                           title=result["title"]))
        print(f"[{name} took {elapsed:.1f}s]")
        path = save_result(name, result)
        print(f"saved {path}\n")
    if failed:
        print(f"failed experiments: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
