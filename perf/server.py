"""Server launcher: the serving stack in a child process, composed from
public classes only.

``python3 perf/server.py --workload W [--trace 1]`` builds the four
estimators (data-only pre-training), puts them behind the workload's
front (F1 = ``RoutedEstimateService``, F2 = ``ClusterEstimateService``),
opens ``HTTPFrontDoor(AsyncEstimateService(front))`` on an ephemeral
port, prints one JSON ready line on stdout and then answers JSON-line
control messages on stdin/stdout until ``stop`` (or EOF):

``stage``   stage the inserted rows on the refresh table (there is no
            wire endpoint for inserts; this calls the public
            ``UAEServer.stage_data``)
``trace``   turn span recording on or off (traced runs only)
``report``  write the spans to a file and return per-span aggregates
``stop``    shut the door and the front down and exit 0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spec  # noqa: E402


def build_front(workload: str, tracer=None):
    """The started front for ``workload`` plus what `stage` needs."""
    from repro.core import UAE
    from repro.data import Table, load
    from repro.serve import (ClusterEstimateService, FeedbackCollector,
                             RoutedEstimateService)

    refresh = workload == "refresh"
    estimators = {}
    inserts = None
    for i, name in enumerate(spec.NAMESPACES):
        table = load(name, rows=spec.ROWS[name])
        if refresh and name == spec.REFRESH_TABLE:
            base, inserts = spec.drift_split(table.codes)
            table = Table(table.name, table.columns, base)
        uae = UAE(table, seed=i, **spec.UAE_KWARGS)
        uae.fit(epochs=spec.PRETRAIN_EPOCHS, mode="data")
        estimators[name] = uae
    model_bytes = sum(e.size_bytes() for e in estimators.values())
    if tracer is not None:
        tracer.name_models(estimators)

    if spec.FRONT_OF[workload] == "F2":
        front = ClusterEstimateService(workers=spec.CLUSTER_WORKERS,
                                       seed=spec.FRONT_KWARGS["seed"])
        for uae in estimators.values():
            front.add_table(uae)
    else:
        front = RoutedEstimateService(**spec.FRONT_KWARGS)
        for name, uae in estimators.items():
            extra = {}
            if refresh and name == spec.REFRESH_TABLE:
                extra = dict(feedback=FeedbackCollector(
                    **spec.FEEDBACK_KWARGS), **spec.REFRESH_SERVER_KWARGS)
            front.add_table(uae, modelops=True, **extra)
    front.start()
    return front, inserts, model_bytes


async def serve(front, inserts, model_bytes, tracer) -> None:
    from repro.serve import AsyncEstimateService, HTTPFrontDoor

    door = HTTPFrontDoor(AsyncEstimateService(front))
    if tracer is not None:
        tracer.wrap_instance(door, "parser", "sqlparse.parse")
    await door.start()
    loop = asyncio.get_running_loop()
    commands: asyncio.Queue = asyncio.Queue()

    def read_stdin() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(commands.put_nowait, line)
        loop.call_soon_threadsafe(commands.put_nowait, "")

    threading.Thread(target=read_stdin, name="control", daemon=True).start()

    def reply(**fields) -> None:
        sys.stdout.write(json.dumps(fields) + "\n")
        sys.stdout.flush()

    reply(ready=True, port=door.port, pid=os.getpid(),
          model_bytes=model_bytes)
    try:
        while True:
            line = await commands.get()
            if not line.strip():
                break                       # EOF: the harness went away
            msg = json.loads(line)
            cmd = msg.get("cmd")
            if cmd == "stop":
                break
            if cmd == "stage":
                front.namespace(spec.REFRESH_TABLE).server.stage_data(inserts)
                reply(ok=True, rows=int(len(inserts)))
            elif cmd == "trace" and tracer is not None:
                tracer.enabled = bool(msg["on"])
                reply(ok=True)
            elif cmd == "report" and tracer is not None:
                reply(ok=True, **tracer.report(msg.get("path")))
            else:
                reply(ok=False, error=f"unknown command {cmd!r}")
    finally:
        await door.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        spec.shrink_for_smoke()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    front, inserts, model_bytes = build_front(args.workload, tracer)
    try:
        asyncio.run(serve(front, inserts, model_bytes, tracer))
    finally:
        front.stop()
    sys.stdout.write(json.dumps({"stopped": True}) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
