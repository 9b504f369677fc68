"""Set-up probe: import a workload and build its inputs, then say ``ready``.

``python3 layerbench/probe.py <workload>``, run by the benchmark in a
fresh interpreter.  The benchmark times the span from spawning this
process to reading ``ready``.  On the service workloads the probe also
starts a server with the workload's flags and reports ready once it
listens; it stops that server before exiting.
"""

from __future__ import annotations

import sys


def main(workload: str) -> int:
    if workload.startswith("service-"):
        import service_load

        with service_load.Server(workload, traced=False, tag="probe"):
            print("ready", flush=True)
    else:
        import explore_load

        explore_load.build_inputs(workload)
        print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
