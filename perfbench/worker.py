"""One benchmark round in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED MODE WORKDIR

MODE is `probe` (set up, then stop), `run` (set up, time the workload,
check it) or `trace` (the same with spans around skostka's public
functions). The last line of standard output is one JSON object:
`ready` is `time.monotonic()` when set-up ended, which the parent
subtracts from its own reading just before it started this process.
Every cache the program keeps lives in this process, so each round starts
from a cold engine.
"""

import json
import os
import resource
import sys
import time


def main(workload, seed, mode, workdir):
    import workloads

    wl = workloads.WORKLOADS[workload](seed, workdir)
    ready = time.monotonic()
    import skostka

    src = os.path.abspath("src")
    if not os.path.abspath(skostka.__file__).startswith(src + os.sep):
        raise SystemExit(f"skostka was imported from {skostka.__file__}, not {src}")
    result = {"ready": ready}
    if mode == "probe":
        return result
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start, cpu = time.perf_counter(), time.process_time()
    out = wl.run()
    wall = time.perf_counter() - start
    result["wall_s"] = wall
    result["cpu_s"] = time.process_time() - cpu
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["trace.coverage"] = tracer.root_seconds() / wall
        result["layers"] = layers
        tracer.dump(
            os.path.join(os.path.dirname(workdir), f"trace-{workload}-seed{seed}.json"),
            {"workload": workload, "seed": seed, "wall_s": wall, "metrics": layers},
        )
    result["attempted"], result["wrong"] = wl.check(out)
    return result


if __name__ == "__main__":
    name, seed, mode, workdir = sys.argv[1:5]
    print(json.dumps(main(name, int(seed), mode, workdir)))
