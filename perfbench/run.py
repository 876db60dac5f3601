"""skostka benchmark: one workload, several fresh processes, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a skostka checkout; it imports the package from
`src/`. `--seed` is the engine seed handed to `DirectEngine` and to
`modules_isomorphic`; the inputs themselves are fixed sets (see README).

With `--trace 0` it runs whole rounds, each in a fresh process, until the
rounds have taken `--seconds` and the workload's `min_rounds` are done,
after set-up-only processes that bring the set-up samples to
SETUP_SAMPLES. Round k uses the engine seed
`seed + ROUND_SEED_STEP * k`. It reports the end-to-end metrics of
BENCHMARK.json: the median over the rounds of the workload's wall time
and of its peak RSS, and the median set-up time over every process
started.

With `--trace 1` it runs one untraced round and one traced round, and
reports the per-layer metrics of BENCHMARK.json. Spans go to
perfbench/out/trace-<workload>-seed<seed>.json.

The last line of standard output is the result object. The exit code is
not 0 when a round crashes or when the checkout has no program to run.
There is no time limit of its own: a worker is killed when this process
ends, however it ends.
"""

import argparse
import ctypes
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
ROUND_SEED_STEP = 1000
PR_SET_PDEATHSIG = 1

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class RoundFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def die_with_parent():
    """Have the kernel kill this child when run.py ends, however it ends."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def spawn(workload, seed, mode):
    """Run one worker process; its result with setup_s filled in."""
    workdir = OUT / f"work-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(workdir)]
    try:
        started = time.monotonic()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=child_env(), text=True, preexec_fn=die_with_parent
        )
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise RoundFailed(f"{mode} round of {workload} exited with {proc.returncode}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def import_seconds():
    """Cumulative import time of numpy, scipy and sympy under `import skostka`,
    read from `python -X importtime`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import skostka"],
        capture_output=True, text=True, env=child_env(), preexec_fn=die_with_parent,
    )
    if proc.returncode != 0:
        raise RoundFailed("import skostka failed")
    # Lines come children first; a line's children are the lines just
    # above it that are nested one level deeper.
    roots = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        depth = len(m.group(3))
        node = {"name": m.group(4), "cum": int(m.group(2)), "depth": depth, "kids": []}
        while roots and roots[-1]["depth"] > depth:
            node["kids"].insert(0, roots.pop())
        roots.append(node)
    totals = {"numpy": 0, "scipy": 0, "sympy": 0}

    def visit(node, owner):
        top = node["name"].split(".")[0]
        if top in totals and owner != top:
            totals[top] += node["cum"]
            owner = top
        for kid in node["kids"]:
            visit(kid, owner)

    for node in roots:
        visit(node, None)
    return {f"import.{k}_s": v / 1e6 for k, v in totals.items()}


def round_seed(seed, k):
    """The engine seed of round k: the run's own seed for the first round."""
    return seed + ROUND_SEED_STEP * k


def measure(workload, seed, seconds):
    setups, walls, rss, cpus = [], [], [], []
    attempted = wrong = 0
    min_rounds = workloads.WORKLOADS[workload].min_rounds
    for _ in range(SETUP_SAMPLES - min_rounds):
        setups.append(spawn(workload, seed, "probe")["setup_s"])
    measured = 0.0
    while len(walls) < min_rounds or measured < seconds:
        r = spawn(workload, round_seed(seed, len(walls)), "run")
        setups.append(r["setup_s"])
        walls.append(r["wall_s"])
        rss.append(r["peak_rss_mb"])
        cpus.append(r["cpu_s"])
        attempted += r["attempted"]
        wrong += r["wrong"]
        measured += r["wall_s"]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    record = {"round_seeds": [round_seed(seed, k) for k in range(len(walls))],
              "rounds_wall_s": walls, "rounds_cpu_s": cpus, "rounds_peak_rss_mb": rss,
              "setup_s": setups}
    return attempted, wrong, metrics, record


def trace(workload, seed):
    plain = spawn(workload, seed, "run")
    traced = spawn(workload, seed, "trace")
    metrics = dict(traced["layers"])
    metrics.update(import_seconds())
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    attempted = plain["attempted"] + traced["attempted"]
    wrong = plain["wrong"] + traced["wrong"]
    record = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"]}
    return attempted, wrong, metrics, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not workloads.program_present():
        print("no skostka sources under src/: run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            attempted, wrong, values, record = trace(args.workload, args.seed)
            wanted = spec["per_layer"]
        else:
            attempted, wrong, values, record = measure(args.workload, args.seed, args.seconds)
            wanted = spec["end_to_end"]
    except RoundFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": wrong == 0, "attempted": attempted, "failed": wrong, "metrics": metrics}
    record.update(workload=args.workload, seed=args.seed, trace=args.trace, result=result)
    with open(OUT / "runs.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(record, indent=None), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
