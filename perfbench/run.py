"""selmer3 benchmark: one seeded workload per run, measured from outside
the library through its public API.

    python3 perfbench/run.py --workload family-scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from anywhere; selmer3 is imported from `src/` beside this directory.
`--trace 0` measures the end-to-end metrics with nothing wrapped; `--trace
1` runs a fixed request list once plain and once traced and reports the
per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Inputs, the full result record and the spans go to
`perfbench/work/`.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

import gen  # noqa: E402
from clock import CalibratedTimer, WallTimer  # noqa: E402
from workloads import WORKLOADS, RequestFailed, median_cycle_s, median_ms  # noqa: E402

SETUP_PROBES = 7
DIGESTED_REQUESTS = 40

# Times a fresh interpreter from before `import selmer3` until the
# workload could send its first request.
_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from clock import CalibratedTimer
from workloads import WORKLOADS
workload = WORKLOADS[sys.argv[3]]()
print(CalibratedTimer().time(workload.setup, sys.argv[4])[2])
"""


@dataclass(slots=True)
class Sample:
    """One checked request: `seconds` is calibrated time, `wall` raw."""

    kind: str
    seconds: float
    wall: float
    problem: str | None = None
    members: int = 0
    bytes_out: int = 0
    digest: str | None = None


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def execute(workload, req, timer, runner=None, digest=True) -> Sample:
    """Time one request, then check it; a request that raises or fails
    its check is a failed sample, never a crash of the run."""
    start = time.perf_counter()
    try:
        if runner:
            output, wall, seconds = timer.time(runner, workload.run, req)
        else:
            output, wall, seconds = timer.time(workload.run, req)
    except Exception as err:  # the library's failure is the request's failure
        wall = time.perf_counter() - start
        return Sample(req.kind, wall, wall, f"raised {err!r}")
    try:
        outcome = workload.check(req, output)
    except RequestFailed as err:
        return Sample(req.kind, seconds, wall, str(err))
    except (KeyError, TypeError, ValueError, IndexError) as err:
        return Sample(req.kind, seconds, wall, f"malformed output: {err!r}")
    return Sample(req.kind, seconds, wall, None, outcome.members, outcome.bytes_out,
                  _digest(outcome.payload) if digest else None)


def check_digests(name: str, seed: int, samples: list[Sample]) -> None:
    """For the default seed, the first payloads must match the committed
    digests byte for byte."""
    if seed != gen.DEFAULT_SEED or not os.path.exists(DIGESTS):
        return
    with open(DIGESTS) as fh:
        recorded = json.load(fh).get(name, [])
    for sample, want in zip(samples, recorded):
        if sample.problem is None and sample.digest != want:
            sample.problem = "result payload digest differs from digests.json"


def record_digests(name: str, samples: list[Sample]) -> None:
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            table = json.load(fh)
    table[name] = [s.digest for s in samples[:DIGESTED_REQUESTS]]
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def measure_setup(name: str, workdir: str) -> list[float]:
    runs = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, SRC, HERE, name, workdir],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        runs.append(float(proc.stdout.strip().splitlines()[-1]))
    return runs


def run_timed(workload, seconds: float) -> list[Sample]:
    """Whole cycles of requests until `seconds` of wall time have passed."""
    samples: list[Sample] = []
    timer = CalibratedTimer()
    start = time.perf_counter()
    for cycle in workload.cycles():
        for req in cycle:
            samples.append(execute(workload, req, timer, digest=len(samples) < DIGESTED_REQUESTS))
        if time.perf_counter() - start >= seconds:
            return samples
    return samples


def run_traced(workload, workdir: str):
    """Each request of the workload's fixed trace list, once plain and
    then once traced, so that both see the same state of the host; raw
    wall times throughout."""
    from tracing import Tracer

    reqs = [req for cycle in islice(workload.cycles(), workload.TRACE_CYCLES) for req in cycle]
    timer = WallTimer()
    tracer = Tracer()
    plain, traced = [], []
    for i, req in enumerate(reqs, 1):
        plain.append(execute(workload, req, timer))
        tracer.install()
        try:
            traced.append(execute(workload, req, timer, lambda fn, r: tracer.request(i, fn, r)))
        finally:
            tracer.uninstall()
    tracer.write(os.path.join(workdir, "spans.tsv"))
    per_layer = tracer.metrics(
        members=sum(s.members for s in traced),
        bytes_out=sum(s.bytes_out for s in traced),
        untraced_ns=int(sum(s.wall for s in plain) * 1e9),
    )
    return plain + traced, per_layer


def end_to_end(workload, samples: list[Sample], setups: list[float]) -> list[tuple[str, float, str, int]]:
    """The gated metrics, the same names on every workload, as (name,
    value, unit, sample count): setup, peak memory, the median cycle, the
    mean of the slowest requests and the median of each request kind
    (kind1..kind4 in the order of workload.KINDS)."""
    rows = [
        ("setup_s", statistics.median(setups), "s", len(setups)),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        ("cycle_ms", median_cycle_s(samples, workload.CYCLE_LENGTH) * 1e3, "ms",
         len(samples) // workload.CYCLE_LENGTH),
        ("tail_ms", tail_mean_ms(samples), "ms", len(samples)),
    ]
    for i, kind in enumerate(workload.KINDS, 1):
        group = [s for s in samples if s.kind == kind]
        rows.append((f"kind{i}_p50_ms", median_ms(group), "ms", len(group)))
    return rows


def tail_mean_ms(samples: list[Sample]) -> float:
    """Mean of the slowest 1% of requests, the slowest one in a run of
    fewer than 200.  The slow requests of a workload are few and far apart
    in cost, so their 99th percentile jumps between them from run to run;
    their mean moves less."""
    slowest = sorted((s.seconds for s in samples), reverse=True)
    return statistics.mean(slowest[:max(1, len(slowest) // 100)]) * 1e3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "selmer3")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith((".py", ".json")):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    return None


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "selmer3_commit": _git_commit(),
        "selmer3_source_sha256": _source_digest(),
        "seed": seed,
    }


def measure(workload, workdir: str, args, record: dict):
    """The timed or the traced run; returns the samples, the metrics for
    the JSON line and the metrics to print, as (name, value, unit, n)."""
    if args.trace:
        workload.setup(workdir)
        samples, per_layer = run_traced(workload, workdir)
        gated = [(name, value, unit, len(samples) // 2) for name, (value, unit) in per_layer.items()]
        shown = gated
    else:
        setups = measure_setup(args.workload, workdir)
        workload.setup(workdir)
        samples = run_timed(workload, args.seconds)
        if args.record_digests:
            record_digests(args.workload, samples)
        else:
            check_digests(args.workload, args.seed, samples)
        gated = end_to_end(workload, samples, setups)
        failed = sum(1 for s in samples if s.problem)
        shown = gated + workload.named_metrics(samples)
        shown.append(("failed_ratio", failed / len(samples), "failed/attempted", len(samples)))
        record["setup_runs_s"] = setups
        for i, kind in enumerate(workload.KINDS, 1):
            print(f"kind{i} = {kind}")
    return samples, gated, shown


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]()
    workdir = os.path.join(HERE, "work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(workdir, exist_ok=True)
    workload.make_inputs(workdir, args.seed)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    record = {"workload": args.workload, "env": env, "seconds": args.seconds, "trace": args.trace}
    try:
        samples, gated, shown = measure(workload, workdir, args, record)
    finally:
        workload.close()

    failures = [s for s in samples if s.problem]
    for s in failures[:10]:
        print(f"FAILED {s.kind}: {s.problem}")
    for name, value, unit, n in shown:
        print(f"{name} = {value:.6g} {unit} (n={n})")
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in gated},
    }
    record["result"] = result
    record["metrics"] = [dict(zip(("name", "value", "unit", "n"), row)) for row in shown]
    record["failures"] = [{"kind": s.kind, "problem": s.problem} for s in failures]
    record["samples"] = [[s.kind, s.wall, s.seconds] for s in samples]
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the default seed's payload digests in digests.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "selmer3", "__init__.py")):
        print(f"error: no selmer3 sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests and (args.seed != gen.DEFAULT_SEED or args.trace or args.workload == "all"):
        parser.error("--record-digests needs one workload, the default seed and --trace 0")
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
