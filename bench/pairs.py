"""Alternating A/B pairs of a perfbench workload, a base revision against
this checkout (or a second revision), with each metric's resolution stated,
written to a BENCH_*.json file.

    python3 bench/pairs.py --base HEAD~1 --workload family-scan --pairs 10 --seconds 30 --out BENCH_34_pairs.json
    python3 bench/pairs.py --base HEAD --tree HEAD --workload family-scan --pairs 10 --seconds 20 --out null.json

The base revision's `src/` and `perfbench/` are exported with `git archive`
into a temporary directory; so are the tree's when `--tree` names a
revision, and without it the tree side runs this checkout as it is.  Pair i
runs the base first when i is even and the tree first when i is odd.  Each
run is `perfbench/run.py --workload W --seed SEED --seconds S` in its side's
directory, unchanged; only the last line of its stdout, one JSON object, is
read.  Per metric the file records both sides' runs, medians and
quartiles, the ratio of the medians (tree over base), the number of pairs
in which the tree read lower, and the exact two-sided sign-test p-value
over the pairs that differ.  A metric is "resolved" only when the medians
differ by more than the base's interquartile range and the sign test
rejects at `ALPHA`; otherwise the run cannot tell the sides apart on it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from math import comb
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# The sign test's level: at 10 pairs it rejects at 9 of 10 one way (p = 0.021), not at 8 (p = 0.109).
ALPHA = 0.05


def sign_test(lower: int, higher: int) -> float:
    """Exact two-sided sign-test p-value of `lower` pairs one way and
    `higher` the other (ties dropped): the binomial(n, 1/2) mass of the
    outcomes at least as far from n/2 as the one seen."""
    n = lower + higher
    tail = sum(comb(n, i) for i in range(min(lower, higher) + 1))
    return min(1.0, 2 * tail / 2**n)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(base: list[float], tree: list[float], alpha: float = ALPHA) -> dict:
    """One metric's summary over pairs (base[i], tree[i])."""
    if len(base) != len(tree) or not base:
        raise ValueError("one base and one tree value a pair, at least one pair")
    sides = {}
    for side, values in (("base", base), ("tree", tree)):
        q1, median, q3 = _quartiles(values)
        sides[side] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}
    lower = sum(t < b for b, t in zip(base, tree))
    higher = sum(t > b for b, t in zip(base, tree))
    p = sign_test(lower, higher)
    shift = sides["tree"]["median"] - sides["base"]["median"]
    base_median = sides["base"]["median"]
    return {
        **sides,
        "ratio": sides["tree"]["median"] / base_median if base_median else None,
        "shift": shift,
        "pairs": len(base),
        "tree_lower": lower,
        "tree_higher": higher,
        "sign_test_p": p,
        "resolved": abs(shift) > sides["base"]["iqr"] and p < alpha,
    }


def _git(*args: str, text: bool = True):
    proc = subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True, text=text)
    return proc.stdout.strip() if text else proc.stdout


def _export(rev: str, dest: str) -> str:
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev, "src", "perfbench", text=False))) as tar:
        tar.extractall(dest, filter="data")
    return dest


def _run(root: str, args) -> dict:
    """The last stdout line of one perfbench run in `root`."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench failed in {root} (exit {proc.returncode})")
    return json.loads(lines[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--tree", help="git revision of the other side (default: this checkout as it is)")
    ap.add_argument("--workload", required=True, help="perfbench workload, or all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=20210714, help="perfbench seed (its default)")
    ap.add_argument("--out", required=True, help="path of the JSON file to write")
    args = ap.parse_args()

    values: dict[str, dict[str, list[float]]] = {"base": {}, "tree": {}}
    units: dict[str, str] = {}
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"base": _export(args.base, os.path.join(tmp, "base"))}
        roots["tree"] = _export(args.tree, os.path.join(tmp, "tree")) if args.tree else str(REPO)
        for i in range(args.pairs):
            order = ("base", "tree") if i % 2 == 0 else ("tree", "base")
            pair = {"first": order[0]}
            for side in order:
                result = _run(roots[side], args)
                pair[side] = {k: result[k] for k in ("correct", "attempted", "failed")}
                for name, metric in result["metrics"].items():
                    values[side].setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
            runs.append(pair)
            print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} {'correct' if pair[side]['correct'] else 'FAILED'}" for side in order), flush=True)

    metrics = {name: {"unit": units[name], **compare(values["base"][name], values["tree"][name])}
               for name in values["base"] if name in values["tree"]}
    report = {
        "harness": "bench/pairs.py",
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()},
        "base": {"rev": args.base, "commit": _git("rev-parse", args.base)},
        "tree": {"rev": args.tree, "commit": _git("rev-parse", args.tree)} if args.tree else {
            "rev": None, "commit": _git("rev-parse", "HEAD"),
            "dirty": bool(_git("status", "--porcelain", "--", "src", "perfbench")),
        },
        "method": {
            "workload": args.workload, "pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
            "order": "base first in even pairs (0, 2, ...), tree first in odd ones",
            "alpha": ALPHA,
            "resolved": "|median(tree) - median(base)| > IQR(base) and two-sided sign-test p < alpha",
        },
        "correct": all(pair[side]["correct"] for pair in runs for side in ("base", "tree")),
        "runs": runs,
        "metrics": metrics,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for name, row in metrics.items():
        print(
            f"{name:24s} {row['base']['median']:>10.4g} -> {row['tree']['median']:>10.4g} {row['unit']:8s}"
            f" ratio {row['ratio'] or float('nan'):.3f}, lower in {row['tree_lower']}/{row['pairs']},"
            f" p = {row['sign_test_p']:.3g}, base IQR {row['base']['iqr']:.3g}:"
            f" {'resolved' if row['resolved'] else 'not resolved'}"
        )


if __name__ == "__main__":
    main()
