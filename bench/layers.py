"""Layer timings of the cubic-ring, oracle, input-path, local-datum,
family-scan and Prym-report code, this checkout against a base revision,
written to a BENCH_*.json file.  The form/ring layers include the round
trip `form_to_ring`, `CubicRing.discriminant`, `ring_to_form` on 200
seeded integral forms, and the forms request `index_p_subrings` plus
`orbit_split(f, p)` on the same forms, p cycling through 5, 7, 11, 13.
The oracle layers are the orbit grid at p = 5 and 7,
`algebra_class_of_form` on the grid's witness forms and on 10 seeded
integral forms at p = 31, and the form scans `scan_forms_low_valuation`
at p = 5, 7, 11 and 13; the ones at p = 11 and 13 take up to seconds, so
they run three passes and no warm-up pass.  The root-isolation layers are
`has_zp_root` on 200 seeded integer polynomials of degree 1 to 3 (p
cycling through 5, 7, 11, 13) and `has_ring_root` in the unramified cubic
ring at p = 7 on 50 seeded integer cubics.  The local-model layer is
`unramified_cubic_form(p)` over the primes 5 <= p < 1000.

    python3 bench/layers.py --base HEAD~1 --out BENCH_11.json

The base revision's `src/` is exported with `git archive` into a temporary
directory.  Each of ten rounds runs one child process per side, alternating
which side goes first; a child imports selmer3 from its side's `src/`,
builds the same seeded inputs and times every layer over five passes,
keeping the median pass.  The input-path layers read the ratio config and
a family document from parsed JSON objects (`from_json_obj`), and call
`cli.main` in process with stdout sent to /dev/null: a named preset, a
config file read from a temporary directory, and the CM closed form; and
30 seeded `classify --p P --d D` requests, primes 5 <= p < 1000.  The
Prym layers time `enumerate_classes(sigma-36-2-11, 20000)`, the member
walk `twistfamilies._sieve_walk` handing each member to the `prym`
command's row maker of its sign (at a base whose walk yields (d0,
factors), that walk with its rows made by `prym._Assembler.row`),
`family_report(prym-a4, 20000)`, its `to_json_obj`, the text report
(`family_report` with the command's rows), the text report together
with the text of the envelope carrying it, and the whole in-process
`prym` request at that height.  The scan layers time `global_report`
with the `scan` default config on 200 seeded members d, each with a
prime p < 1000 other than 3 at which v_p(d) is 2 or 4, the whole
in-process `scan --family-preset full-n3 --height 2000` request, and at
height 10^6
`admitted_masks` of a squarefree family with one condition mod 10^6 (five
seeded residues), `tk_partition` of full-n3 with the `scan` default
config and the whole in-process `scan` request; these three take up to
seconds, so they run three passes and no warm-up pass.  `tk_partition`
with the same config also runs on three congruence families: squarefree
with three seeded unit residues mod 36 at height 13,136 (about 1,000
members a sign), sixth-power-free with three seeded residues mod 10^7 at
10^7, and sixth-power-free admitting every class mod 2^16 at 10^6; the
last two run three passes and no warm-up pass.  The file records,
per layer and side, the median and quartiles of the round values (the
median pass of each round) and of the round minima (the fastest pass of
each round), and the ratios of their medians (this checkout over the
base), with nproc, the CPU model and the Python version.  Timings are raw
wall time from `time.perf_counter`, with the garbage collector left on.
The file also records `src_lines`, the line count of each module of
`src/selmer3` and their total, as `wc -l` counts them, for the base
export and for this checkout's `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from fractions import Fraction
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ROUNDS, PASSES, SEED = 10, 5, 20261018
# passes of a layer that takes seconds, which also skips the warm-up pass
SLOW_PASSES = 3
GRID = [(p, v, uc) for p in (5, 7) for v in range(5) for uc in ("square", "nonsquare")]


def _forms(rng: random.Random, n: int, bound: int) -> list[tuple[int, int, int, int]]:
    from selmer3.cubicforms import discriminant

    out = []
    while len(out) < n:
        coeffs = tuple(rng.randint(-bound, bound) for _ in range(4))
        if discriminant(*coeffs) != 0:
            out.append(coeffs)
    return out


def _sigma_members(rng: random.Random, n: int) -> list[int]:
    """n squarefree d, |d| < 10^9, with d = 2 or 11 (mod 36): members of
    the Prym preset's family."""
    from selmer3.twistfamilies import factorize

    out: list[int] = []
    while len(out) < n:
        d = rng.choice((1, -1)) * rng.randrange(1, 10**9)
        if d % 36 in (2, 11) and max(factorize(abs(d)).values()) == 1:
            out.append(d)
    return out


_FAMILY = {
    "schema": 1, "n": 3, "signs": ["+", "-"], "squarefree": True, "name": "bench",
    "conditions": [{"modulus": 36, "residues": [2, 11]}],
}

_RATIO_CONFIG = {
    "schema": 1,
    "descriptor": {
        "schema": 1, "m": 1, "kernel_character": "1",
        "global_summand_bit": True, "name": "bench",
        "kappa_orders": [
            {"r": 0, "unit_class": "any", "kappa": 1, "kappa_hat": 3},
            {"r": 1, "unit_class": "any", "kappa": 1, "kappa_hat": 1},
        ],
    },
    "profiles": [
        {"place": "real", "reduction": "good"},
        {"place": 3, "reduction": "bad", "override_exponent": 0},
        {"place": 2, "reduction": "bad", "override_exponent": 1},
    ],
}


def _input_layers(workdir: str, sink):
    """The input path: reading a config and a family document, looking a
    preset up, and whole in-process `ratio` and `classify` requests, which
    parse the arguments, name or read their input (`classify` proves its p
    a prime above 3) and write the envelope to `sink`."""
    from selmer3.cli import main
    from selmer3.prym import load_preset
    from selmer3.selmerratio import RatioConfig
    from selmer3.twistfamilies import TwistFamily, _primes_below

    rng = random.Random(SEED + 1)
    config_path = os.path.join(workdir, "ratio-config.json")
    with open(config_path, "w") as fh:
        json.dump(_RATIO_CONFIG, fh)
    prym_argvs = [["ratio", "--preset", "prym-a4", "--d", str(d)] for d in _sigma_members(rng, 50)]
    config_argvs = [
        ["ratio", "--config", config_path, "--d", str(rng.choice((1, -1)) * rng.randrange(2, 10**9))]
        for _ in range(50)
    ]
    cm_argvs = [["ratio", "--preset", "cm"]] * 50
    classify_argvs = []
    for p in rng.choices([p for p in _primes_below(1000) if p >= 5], k=30):
        d = rng.choice((1, -1)) * rng.randrange(1, 10**6) * p ** rng.choice((0, 1, 2, 4))
        classify_argvs.append(["classify", "--p", str(p), "--d", str(d)])

    def reads(cls, obj):
        def run():
            for _ in range(200):
                cls.from_json_obj(obj)
        return run

    def presets():
        for _ in range(200):
            load_preset("prym-a4")

    def requests(argvs):
        def run():
            with contextlib.redirect_stdout(sink):
                for argv in argvs:
                    if main(argv) != 0:
                        raise AssertionError(f"{argv} failed")
        return run

    return {
        "RatioConfig.from_json_obj": ("us/call", 200, reads(RatioConfig, _RATIO_CONFIG)),
        "TwistFamily.from_json_obj": ("us/call", 200, reads(TwistFamily, _FAMILY)),
        "load_preset(prym-a4)": ("us/call", 200, presets),
        "ratio --preset prym-a4 --d D": ("us/call", len(prym_argvs), requests(prym_argvs)),
        "ratio --config FILE --d D": ("us/call", len(config_argvs), requests(config_argvs)),
        "ratio --preset cm": ("us/call", len(cm_argvs), requests(cm_argvs)),
        "classify --p P --d D": ("us/call", len(classify_argvs), requests(classify_argvs)),
    }


def _prym_layers(sink):
    """The Prym family report at height 20,000 (about 2,000 rows), phase by
    phase: the family's member sieve, as classes and as the command's rows
    off the report's walk, building the report, its JSON object, the text
    report, the text report with the envelope that carries it, as `prym`
    writes them, and the whole in-process `prym` request."""
    import inspect
    from itertools import starmap

    from selmer3 import __version__, cli, prym, twistfamilies
    from selmer3.cli import _digest, _dumps, main
    from selmer3.prym import family_report, load_preset
    from selmer3.twistfamilies import enumerate_classes

    argv = ["prym", "--preset", "prym-a4", "--height", "20000"]
    config = load_preset("prym-a4")

    def envelope_text():
        report = family_report(config, 20000, cli._prym_row_text())
        envelope = {
            "schema": 1,
            "command": "prym",
            "config_digest": _digest({"preset": "prym-a4", "height": 20000}),
            "artifact_version": __version__,
            "result": {**report.summary_json_obj(), "rows": cli._Texts(report.rows)},
            "timing": {"seconds": 0.0},
        }
        return _dumps(envelope)

    def member_walk():
        masks = twistfamilies.admitted_masks(config.family, 20000)
        if "makers" in inspect.signature(twistfamilies._sieve_walk).parameters:
            return twistfamilies._sieve_walk(*masks, prym._Assembler(config).makers(masks[0], cli._prym_row_text()))
        return list(starmap(prym._Assembler(config, cli._prym_row_text()).row, twistfamilies._sieve_walk(*masks)))

    def request():
        with contextlib.redirect_stdout(sink):
            if main(argv) != 0:
                raise AssertionError(f"{argv} failed")

    return {
        "enumerate_classes(sigma-36-2-11, 20000)": ("ms/call", 1, lambda: enumerate_classes(config.family, 20000)),
        "prym member walk, command rows(sigma-36-2-11, 20000)": ("ms/call", 1, member_walk),
        "family_report(prym-a4, 20000)": ("ms/call", 1, lambda: family_report(config, 20000)),
        "PrymReport.to_json_obj": ("ms/call", 1, family_report(config, 20000).to_json_obj),
        "prym text report(prym-a4, 20000)": ("ms/call", 1, lambda: family_report(config, 20000, cli._prym_row_text())),
        "prym report and envelope text": ("ms/call", 1, envelope_text),
        "prym --preset prym-a4 --height 20000": ("ms/call", 1, request),
    }


def _scan_layers(sink):
    """The per-place report of members with a table-2 exponent, the masks
    of a family with one condition mod 10^6, the T_k partitions of three
    congruence families and of the full family at height 10^6, and whole
    in-process full-family scans at heights 2000 and 10^6.  The full
    family's two layers at 10^6 are last: the millions of objects they make
    and free change when the garbage collector runs in the layers after
    them."""
    from selmer3.cli import _TRIVIAL_CONFIG, main
    from selmer3.selmerratio import global_report, tk_partition
    from selmer3.twistfamilies import CongruenceCondition, TwistFamily, _primes_below, admitted_masks, family_preset

    rng = random.Random(SEED + 2)
    primes = [p for p in _primes_below(1000) if p != 3]
    members = []
    while len(members) < 200:
        p, u = rng.choice(primes), rng.randrange(1, 10**6)
        if u % p:
            members.append(rng.choice((1, -1)) * u * p ** rng.choice((2, 4)))
    full = family_preset("full-n3")
    profiles = list(_TRIVIAL_CONFIG.profiles)
    residues = frozenset(rng.sample(range(10**6), 5))
    one_condition = TwistFamily(n=3, conditions=(CongruenceCondition(10**6, residues),), squarefree=True)
    units = [r for r in range(36) if r % 2 and r % 3]
    mod_36 = TwistFamily(n=3, conditions=(CongruenceCondition(36, frozenset(rng.sample(units, 3))),), squarefree=True)
    mod_10_7 = TwistFamily(n=3, conditions=(CongruenceCondition(10**7, frozenset(rng.sample(range(10**7), 3))),))
    dense = TwistFamily(n=3, conditions=(CongruenceCondition(2**16, frozenset(range(2**16))),))

    def reports():
        for d in members:
            global_report(profiles, _TRIVIAL_CONFIG.descriptor, d)

    def partition(family=full, height=10**6):
        return lambda: tk_partition(family, _TRIVIAL_CONFIG.descriptor, profiles, height)

    def request(height):
        argv = ["scan", "--family-preset", "full-n3", "--height", str(height)]

        def run():
            with contextlib.redirect_stdout(sink):
                if main(argv) != 0:
                    raise AssertionError(f"{argv} failed")
        return run

    return {
        "global_report(table-2 member)": ("us/call", len(members), reports),
        "scan --family-preset full-n3 --height 2000": ("ms/call", 1, request(2000)),
        "admitted_masks(one condition mod 10^6, 10^6)": (
            "s/call", 1, lambda: admitted_masks(one_condition, 10**6), SLOW_PASSES,
        ),
        "tk_partition(one condition mod 36, 13136)": ("ms/call", 1, partition(mod_36, 13136)),
        "tk_partition(one condition mod 10^7, 10^7)": ("s/call", 1, partition(mod_10_7, 10**7), SLOW_PASSES),
        "tk_partition(every class mod 2^16, 10^6)": ("s/call", 1, partition(dense, 10**6), SLOW_PASSES),
        "tk_partition(full-n3, 10^6)": ("s/call", 1, partition(), SLOW_PASSES),
        "scan --family-preset full-n3 --height 1000000": ("s/call", 1, request(10**6), SLOW_PASSES),
    }


def _layers():
    """name -> (unit, calls per pass, function running one pass), with the
    pass count last for a layer that takes seconds."""
    from selmer3.cubicforms import BinaryCubicForm, form_to_ring, index_p_subrings, orbit_split, ring_to_form
    from selmer3.oracle import (
        CubicExtModel,
        algebra_class_of_form,
        enumerate_orbits,
        order_from_lattice,
        orders_of_index,
        scan_forms_low_valuation,
        verify_subring_bijection,
    )
    from selmer3.localclass import unramified_cubic_form
    from selmer3.padicroots import has_ring_root, has_zp_root
    from selmer3.twistfamilies import _primes_below

    rng = random.Random(SEED)
    forms = [BinaryCubicForm(*f) for f in _forms(rng, 200, 30)]
    rings = [form_to_ring(f) for f in forms]
    requests = [(f, ring, (5, 7, 11, 13)[i % 4]) for i, (f, ring) in enumerate(zip(forms, rings))]

    def fractions():
        return tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(3))

    products = [(ring, fractions(), fractions()) for ring in rings]
    lattices = [
        (ring, basis)
        for ring in rings[:60]
        for p in (5, 7, 11)
        for basis in orders_of_index(ring, p, 1)
    ]
    checks = [(ring, p) for ring in rings[:45] for p in (5, 7, 11)]
    maximal = form_to_ring(BinaryCubicForm(1, 0, 0, -7 * 2))
    witnesses = [
        (row.witness, p)
        for p, v, uc in GRID
        for row in enumerate_orbits(p, disc_val=v, unit_class=uc).rows
        if row.witness is not None
    ]
    root_rng = random.Random(SEED + 3)
    polys = [
        ([root_rng.randint(-10**6, 10**6) for _ in range(root_rng.randint(2, 4))], (5, 7, 11, 13)[i % 4])
        for i in range(200)
    ]
    cubics = [[root_rng.randint(-10**6, 10**6) for _ in range(3)] + [root_rng.randint(1, 10**6)] for _ in range(50)]
    unramified = CubicExtModel.unramified(7)
    forms_31 = [BinaryCubicForm(*f) for f in _forms(root_rng, 10, 1000)]
    tame_primes = [p for p in _primes_below(1000) if p >= 5]

    def round_trip():
        for f in forms:
            ring = form_to_ring(f)
            ring.discriminant()
            ring_to_form(ring)

    def forms_request():
        for f, ring, p in requests:
            index_p_subrings(ring, p)
            orbit_split(f, p)

    def validate():
        for ring in rings:
            ring.validate()

    def mul():
        for ring, x, y in products:
            ring.mul(x, y)

    def lattice():
        for ring, basis in lattices:
            order_from_lattice(ring, basis)

    def orders():
        orders_of_index(maximal, 7, 2)

    def bijection():
        for ring, p in checks:
            if not verify_subring_bijection(ring, p):
                raise AssertionError("subring bijection check failed")

    def grid():
        for p, v, uc in GRID:
            enumerate_orbits(p, disc_val=v, unit_class=uc)

    def algebra_classes():
        for form, p in witnesses:
            algebra_class_of_form(form, p)

    def algebra_classes_31():
        for form in forms_31:
            algebra_class_of_form(form, 31)

    def zp_roots():
        for coeffs, p in polys:
            has_zp_root(coeffs, p)

    def ring_roots():
        for coeffs in cubics:
            has_ring_root(unramified, coeffs)

    def unramified_forms():
        for p in tame_primes:
            unramified_cubic_form(p)

    return {
        "form/ring round trip": ("us/call", len(forms), round_trip),
        "forms request": ("us/call", len(requests), forms_request),
        "CubicRing.validate": ("us/call", len(rings), validate),
        "CubicRing.mul": ("us/call", len(products), mul),
        "order_from_lattice": ("us/call", len(lattices), lattice),
        "orders_of_index(p=7, j=2)": ("us/call", 1, orders),
        "verify_subring_bijection": ("us/call", len(checks), bijection),
        "orbit_grid": ("ms/grid", 1, grid),
        "algebra_class_of_form(grid witnesses)": ("us/call", len(witnesses), algebra_classes),
        "algebra_class_of_form(p=31)": ("us/call", len(forms_31), algebra_classes_31),
        "has_zp_root": ("us/call", len(polys), zp_roots),
        "has_ring_root(unramified(7))": ("us/call", len(cubics), ring_roots),
        "unramified_cubic_form(5 <= p < 1000)": ("us/call", len(tame_primes), unramified_forms),
        "scan_forms_low_valuation(5)": ("ms/call", 1, lambda: scan_forms_low_valuation(5)),
        "scan_forms_low_valuation(7)": ("ms/call", 1, lambda: scan_forms_low_valuation(7)),
        "scan_forms_low_valuation(11)": ("s/call", 1, lambda: scan_forms_low_valuation(11), SLOW_PASSES),
        "scan_forms_low_valuation(13)": ("s/call", 1, lambda: scan_forms_low_valuation(13), SLOW_PASSES),
    }


def _child(src: str) -> None:
    sys.path.insert(0, src)
    scale = {"us/call": 1e6, "ms/call": 1e3, "ms/grid": 1e3, "s/call": 1}
    out = {}
    with tempfile.TemporaryDirectory() as workdir, open(os.devnull, "w") as sink:
        layers = {**_layers(), **_input_layers(workdir, sink), **_prym_layers(sink), **_scan_layers(sink)}
        for name, (unit, calls, run, *slow) in layers.items():
            if not slow:
                run()  # warm caches and lazy set-up
            times = []
            for _ in range(slow[0] if slow else PASSES):
                start = time.perf_counter()
                run()
                times.append(time.perf_counter() - start)
            out[name] = {
                "unit": unit,
                "calls": calls,
                "passes": len(times),
                "value": statistics.median(times) / calls * scale[unit],
                "min": min(times) / calls * scale[unit],
            }
    print(json.dumps(out))


def _git(*args: str, text: bool = True):
    proc = subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True, text=text)
    return proc.stdout.strip() if text else proc.stdout


def _export_src(rev: str, dest: str) -> str:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev, "src", text=False))) as tar:
        tar.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def _src_lines(src: str) -> dict[str, int]:
    """Lines of each module of the package under `src`, and their total."""
    lines = {path.name: path.read_bytes().count(b"\n") for path in sorted(Path(src, "selmer3").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": round(median, 3),
        "q1": round(q1, 3),
        "q3": round(q3, 3),
        "runs": [round(v, 3) for v in values],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD~1", help="git revision to compare against")
    ap.add_argument("--out", help="path of the JSON file to write (required)")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        _child(args.child)
        return
    if not args.out:
        ap.error("--out is required")

    runs: dict[str, dict[str, list[float]]] = {"base": {}, "tree": {}}
    minima: dict[str, dict[str, list[float]]] = {"base": {}, "tree": {}}
    meta: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        sources = {"base": _export_src(args.base, tmp), "tree": str(REPO / "src")}
        src_lines = {side: _src_lines(src) for side, src in sources.items()}
        for r in range(ROUNDS):
            for side in ("base", "tree") if r % 2 == 0 else ("tree", "base"):
                cmd = [sys.executable, __file__, "--child", sources[side]]
                child = subprocess.run(cmd, check=True, capture_output=True, text=True)
                result = json.loads(child.stdout)
                for name, row in result.items():
                    runs[side].setdefault(name, []).append(row["value"])
                    minima[side].setdefault(name, []).append(row["min"])
                    meta[name] = {"unit": row["unit"], "calls_per_pass": row["calls"], "passes": row["passes"]}

    layers = {}
    for name, info in meta.items():
        base, tree = _summary(runs["base"][name]), _summary(runs["tree"][name])
        base["round_min"], tree["round_min"] = _summary(minima["base"][name]), _summary(minima["tree"][name])
        layers[name] = {
            **info,
            "base": base,
            "tree": tree,
            "ratio": round(tree["median"] / base["median"], 3),
            "ratio_of_minima": round(tree["round_min"]["median"] / base["round_min"]["median"], 3),
        }
    report = {
        "harness": "bench/layers.py",
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
        },
        "base": {"rev": args.base, "commit": _git("rev-parse", args.base)},
        "tree": {
            "commit": _git("rev-parse", "HEAD"),
            "src_dirty": bool(_git("status", "--porcelain", "--", "src")),
        },
        "method": {
            "rounds": ROUNDS,
            "passes": PASSES,
            "seed": SEED,
            "value": "median pass per round, per call; round_min: fastest pass per round; "
            "summaries over rounds; ratio = tree/base of the medians",
        },
        "src_lines": src_lines,
        "layers": layers,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"{'src lines':46s} {src_lines['base']['total']:>10d} -> {src_lines['tree']['total']:>10d}")
    for name, row in layers.items():
        base, tree = row["base"]["median"], row["tree"]["median"]
        print(
            f"{name:46s} {base:>10.2f} -> {tree:>10.2f} {row['unit']}"
            f"  ({row['ratio']:.2f}x, minima {row['ratio_of_minima']:.2f}x)"
        )


if __name__ == "__main__":
    main()
