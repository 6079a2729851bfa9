"""Command-line front end: reproducible report generation.

Every command prints a single JSON envelope to stdout: the command, a
digest of the exact inputs, the artifact version, the result payload, and
timing.  The payload is deterministic byte for byte on identical inputs
(stable key order, rationals as num/den strings); timing lives outside the
payload.  Exit codes: 0 success, 1 the reader closed the pipe, 2 usage,
3 domain error, 4 incomplete configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from functools import cache
from importlib import resources
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import DomainError, IncompleteConfigError, Selmer3Error
from .localclass import classify_integral, h1_dims, integral_representative
from .localfield import Place
from .prym import family_report, load_preset
from .selmerratio import (
    IsogenyDescriptor,
    KappaEntry,
    LocalPlaceProfile,
    RatioConfig,
    cm_ratio_check,
    global_report,
    tk_partition,
)
from .twistfamilies import TwistFamily, family_preset

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_INCOMPLETE = 4


class _InputFileError(Exception):
    """An input file that cannot be read or does not hold JSON; a usage
    error."""


def _read_json(path: str) -> dict:
    """The parsed JSON object of an input file."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as err:
        raise _InputFileError(f"cannot read {path}: {err.strerror}") from None
    except ValueError as err:  # malformed JSON or text, or a NUL in the path
        raise _InputFileError(f"cannot parse {path}: {err}") from None
    if not isinstance(obj, dict):
        raise _InputFileError(f"{path} holds a JSON {type(obj).__name__}, not an object")
    return obj


def _load(path: str, build):
    """(build(obj), obj) for the JSON object in an input file.  A library
    error keeps its own exit code; any other failure of `build` means the
    object has the wrong shape, a usage error."""
    obj = _read_json(path)
    try:
        return build(obj), obj
    except Selmer3Error:
        raise
    except Exception as err:
        raise _InputFileError(f"{path} is malformed: {type(err).__name__}: {err}") from None


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(inputs) -> str:
    return hashlib.sha256(_canonical(inputs).encode()).hexdigest()


# The text of the common JSON scalars, as json.dumps writes them.
_LEAF = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
# "\n" plus the indentation of each nesting depth, built once per depth.
_NEWLINES = ["\n"]


def _write_json(obj, out: list[str], depth: int) -> None:
    """Append the text of obj to out, byte for byte as json.dumps(obj,
    sort_keys=True, indent=2) writes it; with `indent` the stdlib falls
    back to its pure-Python encoder, which this outruns about twofold.
    Scalars inside a container are written in place, without a call."""
    leaf = _LEAF.get(type(obj))
    if leaf is not None:
        out.append(leaf(obj))
        return
    if not isinstance(obj, (dict, list, tuple)):
        out.append(json.dumps(obj))  # floats, scalar subclasses, or json's TypeError
        return
    if not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
        return
    if len(_NEWLINES) <= depth + 1:
        _NEWLINES.append(_NEWLINES[-1] + "  ")
    inner = _NEWLINES[depth + 1]
    sep = "," + inner
    append = out.append
    get = _LEAF.get
    if isinstance(obj, dict):
        append("{")
        for key, value in sorted(obj.items()):
            if type(key) is not str:
                key = json.dumps(key)  # json's text for int, float, bool and None keys
            append(inner + encode_basestring_ascii(key) + ": ")
            inner = sep
            leaf = get(type(value))
            if leaf is not None:
                append(leaf(value))
            else:
                _write_json(value, out, depth + 1)
        append(_NEWLINES[depth] + "}")
    else:
        append("[")
        for value in obj:
            append(inner)
            inner = sep
            leaf = get(type(value))
            if leaf is not None:
                append(leaf(value))
            else:
                _write_json(value, out, depth + 1)
        append(_NEWLINES[depth] + "]")


def _dumps(obj) -> str:
    out: list[str] = []
    _write_json(obj, out, 0)
    return "".join(out)


def _emit(command: str, inputs, result, started: float) -> None:
    envelope = {
        "schema": 1,
        "command": command,
        "config_digest": _digest(inputs),
        "artifact_version": __version__,
        "result": result,
        "timing": {"seconds": round(time.perf_counter() - started, 6)},
    }
    print(_dumps(envelope))


def _default_ratio_config() -> RatioConfig:
    # trivial overrides: kernel of square class 1, split extension classes,
    # ratio 1 at the place over 3
    desc = IsogenyDescriptor(
        m=1,
        global_summand_bit=True,
        kappa_orders=(KappaEntry(0, "any", 1, 1), KappaEntry(1, "any", 1, 1)),
        name="trivial-overrides",
    )
    profiles = (
        LocalPlaceProfile(Place.real()),
        LocalPlaceProfile(Place.finite(3), reduction="bad", override_exponent=0),
    )
    return RatioConfig(desc, profiles)


def cmd_classify(args, started: float) -> int:
    d = Fraction(args.d)
    classes = classify_integral(args.p, d)
    dims = h1_dims(Place.finite(args.p), d)
    rows = []
    for cls in classes:
        obj = cls.to_json_obj()
        if cls.integral:
            obj["representative"] = integral_representative(args.p, d, cls).to_json_obj()
        rows.append(obj)
    result = {
        "p": args.p,
        "d": str(d),
        "h1_dim": dims[0],
        "h1_dim_unramified": dims[1],
        "classes": rows,
    }
    _emit("classify", {"p": args.p, "d": str(d)}, result, started)
    return EXIT_OK


def _cm_result(obj: dict) -> dict:
    check = cm_ratio_check(int(obj["g"]), int(obj["complex_places"]))
    per_isogeny_arch = check.archimedean_exponent // (2 * check.g)
    per_isogeny_over3 = check.three_adic_exponent // (2 * check.g)
    return {
        "kind": "cm-closed-form",
        "cm_check": check.to_json_obj(),
        "pi_report": {
            "places": [
                {"place": f"complex x {check.complex_places}", "k": per_isogeny_arch},
                {"place": "over-3", "k": per_isogeny_over3},
            ],
            "global_k": check.pi_exponent,
        },
    }


def cmd_ratio(args, started: float) -> int:
    if args.preset and args.config:
        raise DomainError("give either --preset or --config, not both")
    if args.preset == "cm":
        text = resources.files("selmer3.presets").joinpath("cm.json").read_text()
        obj = json.loads(text)
        if obj.get("schema") != 1:
            raise DomainError("unsupported cm-preset schema")
        result = _cm_result(obj)
        _emit("ratio", {"preset": "cm"}, result, started)
        return EXIT_OK
    if args.preset:
        config = load_preset(args.preset)
        if args.d is None:
            raise DomainError("--d is required with a prym preset")
        from .prym import assemble_local_exponents

        assembly = assemble_local_exponents(config, Fraction(args.d))
        result = {
            "kind": "prym-pi",
            "assembly": assembly.to_json_obj(),
            "pi": {
                "places": [
                    {"place": p.place_label, "k": p.pair[0] + p.pair[1], "provenance": p.provenance}
                    for p in assembly.places
                ],
                "global_k": assembly.k_pi,
                "parity": assembly.parity,
            },
        }
        _emit("ratio", {"preset": args.preset, "d": args.d}, result, started)
        return EXIT_OK
    if not args.config:
        raise DomainError("--config or --preset is required")
    if args.d is None:
        raise DomainError("--d is required with --config")
    config, obj = _load(args.config, RatioConfig.from_json_obj)
    report = global_report(list(config.profiles), config.descriptor, Fraction(args.d))
    _emit("ratio", {"config": obj, "d": args.d}, report.to_json_obj(), started)
    return EXIT_OK


def _load_family(args) -> tuple[TwistFamily, dict]:
    if args.family and args.family_preset:
        raise DomainError("give either --family or --family-preset, not both")
    if args.family_preset:
        return family_preset(args.family_preset), {"family_preset": args.family_preset}
    if not args.family:
        raise DomainError("--family or --family-preset is required")
    family, obj = _load(args.family, TwistFamily.from_json_obj)
    return family, {"family": obj}


def cmd_scan(args, started: float) -> int:
    family, family_input = _load_family(args)
    if args.config:
        config, _ = _load(args.config, RatioConfig.from_json_obj)
        config_input: object = config.to_json_obj()
    else:
        config = _default_ratio_config()
        config_input = "trivial-overrides"
    cells = tk_partition(family, config.descriptor, list(config.profiles), args.height)
    cell_objs = [cells[k].to_json_obj() for k in sorted(cells)]
    result = {
        "height_bound": args.height,
        "family_name": family.name,
        "cells": cell_objs,
        "member_count": sum(c.count for c in cells.values()),
    }
    inputs = {**family_input, "config": config_input, "height": args.height}
    if args.format == "csv":
        _emit_csv(cell_objs)
        return EXIT_OK
    _emit("scan", inputs, result, started)
    return EXIT_OK


def _emit_csv(cell_objs) -> None:
    cols = ["k", "count", "exact_density", "avg_selmer", "avg_dim_bound", "dim_density_bound"]
    print(",".join(cols))
    for cell in cell_objs:
        print(",".join("" if cell[c] is None else str(cell[c]) for c in cols))


def cmd_prym(args, started: float) -> int:
    config = load_preset(args.preset)
    report = family_report(config, args.height)
    _emit("prym", {"preset": args.preset, "height": args.height}, report.to_json_obj(), started)
    return EXIT_OK


def _is_rational(text: str) -> bool:
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _rational_text(text: str) -> str:
    """argparse type of --d: an exact rational such as 25, -3/4 or 0.5.
    The text is kept as given, since it enters the config digest."""
    if not _is_rational(text):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")
    return text


def _attach_negative_d(argv: list[str]) -> list[str]:
    """Write `--d -3/4` as `--d=-3/4`.  argparse takes a token that starts
    with '-' for an option unless it is a plain negative integer or
    decimal, so a negative fraction after --d would lose its flag."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--d" and tok.startswith("-") and _is_rational(tok):
            out[-1] = f"--d={tok}"
        else:
            out.append(tok)
    return out


def _positive_int(text: str) -> int:
    """argparse type of --height: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selmer3",
        description="Exact local classification of binary cubic forms and "
        "Selmer-ratio reports for 3-isogenies of sextic twist families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="local orbit classification at p")
    p_classify.add_argument("--p", type=int, required=True, help="prime > 3")
    p_classify.add_argument("--d", type=_rational_text, required=True, help="twist parameter (rational)")

    p_ratio = sub.add_parser("ratio", help="per-place Selmer-ratio report")
    p_ratio.add_argument("--config", type=str, help="ratio config JSON file")
    p_ratio.add_argument("--preset", type=str, help="named preset (cm, prym-a4)")
    p_ratio.add_argument("--d", type=_rational_text, help="twist parameter (rational)")

    p_scan = sub.add_parser("scan", help="T_k partition of a twist family")
    p_scan.add_argument("--family", type=str, help="family JSON file")
    p_scan.add_argument("--family-preset", type=str, help="named family preset")
    p_scan.add_argument("--config", type=str, help="ratio config JSON file")
    p_scan.add_argument("--height", type=_positive_int, required=True)
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")

    p_prym = sub.add_parser("prym", help="family report for a Prym preset")
    p_prym.add_argument("--preset", type=str, required=True)
    p_prym.add_argument("--height", type=_positive_int, required=True)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first `main` call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(_attach_negative_d(sys.argv[1:] if argv is None else argv))
    started = time.perf_counter()
    handlers = {
        "classify": cmd_classify,
        "ratio": cmd_ratio,
        "scan": cmd_scan,
        "prym": cmd_prym,
    }
    try:
        status = handlers[args.command](args, started)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return status
    except BrokenPipeError:
        # the reader is gone: the shutdown flush then goes to devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except _InputFileError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except IncompleteConfigError as err:
        print(f"error: incomplete configuration: {err}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except Selmer3Error as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
