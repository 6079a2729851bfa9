"""Command-line front end: reproducible report generation.

Every command prints a single JSON envelope to stdout: the command, a
digest of the exact inputs, the artifact version, the result payload, and
timing.  The payload is deterministic byte for byte on identical inputs
(stable key order, rationals as num/den strings); timing lives outside the
payload.  The envelope's text is what json.dumps(..., sort_keys=True,
indent=2) writes, sent piece by piece.  `prym` writes a row's text as the
sieve walk reaches the member, splicing d and primes into templates.
Exit codes: 0 success, 1 the reader closed the pipe, 2 usage, 3 domain
error or exhausted budget, 4 incomplete configuration.  An input file that
cannot be read or parsed, lacks a key or holds a value of the wrong JSON
kind exits 2, naming the file and the JSON path (`errors.Document`); a
value of the right kind outside its domain exits 3.
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
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import BudgetError, DocumentError, IncompleteConfigError, Selmer3Error
from .localclass import classify_integral, h1_dims, integral_representative
from .localfield import Place, tame_place
from .prym import PrymLocalAssembly, assemble_local_exponents, family_report, good_place, load_preset
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
# The most bytes of an input file; a 9.8 MB family scans in 0.9 s at 130 MB (Python 3.11, 2 cores).
MAX_INPUT_BYTES = 10**7


def _load(path: str, cls):
    """(document of class `cls`, JSON object) of a UTF-8 input file, read into a buffer of its size (a pipe's:
    the bound): BudgetError past `MAX_INPUT_BYTES` (10^7 bytes), DocumentError if unreadable or malformed."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(min(os.fstat(fh.fileno()).st_size or MAX_INPUT_BYTES, MAX_INPUT_BYTES) + 1)
        if len(data) > MAX_INPUT_BYTES:
            raise BudgetError(f"{path} holds more than the maximum {MAX_INPUT_BYTES} bytes")
        obj = json.loads(data.decode())
    except OSError as err:
        raise DocumentError(f"cannot read {path}: {err.strerror}") from None
    except (ValueError, RecursionError) as err:  # not UTF-8 or JSON, a NUL in the path, nested too deep
        raise DocumentError(f"cannot parse {path}: {err}") from None
    try:
        return cls.from_json_obj(obj), obj
    except DocumentError as err:
        raise DocumentError(f"{path} is malformed: {err}") from None


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(inputs) -> str:
    return hashlib.sha256(_canonical(inputs).encode()).hexdigest()


class _Texts(list):
    """A list's items as JSON texts written for their depth, one piece each."""


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
    """Append the text of obj at nesting depth `depth` to out, byte for
    byte as json.dumps(obj, sort_keys=True, indent=2) writes it there; with
    `indent` the stdlib falls back to its pure-Python encoder, which this
    outruns about twofold.  Scalars in a container are written in place, a
    list of ints by one join, the texts of a `_Texts` as they are."""
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
    while len(_NEWLINES) <= depth + 1:  # a writer may enter at any depth
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
    elif type(obj) is _Texts:
        append("[" + inner)
        out += chain.from_iterable(zip(obj, repeat(sep)))
        out[-1] = _NEWLINES[depth] + "]"  # in place of the last separator
    elif type(obj[0]) is int and set(map(type, obj)) == {int}:  # such as a T_k cell's members
        append("[" + inner + sep.join(map(int.__repr__, obj)) + _NEWLINES[depth] + "]")
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


def _dumps(obj, depth: int = 0) -> str:
    """The text of obj at nesting depth `depth` (see `_write_json`)."""
    out: list[str] = []
    _write_json(obj, out, depth)
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
    out: list[str] = []
    _write_json(envelope, out, 0)
    sys.stdout.writelines([*out, "\n"])  # piece by piece: a large envelope is never joined


# The depth of a row in the `prym` envelope: envelope > result > rows > row.
_ROW_DEPTH = 3


def _prym_row_text():
    """A row factory for `family_report`: row(skeleton) makes a member's
    text at its depth in the `prym` envelope from its height and primes.
    Rows of one skeleton differ only in d and their good places, good places
    only in their label.  So a skeleton's row is written once, with a NUL
    string for d and for one more place, and cut there into head (the sign
    of d ending it), middle and tail; a good place once, cut around its
    label, which joins a row's primes above 3.  The writer escapes every
    NUL, as \u0000, so that text marks only the holes."""
    sep = ",\n" + "  " * (_ROW_DEPTH + 2)  # before each place of a row but the first
    pre, post = (sep + _dumps(good_place("\0").to_json_obj(), _ROW_DEPTH + 2)).split("\\u0000")  # quotes kept
    between = post + pre

    def row(skeleton):
        obj = PrymLocalAssembly("\0", skeleton).to_json_obj()
        obj["places"].append("\0")
        head, middle, tail = _dumps(obj, _ROW_DEPTH).split('"\\u0000"')
        head, middle = head + "-" * (skeleton.sign < 0), middle.removesuffix(sep)  # less the hole place's
        opened, closed = middle + pre, post + tail
        return lambda h, primes: (
            f"{head}{h}{opened}{between.join([f'{p}' for p in primes if p > 3])}{closed}"
            if primes and primes[-1] > 3
            else f"{head}{h}{middle}{tail}"
        )

    return row


# The config of `scan` without --config, "trivial-overrides": kernel of
# square class 1, split extension classes, ratio 1 at the place over 3.
_TRIVIAL_CONFIG = RatioConfig(
    IsogenyDescriptor(
        m=1,
        global_summand_bit=True,
        kappa_orders=(KappaEntry(0, "any", 1, 1), KappaEntry(1, "any", 1, 1)),
        name="trivial-overrides",
    ),
    (
        LocalPlaceProfile(Place.real()),
        LocalPlaceProfile(Place.finite(3), reduction="bad", override_exponent=0),
    ),
)


def cmd_classify(args, started: float) -> int:
    d = Fraction(args.d)
    place = tame_place(args.p, "classification")  # the request's one primality proof
    classes = classify_integral(place, d)
    dims = h1_dims(place, d)
    rows = []
    for cls in classes:
        obj = cls.to_json_obj()
        if cls.integral:
            obj["representative"] = integral_representative(place, d, cls).to_json_obj()
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


def _cm_result(g: int, complex_places: int) -> dict:
    check = cm_ratio_check(g, complex_places)
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
    if args.preset == "cm":  # the CM closed form at g = 1 over Q(zeta_3)
        _emit("ratio", {"preset": "cm"}, _cm_result(g=1, complex_places=1), started)
        return EXIT_OK
    if args.d is None:  # argparse cannot tie --d to the source, so this is checked here
        _parser().error(f"ratio --{'preset' if args.preset else 'config'} requires --d")
    if args.preset is not None:  # argparse gives it or --config, never both
        config = load_preset(args.preset)
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
    config, obj = _load(args.config, RatioConfig)
    report = global_report(list(config.profiles), config.descriptor, Fraction(args.d))
    _emit("ratio", {"config": obj, "d": args.d}, report.to_json_obj(), started)
    return EXIT_OK


def _load_family(args) -> tuple[TwistFamily, dict]:
    if args.family_preset is not None:  # argparse gives it or --family, never both
        return family_preset(args.family_preset), {"family_preset": args.family_preset}
    family, obj = _load(args.family, TwistFamily)
    return family, {"family": obj}


def cmd_scan(args, started: float) -> int:
    family, family_input = _load_family(args)
    if args.config:
        config, _ = _load(args.config, RatioConfig)
        config_input: object = config.to_json_obj()
    else:
        config = _TRIVIAL_CONFIG
        config_input = "trivial-overrides"
    cells = tk_partition(family, config.descriptor, list(config.profiles), args.height)
    ordered = [cells[k] for k in sorted(cells)]
    if args.format == "csv":  # the scalar fields of each cell, None as empty
        cols = ["k", "count", "exact_density", "avg_selmer", "avg_dim_bound", "dim_density_bound"]
        print(",".join(cols))
        for cell in ordered:
            print(",".join("" if (v := getattr(cell, c)) is None else str(v) for c in cols))
        return EXIT_OK
    result = {
        "height_bound": args.height,
        "family_name": family.name,
        "cells": [cell.to_json_obj() for cell in ordered],
        "member_count": sum(c.count for c in ordered),
    }
    inputs = {**family_input, "config": config_input, "height": args.height}
    _emit("scan", inputs, result, started)
    return EXIT_OK


def cmd_prym(args, started: float) -> int:
    report = family_report(load_preset(args.preset), args.height, _prym_row_text())  # refuses before any output
    inputs = {"preset": args.preset, "height": args.height}
    _emit("prym", inputs, {**report.summary_json_obj(), "rows": _Texts(report.rows)}, started)
    return EXIT_OK


# The most digits int prints (its str conversion limit): the envelope prints d.
_DIGIT_LIMIT = 4300


def _digits(text: str) -> int:
    return sum(map(str.isdecimal, text))


def _is_rational(text: str) -> bool:
    """Whether text is an exact rational that Fraction reads, judged first
    by the text alone, as the document reader's `errors._RATIONAL` is: no
    exponent ("1e999999999" names a billion-digit integer), and at most
    4,300 digits in the numerator and the denominator it spells (a decimal
    with f places has the denominator 10^f, of f + 1 digits)."""
    if "e" in text or "E" in text:
        return False
    if len(text) > _DIGIT_LIMIT:  # a shorter text spells no more digits
        num, _, den = text.partition("/")
        places = num.partition(".")[2]
        if max(_digits(num), _digits(places) + 1, _digits(den)) > _DIGIT_LIMIT:
            return False
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _rational_text(text: str) -> str:
    """argparse type of --d: an exact rational such as 25, -3/4 or 0.5,
    without an exponent and within 4,300 digits.  The text is kept as
    given, since it enters the config digest."""
    if not _is_rational(text):
        raise argparse.ArgumentTypeError(
            f"not a rational number of at most {_DIGIT_LIMIT} digits without an exponent: {text!r}"
        )
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
    source = p_ratio.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=str, help="ratio config JSON file")
    source.add_argument("--preset", type=str, help="named preset (cm, prym-a4)")
    p_ratio.add_argument("--d", type=_rational_text, help="twist parameter (rational)")

    p_scan = sub.add_parser("scan", help="T_k partition of a twist family")
    family = p_scan.add_mutually_exclusive_group(required=True)
    family.add_argument("--family", type=str, help="family JSON file")
    family.add_argument("--family-preset", type=str, help="named family preset")
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
    except DocumentError as err:
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
