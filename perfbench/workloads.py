"""The three workloads.  Each is a closed loop: one client in one process
sends a request only after the previous one returned.  A workload

* writes its seeded inputs into its working directory (`make_inputs`),
* imports selmer3 and parses presets and input files (`setup`, the part
  timed as setup_s in a fresh interpreter),
* yields its requests in cycles of a fixed kind pattern (`cycles`),
* runs one request (`run`, the timed part) and checks its output
  against the benchmark's own expectations (`check`).

selmer3 is imported inside functions only, so that importing this module
costs nothing that setup_s should see.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction

import gen


class RequestFailed(Exception):
    """A request's output failed its correctness check."""


def call_cli(argv: list[str]) -> str:
    """One in-process `selmer3` command; returns what it printed.  A
    nonzero exit is a failed request."""
    from selmer3 import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RequestFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise RequestFailed(what)


def valuation(x, p: int) -> int:
    n = Fraction(x)
    v, num, den = 0, n.numerator, n.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def percentile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def median_ms(samples) -> float:
    return statistics.median(s.seconds * 1e3 for s in samples)


def median_cycle_s(samples, length: int) -> float:
    """Median over whole cycles of the summed request time."""
    return statistics.median(
        sum(s.seconds for s in samples[i:i + length]) for i in range(0, len(samples), length)
    )


@dataclass(slots=True)
class Request:
    """One request: its kind (one of the workload's KINDS), what it needs
    to run, and what its check needs."""

    kind: str
    args: object
    expected: object = None


@dataclass(slots=True)
class Outcome:
    """Output of a checked request: the bytes the CLI wrote, the family
    members or twist parameters it reported on, and the payload to digest."""

    bytes_out: int = 0
    members: int = 0
    payload: object = None


class Workload:
    """Interface of the three workloads; see the module docstring."""

    name = ""
    KINDS: tuple[str, ...] = ()
    CYCLE_LENGTH = 4  # requests per cycle
    TRACE_CYCLES = 1  # cycles in the fixed list of a traced run

    def close(self) -> None:
        """Release what make_inputs opened."""

    def named_metrics(self, samples) -> list[tuple[str, float, str, int]]:
        """The workload's metrics under their descriptive names, as
        (name, value, unit, sample count)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# family-scan
# ----------------------------------------------------------------------


class FamilyScan(Workload):
    """The paper's headline use: T_k partitions and the Prym family report
    at a height bound, through in-process `cli.main` calls."""

    name = "family-scan"
    KINDS = ("scan-squarefree", "scan-full", "scan-family", "prym")
    SQUAREFREE_HEIGHT = 2500
    FULL_HEIGHT = 2000
    PRYM_HEIGHT = 20000

    def make_inputs(self, workdir: str, seed: int) -> None:
        family = gen.congruence_family(random.Random(seed))
        self.family_path = os.path.join(workdir, "family.json")
        gen.write_json(self.family_path, family)
        cond = family["conditions"][0]
        conditions = [(cond["modulus"], frozenset(cond["residues"]))]
        self._requests = [
            Request("scan-squarefree",
                    ["scan", "--family-preset", "squarefree-n3", "--height", str(self.SQUAREFREE_HEIGHT)],
                    gen.family_members(self.SQUAREFREE_HEIGHT, True)),
            Request("scan-full",
                    ["scan", "--family-preset", "full-n3", "--height", str(self.FULL_HEIGHT)],
                    gen.family_members(self.FULL_HEIGHT, False)),
            Request("scan-family",
                    ["scan", "--family", self.family_path, "--height", str(family["height_bound"])],
                    gen.family_members(family["height_bound"], True, conditions)),
            Request("prym",
                    ["prym", "--preset", "prym-a4", "--height", str(self.PRYM_HEIGHT)],
                    gen.family_members(self.PRYM_HEIGHT, True, [(36, frozenset({2, 11}))])),
        ]
        for req in self._requests:
            req.expected.sort()

    def setup(self, workdir: str) -> None:
        import selmer3.cli  # noqa: F401
        from selmer3.prym import load_preset
        from selmer3.twistfamilies import TwistFamily

        load_preset("prym-a4")
        with open(os.path.join(workdir, "family.json")) as fh:
            TwistFamily.from_json(fh.read())

    def cycles(self):
        while True:
            yield self._requests

    def run(self, req: Request):
        return call_cli(req.args)

    def check(self, req: Request, text: str) -> Outcome:
        result = json.loads(text)["result"]
        want = req.expected
        expect(result["member_count"] == len(want), "member count differs from the sieve")
        if req.kind == "prym":
            expect(sorted(r["d"] for r in result["rows"]) == want, "prym members differ")
            expect(all(r["k_pi"] % 2 == 1 for r in result["rows"]), "even k_pi in the Prym report")
            expect(result["aggregate"] == {"avg_rank_bound": "7/3", "rank_le_1_density": "1/3",
                                           "point_bound": 5}, "Prym aggregates are not (7/3, 1/3, 5)")
        else:
            cells = result["cells"]
            expect(sum(c["count"] for c in cells) == result["member_count"], "cell counts do not sum")
            members = sorted(d for c in cells for d in c["members"])
            expect(members == want, "cell members differ from the sieve")
        return Outcome(len(text), result["member_count"], result)

    def named_metrics(self, samples):
        rows = []
        for label, kinds in (("scan", self.KINDS[:3]), ("prym", ("prym",))):
            group = [s for s in samples if s.kind in kinds]
            rate = sum(s.members for s in group) / sum(s.seconds for s in group)
            rows.append((f"family.{label}_members_per_s", rate, "members/s", len(group)))
        return rows


# ----------------------------------------------------------------------
# point-queries
# ----------------------------------------------------------------------


def projective_roots(coeffs: list[int], p: int) -> tuple[int, int]:
    """(zeros in P^1(F_p), simple zeros) of an integral binary cubic, by
    brute force.  A zero is multiple iff both partials vanish there
    (p > 3, by Euler's relation)."""
    a, b, c, d = coeffs
    roots = simple = 0
    for x, y in [(x, 1) for x in range(p)] + [(1, 0)]:
        if (a * x**3 + b * x * x * y + c * x * y * y + d * y**3) % p:
            continue
        roots += 1
        fx = 3 * a * x * x + 2 * b * x * y + c * y * y
        fy = b * x * x + 2 * c * x * y + 3 * d * y * y
        if fx % p or fy % p:
            simple += 1
    return roots, simple


class PointQueries(Workload):
    """A seeded stream of single, unrelated requests in fixed proportions:
    per-d ratio reports, the Prym report of one twist, local
    classifications, and a cubic form/ring round trip."""

    name = "point-queries"
    KINDS = ("ratio", "prym", "classify", "forms")
    CYCLE_LENGTH = len(gen.QUERY_PATTERN)
    TRACE_CYCLES = 30

    def make_inputs(self, workdir: str, seed: int) -> None:
        rng = random.Random(seed)
        self.config_path = os.path.join(workdir, "ratio-config.json")
        gen.write_json(self.config_path, gen.ratio_config(rng))
        self._stream = gen.query_stream(rng.randrange(2**63))
        # one JSON line per request as it is drawn, so the record costs the
        # measured process no memory
        self._issued = open(os.path.join(workdir, "queries.jsonl"), "w")

    def setup(self, workdir: str) -> None:
        import selmer3.cli  # noqa: F401
        import selmer3.cubicforms  # noqa: F401
        from selmer3.prym import load_preset
        from selmer3.selmerratio import RatioConfig

        load_preset("prym-a4")
        with open(os.path.join(workdir, "ratio-config.json")) as fh:
            RatioConfig.from_json(fh.read())

    def cycles(self):
        while True:
            yield [self._request(next(self._stream)) for _ in gen.QUERY_PATTERN]

    def _request(self, q: dict) -> Request:
        self._issued.write(json.dumps({k: (list(v.items()) if k == "factors" else v) for k, v in q.items()}) + "\n")
        kind = q["kind"]
        if kind == "ratio":
            return Request(kind, ["ratio", "--config", self.config_path, "--d", str(gen.twist_value(q))], q)
        if kind == "prym":
            return Request(kind, ["ratio", "--preset", "prym-a4", "--d", str(gen.twist_value(q))], q)
        if kind == "classify":
            d = q["u"] * q["p"] ** q["v"]
            return Request(kind, ["classify", "--p", str(q["p"]), "--d", str(d)], q)
        return Request(kind, q, q)

    def close(self) -> None:
        self._issued.close()

    def named_metrics(self, samples):
        ms = [s.seconds * 1e3 for s in samples]
        rows = [("query.p50_ms", statistics.median(ms), "ms", len(ms)),
                ("query.p99_ms", percentile(ms, 0.99), "ms", len(ms))]
        for kind in self.KINDS:
            group = [s for s in samples if s.kind == kind]
            rows.append((f"query.{kind}_p50_ms", median_ms(group), "ms", len(group)))
        return rows

    def run(self, req: Request):
        if req.kind != "forms":
            return call_cli(req.args)
        from selmer3.cubicforms import (
            BinaryCubicForm, form_to_ring, index_p_subrings, orbit_split, ring_to_form,
        )

        f = BinaryCubicForm(*req.args["coeffs"])
        p = req.args["p"]
        ring = form_to_ring(f)
        return (ring.discriminant(), ring_to_form(ring), index_p_subrings(ring, p), orbit_split(f, p))

    def check(self, req: Request, output) -> Outcome:
        q = req.expected
        if req.kind == "forms":
            return self._check_forms(q, *output)
        text = output
        result = json.loads(text)["result"]
        if req.kind == "classify":
            p, d = q["p"], q["u"] * q["p"] ** q["v"]
            classes = result["classes"]
            expect(3 ** result["h1_dim"] == len(classes), "class count is not 3^h1_dim")
            for cls in classes:
                if "representative" in cls:
                    a, b, c, e = (Fraction(t) for t in cls["representative"])
                    expect(valuation(gen.form_discriminant(a, b, c, e), p) == valuation(d, p),
                           "representative discriminant has the wrong valuation")
            return Outcome(len(text), 0, result)
        factors = q["factors"]
        d0 = q["sign"]
        for p, e in factors.items():
            d0 *= p ** (e % 6)
        support = {p for p, e in factors.items() if e % 6}
        if req.kind == "ratio":
            expect(result["d0"] == d0, "d0 differs from the reduced factorization")
            places = [e["place"] for e in result["places"]]
            want = ["real"] + [str(p) for p in sorted(support | {2, 3})]
            expect(places == want, "places differ from the factorization")
            expect(result["global_k"] == sum(e["k"] for e in result["places"]), "global_k is not the sum")
        else:
            expect(result["assembly"]["d"] == d0, "d0 differs from the factorization")
            places = [e["place"] for e in result["pi"]["places"]]
            want = ["real", "2", "3"] + [str(p) for p in sorted(support - {2, 3})]
            expect(places == want, "places differ from the factorization")
            expect(result["pi"]["global_k"] % 2 == 1, "k_pi is even")
        return Outcome(len(text), 1, result)

    @staticmethod
    def _check_forms(q: dict, disc, back, subrings, split) -> Outcome:
        coeffs, p = q["coeffs"], q["p"]
        expect(disc == gen.form_discriminant(*coeffs), "ring discriminant differs from the form's")
        expect(list(back.coefficients()) == coeffs, "form/ring round trip changed the form")
        roots, simple = projective_roots(coeffs, p)
        expect(len(subrings) == roots, "index-p subrings differ from the roots mod p")
        primitive = any(c % p for c in coeffs)
        if primitive and simple:
            expect(len(split) == 1, "a Hensel-liftable root but the orbit splits")
        if primitive and not roots:
            expect(len(split) == 2, "no root mod p but the orbit does not split")
        payload = {
            "disc": str(disc),
            "subrings": [[str(t) for row in (s.ww, s.wt, s.tt) for t in row] for s in subrings],
            "split": [[str(t) for t in g.coefficients()] for g in split],
        }
        return Outcome(0, 0, payload)


# ----------------------------------------------------------------------
# oracle-verify
# ----------------------------------------------------------------------


class OracleVerify(Workload):
    """The brute-force verification behind the integral-orbit
    classification: the orbit grid against classify_integral, the form
    scan mod 5^2, subring bijections, and form/ring round trips."""

    name = "oracle-verify"
    KINDS = ("grid", "formscan", "bijection", "roundtrip")
    GRID = [(p, v, uc) for p in (5, 7) for v in range(5) for uc in ("square", "nonsquare")]
    SCAN_PRIME = 5
    # a cycle checks 45 forms at each of p = 5, 7, 11 and round-trips 200
    # forms, split into short requests so each kind has many samples; a
    # check's cost varies with the zeros of the form mod p, so the median
    # needs many of them
    BIJECTION_REQUESTS, BIJECTION_FORMS = 15, 3
    ROUNDTRIP_REQUESTS, ROUNDTRIP_FORMS = 10, 20
    CYCLE_LENGTH = 2 + BIJECTION_REQUESTS + ROUNDTRIP_REQUESTS

    def make_inputs(self, workdir: str, seed: int) -> None:
        self._rng = random.Random(seed)

    def setup(self, workdir: str) -> None:
        import selmer3.localclass  # noqa: F401
        import selmer3.oracle  # noqa: F401

    def cycles(self):
        while True:
            cycle = [Request("grid", self.GRID), Request("formscan", self.SCAN_PRIME)]
            for _ in range(self.BIJECTION_REQUESTS):
                forms = gen.random_forms(self._rng, self.BIJECTION_FORMS, 30)
                cycle.append(Request("bijection", [(f, p) for f in forms for p in (5, 7, 11)]))
            for _ in range(self.ROUNDTRIP_REQUESTS):
                cycle.append(Request("roundtrip", gen.random_forms(self._rng, self.ROUNDTRIP_FORMS, 20)))
            yield cycle

    def named_metrics(self, samples):
        cycles = len(samples) // self.CYCLE_LENGTH
        rows = [("oracle.verify_s", median_cycle_s(samples, self.CYCLE_LENGTH), "s", cycles)]
        for kind in ("grid", "formscan"):
            group = [s for s in samples if s.kind == kind]
            rows.append((f"oracle.{kind}_s", median_ms(group) / 1e3, "s", len(group)))
        return rows

    def run(self, req: Request):
        from selmer3.cubicforms import BinaryCubicForm, form_to_ring, ring_to_form
        from selmer3.localclass import classify_integral
        from selmer3.oracle import enumerate_orbits, scan_forms_low_valuation, verify_subring_bijection

        if req.kind == "grid":
            out = []
            for p, v, uc in req.args:
                table = enumerate_orbits(p, disc_val=v, unit_class=uc)
                theory: dict[str, tuple[int, int]] = {}
                for c in classify_integral(p, table.d0):
                    key = "unram" if c.kind.startswith("unram") else c.kind
                    n, n_int = theory.get(key, (0, 0))
                    theory[key] = (n + 1, n_int + (1 if c.integral else 0))
                out.append((table, theory))
            return out
        if req.kind == "formscan":
            return scan_forms_low_valuation(req.args)
        if req.kind == "bijection":
            return [verify_subring_bijection(form_to_ring(BinaryCubicForm(*f)), p) for f, p in req.args]
        out = []
        for coeffs in req.args:
            ring = form_to_ring(BinaryCubicForm(*coeffs))
            out.append((ring.discriminant(), ring_to_form(ring)))
        return out

    def check(self, req: Request, output) -> Outcome:
        if req.kind == "grid":
            for (p, v, uc), (table, theory) in zip(req.args, output):
                expect(table.k >= 6, "grid precision below 6")
                expect(table.summary() == theory, f"orbit census differs from the theory at {(p, v, uc)}")
            tables = {(t.p, t.disc_val, t.unit_class): t for t, _ in output}
            expect(any(r.algebra == "unram" and not r.integral for r in tables[5, 2, "square"].rows),
                   "no non-integral unramified class at (5, 2, square)")
            expect(all(r.integral for r in tables[7, 4, "square"].rows), "a non-integral class at (7, 4, square)")
            return Outcome(payload=[t.to_json_obj() for t, _ in output])
        if req.kind == "formscan":
            expect(output.v1_all_have_simple_root and output.dichotomy_holds, "form scan flags are false")
            return Outcome(payload=[output.v1_forms, output.triple_forms, output.eisenstein_forms])
        if req.kind == "bijection":
            expect(all(output), "a subring bijection check failed")
            return Outcome(payload=output)
        for coeffs, (disc, back) in zip(req.args, output):
            expect(disc == gen.form_discriminant(*coeffs), "ring discriminant differs from the form's")
            expect(list(back.coefficients()) == coeffs, "form/ring round trip changed the form")
        return Outcome(payload=[str(disc) for disc, _ in output])


WORKLOADS = {w.name: w for w in (FamilyScan, PointQueries, OracleVerify)}
