import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import selmer3
from selmer3.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_classify_v2_square(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "5", "--d", "25")
    assert code == 0
    env = json.loads(out)
    assert env["schema"] == 1 and env["command"] == "classify"
    result = env["result"]
    assert result["h1_dim"] == 1 and result["h1_dim_unramified"] == 1
    flags = {(c["kind"], c["integral"]) for c in result["classes"]}
    assert flags == {("trivial", True), ("unram-1", False), ("unram-2", False)}
    triv = next(c for c in result["classes"] if c["kind"] == "trivial")
    assert triv["representative"] == ["-25/4", "0", "1", "0"]


def test_classify_odd_valuation(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "5", "--d", "5")
    assert code == 0
    result = json.loads(out)["result"]
    assert [c["kind"] for c in result["classes"]] == ["trivial"]


def test_classify_p3_domain_error(capsys):
    code, _, err = run_cli(capsys, "classify", "--p", "3", "--d", "2")
    assert code == 3
    assert "error" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--p", "5"])
    assert exc.value.code == 2


def test_ratio_cm_preset(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--preset", "cm")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["pi_report"]["global_k"] == 0
    assert result["cm_check"]["c3_exponent"] == 0
    assert result["cm_check"]["avg_selmer"] == "2"


def test_ratio_prym_preset(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--preset", "prym-a4", "--d", "2")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["pi"]["global_k"] == -1
    assert result["pi"]["parity"] == "odd"


def test_ratio_missing_three_adic_override(capsys, tmp_path):
    config = {
        "schema": 1,
        "descriptor": {"schema": 1, "m": 1, "kernel_character": "1",
                       "global_summand_bit": True, "chain_length": 1, "name": "",
                       "kappa_orders": [{"r": 0, "unit_class": "any", "kappa": 1, "kappa_hat": 1}]},
        "profiles": [{"place": "real", "reduction": "good"}],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "ratio", "--config", str(path), "--d", "30")
    assert code == 4
    assert "3" in err


def test_ratio_config_file(capsys, tmp_path):
    config = {
        "schema": 1,
        "descriptor": {"schema": 1, "m": 1, "kernel_character": "1",
                       "global_summand_bit": True, "chain_length": 1, "name": "",
                       "kappa_orders": [{"r": 0, "unit_class": "any", "kappa": 1, "kappa_hat": 1}]},
        "profiles": [
            {"place": "real", "reduction": "good"},
            {"place": 3, "reduction": "bad", "override_exponent": 0},
        ],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "ratio", "--config", str(path), "--d", "25")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["global_k"] == -2  # archimedean -1 and the v(25)=2 place -1


def test_scan_squarefree_single_sign(capsys, tmp_path):
    family = {
        "schema": 1, "n": 3, "signs": ["+"], "conditions": [],
        "squarefree": True, "height_bound": None, "name": "sf-plus",
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    code, out, _ = run_cli(capsys, "scan", "--family", str(path), "--height", "50")
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result["cells"]) == 1
    cell = result["cells"][0]
    assert cell["k"] == -1
    assert cell["exact_density"] == "1"
    assert cell["avg_selmer"] == "4/3"


def test_scan_csv(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--family-preset", "squarefree-n3", "--height", "30", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("k,count")
    assert len(lines) == 3  # both signs: k = -1 and k = 0


def test_prym_report(capsys):
    code, out, _ = run_cli(capsys, "prym", "--preset", "prym-a4", "--height", "100")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["aggregate"] == {
        "avg_rank_bound": "7/3",
        "rank_le_1_density": "1/3",
        "point_bound": 5,
    }
    assert result["member_count"] == 10
    assert [r["d"] for r in result["rows"]][:4] == [2, 11, -34, 38]


def test_prym_unknown_preset(capsys):
    code, _, err = run_cli(capsys, "prym", "--preset", "nope", "--height", "10")
    assert code == 3
    assert "error" in err


def test_byte_identical_reruns(capsys):
    _, out1, _ = run_cli(capsys, "prym", "--preset", "prym-a4", "--height", "200")
    _, out2, _ = run_cli(capsys, "prym", "--preset", "prym-a4", "--height", "200")
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["result"] == r2["result"]
    assert r1["config_digest"] == r2["config_digest"]
    # the payload text itself is byte-identical (timing sits outside it)
    c1 = json.dumps(r1["result"], sort_keys=True)
    c2 = json.dumps(r2["result"], sort_keys=True)
    assert c1 == c2


def test_envelope_carries_digest_and_version(capsys):
    _, out, _ = run_cli(capsys, "classify", "--p", "7", "--d", "1")
    env = json.loads(out)
    assert len(env["config_digest"]) == 64
    assert env["artifact_version"]
    assert "seconds" in env["timing"]


def test_classify_golden_file(capsys):
    from pathlib import Path

    _, out, _ = run_cli(capsys, "classify", "--p", "5", "--d", "25")
    golden = json.loads(
        (Path(__file__).parent / "golden" / "classify_p5_d25.json").read_text()
    )
    assert json.loads(out)["result"] == golden


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--p", "5", "--d", "abc"],
        ["classify", "--p", "5", "--d", "1/0"],
        ["ratio", "--preset", "prym-a4", "--d", "2/0"],
        ["scan", "--family-preset", "squarefree-n3", "--height", "-5"],
        ["scan", "--family-preset", "squarefree-n3", "--height", "ten"],
        ["prym", "--preset", "prym-a4", "--height", "0"],
    ],
)
def test_malformed_arguments_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "Traceback" not in err


_RATIO_CONFIG = {
    "schema": 1,
    "descriptor": {"schema": 1, "m": 1, "kernel_character": "1",
                   "global_summand_bit": True, "chain_length": 1, "name": "",
                   "kappa_orders": [{"r": 0, "unit_class": "any", "kappa": 1, "kappa_hat": 1},
                                    {"r": 1, "unit_class": "any", "kappa": 1, "kappa_hat": 1}]},
    "profiles": [
        {"place": "real", "reduction": "good"},
        {"place": 3, "reduction": "bad", "override_exponent": 0},
        {"place": 2, "reduction": "bad", "override_exponent": 0},
    ],
}


@pytest.mark.parametrize("command", [["classify", "--p", "7"], ["ratio", "--config", "CONFIG"]])
def test_negative_fraction_d_in_both_spellings(capsys, tmp_path, monkeypatch, command):
    import selmer3.cli

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_RATIO_CONFIG))
    command = [str(path) if a == "CONFIG" else a for a in command]
    # a fixed clock, so the envelope's timing is the same in both runs
    monkeypatch.setattr(selmer3.cli.time, "perf_counter", lambda: 0.0)
    separate = run_cli(capsys, *command, "--d", "-3/4")
    joined = run_cli(capsys, *command, "--d=-3/4")
    assert separate[0] == joined[0] == 0
    assert separate[1] == joined[1]
    assert json.loads(separate[1])["result"]


@pytest.mark.parametrize(
    "argv",
    [
        ["ratio", "--config", "MISSING", "--d", "2"],
        ["scan", "--family", "MISSING", "--height", "10"],
        ["scan", "--family-preset", "squarefree-n3", "--config", "MISSING", "--height", "10"],
        ["ratio", "--config", "MALFORMED", "--d", "2"],
    ],
)
def test_unreadable_or_malformed_input_file_is_usage_error(capsys, tmp_path, argv):
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{")
    paths = {"MISSING": str(tmp_path / "nonexistent.json"), "MALFORMED": str(malformed)}
    code, out, err = run_cli(capsys, *(paths.get(a, a) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["[]", "3", '"x"', "null"])
@pytest.mark.parametrize(
    "argv",
    [
        ["ratio", "--config", "FILE", "--d", "2"],
        ["scan", "--family", "FILE", "--height", "10"],
        ["scan", "--family-preset", "squarefree-n3", "--config", "FILE", "--height", "10"],
    ],
)
def test_input_file_that_is_not_an_object_is_usage_error(capsys, tmp_path, argv, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not an object" in err
    assert "Traceback" not in err


_RATIO_ARGV = ["ratio", "--config", "FILE", "--d", "2"]
_SCAN_CONFIG_ARGV = ["scan", "--family-preset", "squarefree-n3", "--config", "FILE", "--height", "10"]
_SCAN_FAMILY_ARGV = ["scan", "--family", "FILE", "--height", "10"]


@pytest.mark.parametrize(
    "argv, text, code",
    [
        (_RATIO_ARGV, '{"schema": 1, "descriptor": [], "profiles": []}', 2),
        (_RATIO_ARGV, '{"schema": 1}', 2),
        (_RATIO_ARGV, '{"schema": 1, "descriptor": {"schema": 1}, "profiles": 3}', 2),
        (_RATIO_ARGV, '{"schema": 1, "descriptor": {"schema": 1, "kappa_orders": [{"r": "x"}]}}', 2),
        (_RATIO_ARGV, '{"schema": 2}', 3),
        (_SCAN_CONFIG_ARGV, '{"schema": 1, "descriptor": [], "profiles": []}', 2),
        (_SCAN_CONFIG_ARGV, '{"schema": 1, "descriptor": {"schema": 2}}', 3),
        (_SCAN_FAMILY_ARGV, '{"schema": 1, "conditions": [3]}', 2),
        (_SCAN_FAMILY_ARGV, '{"schema": 1, "signs": 5}', 2),
        (_SCAN_FAMILY_ARGV, '{"schema": 2}', 3),
    ],
)
def test_input_object_of_the_wrong_shape_is_usage_error(capsys, tmp_path, argv, text, code):
    path = tmp_path / "input.json"
    path.write_text(text)
    got, out, err = run_cli(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert got == code
    assert out == ""
    assert err.startswith("error:") and ("malformed" in err) == (code == 2)


def test_reader_closing_the_pipe_exits_quietly():
    # about 260 kB of output, far more than a pipe buffers, so the writer
    # is still writing when the reader goes away
    src = str(Path(selmer3.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "selmer3.cli", "prym", "--preset", "prym-a4", "--height", "2000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


# ----------------------------------------------------------------------
# Point queries at large p and d
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p, d", [(1000000007, 25), (1000000009, 7)])
def test_classify_at_a_ten_digit_prime(capsys, p, d):
    code, out, _ = run_cli(capsys, "classify", "--p", str(p), "--d", str(d))
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result["classes"]) == 3 ** result["h1_dim"] > 1


def test_ratio_with_two_thirteen_digit_primes(capsys):
    d = 1000000000039 * 1000000000121  # = 11 (mod 36), squarefree: a member of Sigma
    code, out, _ = run_cli(capsys, "ratio", "--preset", "prym-a4", "--d", str(d))
    assert code == 0
    places = [e["place"] for e in json.loads(out)["result"]["pi"]["places"]]
    assert places == ["real", "2", "3", "1000000000039", "1000000000121"]


def test_ratio_exits_3_when_factorization_budget_runs_out(capsys, tmp_path, monkeypatch):
    from selmer3 import twistfamilies

    monkeypatch.setattr(twistfamilies, "_RHO_BUDGET", 8)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_RATIO_CONFIG))
    code, out, err = run_cli(capsys, "ratio", "--config", str(path), "--d", str(100003 * 999983))
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


# ----------------------------------------------------------------------
# One parser per process; the envelope writer
# ----------------------------------------------------------------------


def test_cached_parser_serves_a_sequence_of_requests(capsys, tmp_path, monkeypatch):
    import selmer3.cli

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_RATIO_CONFIG))
    requests = [
        ["classify", "--p", "7", "--d", "49"],
        ["classify", "--p", "7", "--d", "abc"],
        ["ratio", "--config", str(path), "--d", "-3/4"],
        ["scan", "--family-preset", "squarefree-n3", "--height", "50"],
    ]

    def run_all():
        outputs = []
        for argv in requests:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            outputs.append((code, *capsys.readouterr()))
        return outputs

    monkeypatch.setattr(selmer3.cli.time, "perf_counter", lambda: 0.0)
    builds = []
    build = selmer3.cli.build_parser
    monkeypatch.setattr(selmer3.cli, "build_parser", lambda: builds.append(1) or build())
    selmer3.cli._parser.cache_clear()
    cached = run_all()
    assert len(builds) == 1
    monkeypatch.setattr(selmer3.cli, "_parser", build)  # a fresh parser per call
    fresh = run_all()
    assert [c[0] for c in cached] == [0, 2, 0, 0]
    assert cached == fresh


_ENVELOPE_REQUESTS = [
    ["classify", "--p", "7", "--d", "49"],
    ["ratio", "--preset", "prym-a4", "--d", "2"],
    ["ratio", "--preset", "cm"],
    ["scan", "--family-preset", "full-n3", "--height", "300"],
    ["prym", "--preset", "prym-a4", "--height", "500"],
]


@pytest.mark.parametrize("argv", _ENVELOPE_REQUESTS)
def test_envelope_bytes_equal_stdlib_json(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


_json_trees = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_trees)
@example({"a": [], "b": {}, "c": [[], {}, [[]]], "": {"": {}}})
@example([True, 1, 1.0, False, 0, None, -0.0, 10**40])
@example({"é\n\t\"\\\x00\x1f": "ü \U0001f600", "z": "", "A": "a"})
@example([float("inf"), float("-inf"), float("nan"), 1e300, 5e-324])
def test_json_writer_matches_stdlib(tree):
    from selmer3.cli import _dumps

    assert _dumps(tree) == json.dumps(tree, sort_keys=True, indent=2)
