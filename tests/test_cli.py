import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, target
from hypothesis import strategies as st

import selmer3
from selmer3 import twistfamilies
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
                       "global_summand_bit": True, "name": "",
                       "kappa_orders": [{"r": 0, "unit_class": "any", "kappa": 1, "kappa_hat": 1}]},
        "profiles": [{"place": "real", "reduction": "good"}],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "ratio", "--config", str(path), "--d", "30")
    assert code == 4
    assert "3" in err


def test_ratio_config_file(capsys, tmp_path):
    # "chain_length" is a key that older config files carry and the reader
    # now ignores, like any unknown key
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


def test_scan_family_of_large_level(tmp_path):
    # 2n-th powers of primes are all past the height when 2n >= its bit
    # length, so n = 3^25 strikes nothing and scans like n = 9: all of
    # 0 < |d| < 100.  Taking 2^(2 * 3^25) would ask for about 200 GB, so
    # the children run under a 2 GB address-space limit.
    import resource

    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(selmer3.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    cells = []
    for n in (3**25, 9):
        family = {"schema": 1, "n": n, "signs": ["+", "-"], "conditions": [], "squarefree": False, "name": "F"}
        path = tmp_path / f"family-{n}.json"
        path.write_text(json.dumps(family))
        proc = subprocess.run(
            [sys.executable, "-m", "selmer3.cli", "scan", "--family", str(path), "--height", "100"],
            capture_output=True, env=env, preexec_fn=limited, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)["result"]
        assert result["member_count"] == 198
        cells.append(result["cells"])
    assert cells[0] == cells[1]


def test_scan_family_of_many_conditions_exits_3_before_sieving(tmp_path):
    # 200 conditions x 2 signs x 10^6 heights of mask fills is past the
    # budget: the child refuses with one error line, long before the
    # timeout that the masks themselves would take
    src = str(Path(selmer3.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    conditions = [{"modulus": 4096, "residues": list(range(4096))}] * 200
    family = {"schema": 1, "n": 3, "signs": ["+", "-"], "conditions": conditions, "squarefree": False, "name": "F"}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    proc = subprocess.run(
        [sys.executable, "-m", "selmer3.cli", "scan", "--family", str(path), "--height", str(10**6)],
        capture_output=True, env=env, timeout=30,
    )
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr.decode().startswith("error: 200 congruence conditions at height 1000000")
    assert proc.stderr.count(b"\n") == 1


def test_scan_family_listing_many_residues_exits_3_when_read(tmp_path):
    # one condition listing every class mod 2^20, with both signs, is past
    # the residue budget though its mask fills are not: the child refuses
    # with one error line once the document is read
    src = str(Path(selmer3.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    m = 2**20
    assert 2 * m > twistfamilies.MAX_LISTED_RESIDUES and 2 * 10**6 <= twistfamilies.MAX_MASK_BYTES
    conditions = [{"modulus": m, "residues": list(range(m))}]
    family = {"schema": 1, "n": 3, "signs": ["+", "-"], "conditions": conditions, "squarefree": False, "name": "F"}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    proc = subprocess.run(
        [sys.executable, "-m", "selmer3.cli", "scan", "--family", str(path), "--height", str(10**6)],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr.decode().startswith(f"error: the congruence conditions list {2 * m} residues")
    assert proc.stderr.count(b"\n") == 1


@pytest.mark.parametrize("height", [2, 3, 4])
def test_scan_full_family_density_is_unknown_at_every_height(capsys, height):
    # the members below 5 are squarefree, but the family's finite part varies
    code, out, _ = run_cli(capsys, "scan", "--family-preset", "full-n3", "--height", str(height))
    assert code == 0
    cells = json.loads(out)["result"]["cells"]
    assert [cell["exact_density"] for cell in cells] == [None, None]


def test_scan_csv(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--family-preset", "squarefree-n3", "--height", "30", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("k,count")
    assert len(lines) == 3  # both signs: k = -1 and k = 0


@pytest.mark.parametrize("preset", ["squarefree-n3", "full-n3"])  # densities set; densities null
def test_scan_csv_rows_equal_the_json_cells(capsys, preset):
    argv = ["scan", "--family-preset", preset, "--height", "3000"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    cells = json.loads(out)["result"]["cells"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = out.splitlines()
    cols = header.split(",")
    assert cols == ["k", "count", "exact_density", "avg_selmer", "avg_dim_bound", "dim_density_bound"]
    assert len(rows) == len(cells) >= 2
    for row, cell in zip(rows, cells):
        assert row.split(",") == ["" if cell[c] is None else str(cell[c]) for c in cols]


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
        # --d past int's 4,300 printable digits, refused by its text
        ["classify", "--p", "5", "--d", "1e5000"],
        ["ratio", "--preset", "prym-a4", "--d", "1e5000"],
        ["classify", "--p", "5", "--d", "1" * 4301],
        ["classify", "--p", "5", "--d", "1/" + "3" * 4301],
        ["classify", "--p", "5", "--d", "0." + "0" * 4299 + "1"],
        # a config or preset, a family or family preset: exactly one of each
        pytest.param(["ratio", "--preset", "cm", "--config", "F"], id="config-and-preset"),
        pytest.param(["ratio", "--d", "2"], id="no-config-or-preset"),
        pytest.param(["scan", "--height", "5"], id="no-family-or-preset"),
        pytest.param(["scan", "--family-preset", "full-n3", "--family", "F", "--height", "5"], id="family-and-preset"),
        # --d goes with a config or a prym preset, checked before any file is read
        pytest.param(["ratio", "--config", "F"], id="config-without-d"),
        pytest.param(["ratio", "--preset", "prym-a4"], id="prym-preset-without-d"),
    ],
)
def test_malformed_arguments_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err


_RATIO_CONFIG = {
    "schema": 1,
    "descriptor": {"schema": 1, "m": 1, "kernel_character": "1",
                   "global_summand_bit": True, "name": "",
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


def test_d_with_a_huge_exponent_is_refused_by_its_text(capsys, monkeypatch):
    import selmer3.cli

    def refuse(text):  # stands in for Fraction: reaching it is the failure
        raise AssertionError(f"Fraction({text!r}) would build a billion-digit integer")

    monkeypatch.setattr(selmer3.cli, "Fraction", refuse)
    start = time.perf_counter()
    for argv in (["classify", "--p", "5", "--d", "1e999999999"],
                 ["ratio", "--preset", "prym-a4", "--d", "-1e999999999"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


def test_d_spellings_that_stay_accepted_keep_their_text(capsys, tmp_path):
    from selmer3.cli import _digest, _rational_text

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_RATIO_CONFIG))
    for text in ("25", "-3/4", "0.5", "1" * 4300, "1/" + "3" * 4300, "0." + "0" * 4298 + "1"):
        assert _rational_text(text) == text
    for text in ("25", "-3/4", "0.5"):
        code, out, _ = run_cli(capsys, "ratio", "--config", str(path), "--d", text)
        assert code == 0
        assert json.loads(out)["config_digest"] == _digest({"config": _RATIO_CONFIG, "d": text})


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


def _config_with(descriptor=(), kappa=(), profile=(), profiles=None) -> str:
    """The text of _RATIO_CONFIG with keys of the descriptor, of its r = 1
    kappa entry and of its second profile replaced, or with other profiles."""
    config = json.loads(json.dumps(_RATIO_CONFIG))
    config["descriptor"].update(descriptor)
    config["descriptor"]["kappa_orders"][1].update(kappa)
    config["profiles"][1].update(profile)
    if profiles is not None:
        config["profiles"] = profiles
    return json.dumps(config)


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
        # a scalar of the wrong JSON kind is malformed, never coerced; a schema
        # other than the integer 1 or an n that is no power of 3 is a domain error
        (_SCAN_FAMILY_ARGV, '{"schema": 1, "signs": ["x"]}', 2),
        (_SCAN_FAMILY_ARGV, '{"schema": 1, "squarefree": "no"}', 2),
        (_RATIO_ARGV, '{"schema": 1, "descriptor": {"schema": 1, "global_summand_bit": "false"}}', 2),
        (_RATIO_ARGV, '{"schema": 1, "descriptor": {"schema": 1, "m": 1.9}}', 2),
        (_SCAN_FAMILY_ARGV, '{"schema": 1, "conditions": [{"modulus": 36, "residues": [2.7]}]}', 2),
        (_SCAN_FAMILY_ARGV, '{"schema": 1, "n": "3"}', 2),
        (_SCAN_FAMILY_ARGV, '{"schema": 1, "name": [1]}', 2),
        (_SCAN_FAMILY_ARGV, '{"schema": true}', 3),
        (_RATIO_ARGV, '{"schema": true}', 3),
        (_SCAN_FAMILY_ARGV, '{"schema": 1, "n": 6}', 3),
        # one rule: a missing key or a wrong JSON kind exits 2, wherever it sits
        pytest.param(_RATIO_ARGV, _config_with(descriptor={"kernel_character": 0.5}), 2, id="character-0.5"),
        pytest.param(_SCAN_FAMILY_ARGV, '{"schema": 1, "signs": "+-"}', 2, id="signs-string"),
        pytest.param(_RATIO_ARGV, _config_with(profile={"place": True}), 2, id="place-true"),
        pytest.param(_RATIO_ARGV, _config_with(profile={"place": 1.5}), 2, id="place-1.5"),
        pytest.param(_RATIO_ARGV, _config_with(profile={"reduction": 5}), 2, id="reduction-5"),
        pytest.param(_RATIO_ARGV, _config_with(kappa={"unit_class": 5}), 2, id="unit-class-5"),
        pytest.param(_RATIO_ARGV, _config_with(profile={"place": {"degree": 2}}), 2, id="place-no-symbolic"),
        pytest.param(_RATIO_ARGV, _config_with(profile={"place": {"symbolic": "over3"}}), 2, id="place-symbolic"),
        pytest.param(_RATIO_ARGV, _config_with(profiles=[["real", "good"]]), 2, id="profile-list"),
        pytest.param(_SCAN_FAMILY_ARGV, '{"schema": 1, "conditions": {}}', 2, id="conditions-object"),
    ],
)
def test_input_object_of_the_wrong_shape_is_usage_error(capsys, tmp_path, argv, text, code):
    path = tmp_path / "input.json"
    path.write_text(text)
    got, out, err = run_cli(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert got == code
    assert out == ""
    assert err.startswith("error:") and ("malformed" in err) == (code == 2)


@pytest.mark.parametrize(
    "argv, text",
    [
        (_RATIO_ARGV, _config_with()),
        (_SCAN_CONFIG_ARGV, _config_with()),
        (_SCAN_FAMILY_ARGV, '{"schema": 1, "conditions": [{"modulus": 36, "residues": [2, 11]}]}'),
    ],
)
def test_input_file_past_the_byte_bound_exits_3_before_it_is_parsed(capsys, tmp_path, monkeypatch, argv, text):
    # a file of exactly the bound is read; one byte more is refused with one
    # error line, and json never sees it
    from selmer3 import cli

    path = tmp_path / "input.json"
    path.write_text(text)
    argv = [str(path) if a == "FILE" else a for a in argv]
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", len(text))
    assert run_cli(capsys, *argv)[0] == 0
    parsed = []
    monkeypatch.setattr(cli.json, "loads", lambda *args: parsed.append(args))
    path.write_text(text + " ")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, parsed) == (3, "", [])
    assert err == f"error: {path} holds more than the maximum {len(text)} bytes\n"


def test_input_file_of_no_size_is_read_up_to_the_byte_bound(capsys, monkeypatch):
    # a device reports no size, so it is read up to the bound: an endless
    # one is refused rather than read forever
    from selmer3 import cli

    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", 1000)
    code, out, err = run_cli(capsys, "scan", "--family", "/dev/zero", "--height", "10")
    assert (code, out, err) == (3, "", "error: /dev/zero holds more than the maximum 1000 bytes\n")


def test_malformed_input_names_its_json_path(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(_config_with(profile={"place": True}))
    code, _, err = run_cli(capsys, "ratio", "--config", str(path), "--d", "2")
    assert code == 2
    assert err == f"error: {path} is malformed: $.profiles[1].place is true, not " \
        'a prime, "real" or "complex"\n'


_TWICE = {
    "archimedean": [
        {"place": "real", "reduction": "good"},
        {"place": "complex", "reduction": "good"},
        {"place": 3, "reduction": "bad", "override_exponent": 0},
    ],
    "prime": [
        {"place": "real", "reduction": "good"},
        {"place": 3, "reduction": "bad", "override_exponent": 0},
        {"place": 7, "reduction": "good"},
        {"place": 7, "reduction": "bad", "override_exponent": 2},
    ],
}


@pytest.mark.parametrize("twice", sorted(_TWICE))
@pytest.mark.parametrize("argv", [["ratio", "--config", "FILE", "--d", "-14"], _SCAN_CONFIG_ARGV])
def test_a_place_profiled_twice_is_a_domain_error(capsys, tmp_path, argv, twice):
    # two archimedean profiles, or one prime profiled twice: refused rather
    # than read last-one-wins
    path = tmp_path / "cfg.json"
    path.write_text(_config_with(profiles=_TWICE[twice]))
    code, out, err = run_cli(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "profiled" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("override", ["x", 1.5, True])
def test_override_exponent_that_is_not_an_integer_is_malformed(capsys, tmp_path, override):
    config = json.loads(json.dumps(_RATIO_CONFIG))
    config["profiles"][1]["override_exponent"] = override
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "ratio", "--config", str(path), "--d", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "malformed" in err and "override_exponent" in err
    assert "Traceback" not in err


def _ratio(capsys, tmp_path, config: str, d: str):
    path = tmp_path / "cfg.json"
    path.write_text(config)
    return run_cli(capsys, "ratio", "--config", str(path), "--d", d)


@pytest.mark.parametrize("m", [9, 14])
def test_representative_past_the_digit_limit_is_domain_error(capsys, tmp_path, m):
    # -3/4 = 3 * 2^-2 reduces to 3 * 2^(2 * 3^m - 2), 11,850 digits at m = 9
    started = time.perf_counter()
    code, out, err = _ratio(capsys, tmp_path, _config_with(descriptor={"m": m}), "-3/4")
    assert time.perf_counter() - started < 1
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "4300 digits" in err


def test_representative_below_the_digit_limit_answers(capsys, tmp_path):
    code, out, _ = _ratio(capsys, tmp_path, _config_with(descriptor={"m": 8}), "-3/4")
    assert code == 0
    assert len(str(json.loads(out)["result"]["d0"])) == 3951  # the sign and 3,950 digits


@pytest.mark.parametrize("kappa", [{"kappa": 0}, {"kappa": -9}, {"kappa_hat": 0}, {"r": -1}])
def test_impossible_kappa_entry_is_domain_error(capsys, tmp_path, kappa):
    code, out, err = _ratio(capsys, tmp_path, _config_with(kappa=kappa), "2")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and ("power of 3" in err or "negative" in err)


@pytest.mark.parametrize("override", [10**5, -(10**30)])
def test_global_exponent_too_large_to_report_is_domain_error(capsys, tmp_path, override):
    code, out, err = _ratio(capsys, tmp_path, _config_with(profile={"override_exponent": override}), "2")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


_FAMILY = {
    "schema": 1, "n": 3, "signs": ["+", "-"], "squarefree": True,
    "conditions": [{"modulus": 36, "residues": [2, 11]}],
}
_NEW_VALUES = (
    st.none() | st.booleans() | st.floats(allow_nan=False) | st.text(max_size=3)
    | st.integers(-(10**30), 10**30) | st.sampled_from([0, 1, 3, 9, -1, "+", "-", "1/2", "real", [], {}])
)
_BIG_KEYS = ("m", "n", "modulus", "place", "kappa", "override_exponent")


def _paths(tree, prefix=()):
    """The paths (tuples of keys and indices) of every value below the root."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated(draw, doc):
    """doc after one to three mutations: a key or item dropped, a value
    swapped for one of another kind, a value nested in an array or object,
    or a big integer put at m, n, modulus, place, kappa or an override."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["drop", "swap", "nest", "big"]))
        paths = list(_paths(doc))
        if how == "big":
            paths = [q for q in paths if q[-1] in _BIG_KEYS] or paths
        if not paths:
            break
        *head, last = draw(st.sampled_from(paths))
        parent = doc
        for key in head:
            parent = parent[key]
        if how == "drop":
            del parent[last]
        elif how == "swap":
            parent[last] = draw(_NEW_VALUES)
        elif how == "nest":
            parent[last] = draw(st.sampled_from([[parent[last]], {"value": parent[last]}]))
        else:
            parent[last] = draw(st.integers(-(10**30), 10**30) | st.integers(-(10**3), 10**3))
    return doc


def _assert_documented_exit(code, err):
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error:") and err.count("\n") == 1


@settings(max_examples=800, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_mutated(_RATIO_CONFIG), d=st.sampled_from(["30", "-3/4", "2", "1/5", "-7"]))
def test_mutated_ratio_config_exits_with_a_documented_code(capsys, tmp_path, config, d):
    code, _, err = _ratio(capsys, tmp_path, json.dumps(config), d)
    _assert_documented_exit(code, err)


@settings(max_examples=800, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    family=_mutated(_FAMILY) | st.just(_FAMILY),
    config=_mutated(_RATIO_CONFIG) | st.just(_RATIO_CONFIG),
    height=st.integers(1, 50),
)
def test_mutated_scan_inputs_exit_with_a_documented_code(capsys, tmp_path, family, config, height):
    (tmp_path / "family.json").write_text(json.dumps(family))
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code, _, err = run_cli(
        capsys, "scan", "--family", str(tmp_path / "family.json"),
        "--config", str(tmp_path / "cfg.json"), "--height", str(height),
    )
    _assert_documented_exit(code, err)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--family-preset", "full-n3"],
        ["scan", "--family-preset", "full-n3", "--format", "csv"],
        ["prym", "--preset", "prym-a4"],
    ],
)
def test_height_past_the_maximum_exits_3_before_sieving(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--height", str(10**18))
    assert code == 3
    assert out == ""
    assert err == f"error: height bound {10**18} exceeds the maximum {10**7}\n"


def test_the_maximum_height_itself_is_sieved(capsys, monkeypatch):
    from selmer3 import twistfamilies

    monkeypatch.setattr(twistfamilies, "MAX_HEIGHT", 100)
    for command in (["scan", "--family-preset", "full-n3"], ["prym", "--preset", "prym-a4"]):
        assert run_cli(capsys, *command, "--height", "100")[0] == 0
        assert run_cli(capsys, *command, "--height", "101")[0] == 3


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
    ["prym", "--preset", "prym-a4", "--height", "20000"],
    ["prym", "--preset", "prym-a4", "--height", "1"],  # no row
    ["prym", "--preset", "prym-a4", "--height", "3"],  # one row
    ["prym", "--preset", "prym-a4", "--height", "100"],
]


@pytest.mark.parametrize("argv", _ENVELOPE_REQUESTS)
def test_envelope_bytes_equal_stdlib_json(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    want = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert out.split("\n") == want.split("\n")  # a mismatch reports its first line, not a diff of the whole


@pytest.mark.parametrize("height", [1, 3, 100, 20000])
def test_prym_envelope_carries_the_report(capsys, height):
    # its text is the stdlib's (test_envelope_bytes_equal_stdlib_json)
    from selmer3.prym import family_report, load_preset

    code, out, _ = run_cli(capsys, "prym", "--preset", "prym-a4", "--height", str(height))
    assert code == 0
    assert json.loads(out)["result"] == family_report(load_preset("prym-a4"), height).to_json_obj()


def _prym_result_text(config, height):
    """The text of {"result": the `prym` report}, rows written by the
    command's row factory as its sieve walk yields them, at the envelope's
    depth."""
    from selmer3.cli import _dumps, _prym_row_text, _Texts
    from selmer3.prym import family_report

    report = family_report(config, height, _prym_row_text())
    assert all(type(row) is str for row in report.rows)
    return _dumps({"result": {**report.summary_json_obj(), "rows": _Texts(report.rows)}})


def test_prym_row_text_with_an_ordered_three_adic_input():
    # one skeleton per sign and sixth-power class, the pair at 3 ordered
    from dataclasses import replace

    from selmer3.prym import ThreeAdicInput, family_report, load_preset

    a4 = load_preset("prym-a4")
    config = replace(a4, three_adic=ThreeAdicInput(mode="unequal", product_exponent=2, ordered={2: (1, 0)}))
    report = family_report(config, 3000)
    assert len(report.rows) > 100 and all(r.places[2].ordered for r in report.rows)
    text = _prym_result_text(config, 3000)
    want = json.dumps({"result": report.to_json_obj()}, sort_keys=True, indent=2)
    assert text.split("\n") == want.split("\n")  # a mismatch reports its first line, not a diff of the whole


@pytest.mark.parametrize(
    "field, code",
    [
        ("three_adic", 4),  # the order at 3 is not given for the members' class
        ("family", 3),  # a member d = 1 (mod 4): d or -3d is a 2-adic square
    ],
)
def test_prym_refusal_comes_before_the_first_byte(capsys, monkeypatch, field, code):
    # the rows are written during the walk, so every refusal must still
    # end the request before the envelope is begun
    from dataclasses import replace

    from selmer3 import prym
    from selmer3.twistfamilies import CongruenceCondition, TwistFamily

    broken = {
        "three_adic": prym.ThreeAdicInput(mode="unequal", product_exponent=2, ordered={5: (1, 0)}),
        "family": TwistFamily(n=3, conditions=(CongruenceCondition(4, frozenset({1, 2})),), squarefree=True),
    }
    monkeypatch.setitem(prym.PRESETS, "broken", replace(prym.PRESETS["prym-a4"], **{field: broken[field]}))
    result, out, err = run_cli(capsys, "prym", "--preset", "broken", "--height", "3000")
    assert (result, out) == (code, "")
    assert err.startswith("error: ")


def _prym_config_over_sixth_power_classes():
    """prym-a4's curve over the squarefree d = 2 or 3 (mod 4), whose members
    fall in 12 sixth-power classes at 3, with the order at 3 alternating
    from class to class: 24 row skeletons."""
    from dataclasses import replace

    from selmer3.localfield import sextic_class_3adic
    from selmer3.prym import ThreeAdicInput, load_preset
    from selmer3.twistfamilies import CongruenceCondition, TwistFamily, enumerate_classes

    family = TwistFamily(n=3, conditions=(CongruenceCondition(4, frozenset({2, 3})),), squarefree=True, name="d23")
    classes = sorted({sextic_class_3adic(tc.d0).representative for tc in enumerate_classes(family, 200)})
    ordered = {rep: (i % 2, 1 - i % 2) for i, rep in enumerate(classes)}
    three_adic = ThreeAdicInput(mode="unequal", product_exponent=2, ordered=ordered)
    return replace(load_preset("prym-a4"), family=family, three_adic=three_adic)


@settings(max_examples=30, deadline=None)
@given(height=st.integers(1, 5000), config=st.sampled_from(["prym-a4", "classes"]))
@example(height=1, config="prym-a4")  # no row
@example(height=3, config="prym-a4")  # d = 2 alone, no good prime
@example(height=5000, config="prym-a4")
@example(height=5000, config="classes")
def test_prym_envelope_text_equals_stdlib_over_heights(height, config):
    from selmer3.prym import family_report, load_preset

    prym_config = load_preset("prym-a4") if config == "prym-a4" else _prym_config_over_sixth_power_classes()
    report = family_report(prym_config, height)
    if config == "classes" and height == 5000:
        assert len({id(r.skeleton) for r in report.rows}) == 24
        assert sorted(r.d0 for r in report.rows if not r.primes) == [-6, -2, -1, 2, 3, 6]
    text = _prym_result_text(prym_config, height)
    want = json.dumps({"result": report.to_json_obj()}, sort_keys=True, indent=2)
    assert text.split("\n") == want.split("\n")  # a mismatch reports its first line, not a diff of the whole


def test_json_writer_entering_at_depth_grows_its_indentation(monkeypatch):
    # a fresh process has the table of depth 0 only; the row writer enters at 3
    import selmer3.cli as cli

    monkeypatch.setattr(cli, "_NEWLINES", ["\n"])
    out = []
    cli._write_json({"a": [1], "b": {"c": [True, None]}}, out, 3)
    want = json.dumps({"a": [1], "b": {"c": [True, None]}}, sort_keys=True, indent=2)
    assert "".join(out) == want.replace("\n", "\n" + " " * 6)


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

    want = json.dumps(tree, sort_keys=True, indent=2)
    assert _dumps(tree) == want
    # the same list and dict objects in several slots, at several depths
    part_list, part_dict = [tree, {"x": [1, 2]}], {"k": tree, "l": [None, tree]}
    repeated = {
        "a": part_list,
        "b": [part_list, part_dict, [part_dict, part_list]],
        "c": {"d": part_dict, "e": [[[part_list]]], "f": part_dict},
        "g": part_list,
    }
    assert _dumps(repeated) == json.dumps(repeated, sort_keys=True, indent=2)


# Every sixth-power class at 3 of a squarefree d: units +-1, +-2, +-4 times 3^0 or 3^1.
_SIXTH_POWER_CLASSES = [u * t for u in (1, -1, 2, -2, 4, -4) for t in (1, 3)]


@st.composite
def _prym_configs(draw):
    """prym-a4's curve over a drawn squarefree family: d = 2 or 3 (mod 4)
    (a subset), so no member is 1 (mod 4), one condition mod m <= 1000
    listing 1-6 residues, one sign or both, and the order at 3 unordered or
    drawn for every class."""
    from dataclasses import replace

    from selmer3.prym import ThreeAdicInput, load_preset
    from selmer3.twistfamilies import CongruenceCondition, TwistFamily

    mod_4 = draw(st.sampled_from([{2}, {3}, {2, 3}]))
    m = draw(st.integers(1, 36) | st.integers(1, 1000))  # a small modulus admits more members
    residues = draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=min(6, m)))
    signs = draw(st.sampled_from([(1,), (-1,), (1, -1)]))
    conditions = (CongruenceCondition(4, frozenset(mod_4)), CongruenceCondition(m, frozenset(residues)))
    family = TwistFamily(n=3, signs=signs, conditions=conditions, squarefree=True)
    three_adic = ThreeAdicInput(mode="unequal", product_exponent=2)
    if draw(st.booleans()):
        flips = draw(st.lists(st.booleans(), min_size=12, max_size=12))
        three_adic = replace(three_adic, ordered={rep: (f, 1 - f) for rep, f in zip(_SIXTH_POWER_CLASSES, flips)})
    return replace(load_preset("prym-a4"), family=family, three_adic=three_adic)


@settings(max_examples=25, deadline=None)
@given(config=_prym_configs(), height=st.integers(1, 5000))
@example(config=_prym_config_over_sixth_power_classes(), height=5000)  # both signs, 24 skeletons
def test_prym_row_makers_equal_the_assembly_of_each_member(config, height):
    # the command's rows and the default rows, made from the sieve walk's
    # heights and primes, against the one-d assembly of each member
    from selmer3.cli import _prym_row_text
    from selmer3.prym import assemble_local_exponents, family_report
    from selmer3.twistfamilies import enumerate_classes

    rows = family_report(config, height).rows
    target(float(len(rows)))  # steer the draws toward families with many members
    texts = family_report(config, height, _prym_row_text()).rows
    assert [row.d0 for row in rows] == [tc.d0 for tc in enumerate_classes(config.family, height)]
    assert len(texts) == len(rows)
    for row, text in zip(rows, texts):
        assembly = assemble_local_exponents(config, row.d0)
        assert row == assembly
        assert text == json.dumps(assembly.to_json_obj(), sort_keys=True, indent=2).replace("\n", "\n" + "  " * 3)
