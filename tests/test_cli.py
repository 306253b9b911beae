"""CLI surface: payload schemas, exit codes, determinism, both output formats."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import lpsnav
from lpsnav.cli import main
from lpsnav.schemas import SCHEMAS, SchemaError, validate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_navigate_diagonal(capsys):
    code, payload, err = run_json(capsys, "navigate-diagonal", "5", "29", "0", "1")
    assert code == 0
    validate(payload, SCHEMAS["navigate-diagonal"])
    assert payload["h"] == 7
    assert len(payload["word"]) == 7
    assert payload["q"] == "29"
    sol = payload["solution"]
    vals = [int(sol[k]) for k in ("x", "y", "z", "w")]
    assert sum(v * v for v in vals) == 5**7
    assert "elapsed" in err  # wall time goes to stderr only


def test_four_squares_found(capsys):
    code, payload, _ = run_json(capsys, "four-squares", "50", "5", "0", "0")
    assert code == 0
    validate(payload, SCHEMAS["four-squares"])
    assert payload["status"] == "found"
    assert payload["solution"] == {"x": "5", "y": "5", "z": "0", "w": "0"}


def test_four_squares_absent(capsys):
    code, payload, _ = run_json(capsys, "four-squares", "3", "5", "2", "2")
    assert code == 0
    assert payload["status"] == "absent"
    assert payload["solution"] is None


def test_four_squares_bad_instance_exits_2(capsys):
    code, out, err = run(capsys, "four-squares", "50", "5", "1", "0")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_navigate(capsys):
    code, payload, _ = run_json(capsys, "navigate", "5", "29", "1", "2", "3", "5")
    assert code == 0
    validate(payload, SCHEMAS["navigate"])
    assert payload["length"] == len(payload["word"])


def test_navigate_outside_psl_exits_2(capsys):
    code, _out, err = run(capsys, "navigate", "5", "29", "1", "0", "0", "3")
    assert code == 2
    assert "error" in err


def test_predict_bounds_and_alias(capsys):
    code, payload, _ = run_json(capsys, "predict-bounds", "5", "29", "0", "1")
    assert code == 0
    validate(payload, SCHEMAS["predict-bounds"])
    assert payload["regime"] == "hole"
    assert payload["hole_bound"] == 12
    code2, payload2, _ = run_json(capsys, "predict", "5", "29", "0", "1")
    assert code2 == 0 and payload2 == payload


def test_verify(capsys):
    code, payload, _ = run_json(capsys, "verify", "5", "29")
    assert code == 0
    validate(payload, SCHEMAS["verify"])
    assert payload["ok"] is True
    assert payload["order"] == payload["expected_order"] == 12180
    assert payload["census_ok"] is True


def test_verify_guard_exits_2(capsys):
    code, _out, err = run(capsys, "verify", "5", "229")
    assert code == 2


def test_np_reduce_and_decode(capsys, tmp_path):
    code, payload, _ = run_json(capsys, "np-reduce", "3", "5", "8", "--target", "8")
    assert code == 0
    validate(payload, SCHEMAS["np-reduce"])
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(payload))

    # multiply out the representation choosing the conjugate for the last prime
    pi = [(int(a), int(b)) for a, b in payload["pi"]]
    x, y = 1, 0
    for idx, (re, im) in enumerate(pi):
        if idx == 2:
            im = -im
        x, y = x * re - y * im, x * im + y * re
    q = int(payload["q"])
    a, b = int(payload["residue"][0]), int(payload["residue"][1])
    # rotate by i until the direction matches the residue class
    for _ in range(4):
        x, y = -y, x
        if (x * b - y * a) % q == 0:
            break

    code, decoded, _ = run_json(
        capsys, "np-decode", "--instance", str(inst_path), "--", str(x), str(y)
    )
    assert code == 0
    validate(decoded, SCHEMAS["np-decode"])
    assert decoded["valid"] is True
    assert decoded["epsilon"] == [0, 0, 1]
    assert decoded["subset_sum"] == 8


def test_np_decode_norm_mismatch_exits_2(capsys, tmp_path):
    code, payload, _ = run_json(capsys, "np-reduce", "2", "3", "--target", "5")
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(payload))
    code, _out, err = run(capsys, "np-decode", "--instance", str(inst_path), "1", "1")
    assert code == 2


def test_np_decode_unreadable_instance_exits_2(capsys, tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    for path in (tmp_path / "missing.json", bad_json):
        code, out, err = run(capsys, "np-decode", "--instance", str(path), "1", "1")
        assert code == 2
        assert out == ""
        assert "error:" in err


def test_determinism(capsys):
    _, out1, _ = run(capsys, "np-reduce", "3", "5", "8", "--target", "8", "--seed", "7")
    _, out2, _ = run(capsys, "np-reduce", "3", "5", "8", "--target", "8", "--seed", "7")
    assert out1 == out2
    _, out3, _ = run(capsys, "np-reduce", "3", "5", "8", "--target", "8", "--seed", "8")
    assert out3 != out1


def test_text_output(capsys):
    code, out, _ = run(capsys, "four-squares", "50", "5", "0", "0", "--output", "text")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["status"] == "found"
    assert lines["solution.x"] == "5"


def test_env_defaults(capsys, monkeypatch):
    monkeypatch.setenv("LPSNAV_OUTPUT", "text")
    code, out, _ = run(capsys, "four-squares", "50", "5", "0", "0")
    assert code == 0
    assert out.startswith("modulus: 5")
    # explicit flag wins over the environment
    code, out, _ = run(capsys, "four-squares", "50", "5", "0", "0", "--output", "json")
    assert out.startswith("{")


def test_bad_config_exits_2(capsys):
    q320 = 10**320 + 4689  # least prime >= 10^320, ≡ 1 (mod 4), with (5|q) = 1
    for argv in (
        ("predict", "5", "29", "0", "1", "--c-gamma", "0"),
        ("predict", "5", "29", "0", "1", "--gamma", "nan"),
        ("predict", "5", "29", "0", "1", "--c-gamma", "inf"),
        ("navigate-diagonal", "5", "29", "1", "2", "--h-max-slack", "-20"),
        ("navigate", "5", "29", "1", "2", "3", "7", "--budget-rho", "-1"),
        ("navigate", "5", "29", "1", "2", "3", "7", "--s-cap", "-1"),
        ("four-squares", "50", "5", "0", "0", "--budget-rho", "-1"),
        ("predict", "5", str(q320), "0", "1", "--gamma", "1e308"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "error:" in err
    # Legal extremes whose balance limit or lattice norms overflow a float.
    for argv in (
        ("predict", "5", str(q320), "1", str(10**160)),
        ("predict", "5", "29", "0", "1", "--gamma", "500"),
        ("navigate", "5", "29", "1", "2", "3", "7", "--c-gamma", "1e200"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0, argv
        assert "error" not in err


def test_verify_beyond_distance_table_exits_2_promptly(capsys):
    """A census threshold past the largest storable distance (127) is a
    parameter error, not a census loop over ~10^307 heights."""

    def timeout(signum, frame):
        raise TimeoutError("verify did not return within 5 s")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        code, out, err = run(capsys, "verify", "5", "29", "--gamma", "1e308")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1


def test_bad_env_value_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("LPSNAV_GAMMA", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["predict", "5", "29", "0", "1"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    monkeypatch.delenv("LPSNAV_GAMMA")
    monkeypatch.setenv("LPSNAV_MODE", "slow")
    code, out, err = run(capsys, "navigate-diagonal", "5", "29", "1", "2")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_closed_stdout_exits_141_without_traceback():
    """A reader that closed the pipe (`| head -1`) gets no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    env = dict(os.environ, PYTHONPATH=str(Path(lpsnav.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lpsnav.cli", "four-squares", "1000000000001", "10", "1", "0"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert "elapsed" in proc.stderr


def test_argparse_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["four-squares", "50", "5"])  # missing residues
    assert exc.value.code == 2


def test_schema_validator_rejects():
    with pytest.raises(SchemaError):
        validate({"status": "found"}, SCHEMAS["four-squares"])
    with pytest.raises(SchemaError):
        validate(
            {"n": 5, "modulus": "5", "r1": "0", "r2": "0", "status": "found",
             "solution": None, "tried": 1},
            SCHEMAS["four-squares"],
        )  # n must be a decimal string, not an int
    with pytest.raises(SchemaError):
        validate({"unexpected": 1}, {"type": "object", "properties": {"a": {}}})
