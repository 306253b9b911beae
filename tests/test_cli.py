"""CLI surface: payload schemas, exit codes, determinism, both output formats."""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import lpsnav
from lpsnav.cli import _build_parser, main
from schemas import SCHEMAS, SchemaError, validate


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
    fields = {"targets": [1], "target": 1, "q": "3", "s": "1", "g": ["0", "0"],
              "residue": ["0", "0"]}
    zero_pi = tmp_path / "zero_pi.json"  # norm(π) = 0: gauss_gcd(0, 0) raised
    zero_pi.write_text(json.dumps(
        {**fields, "pi": [["0", "0"]], "primes": ["0"], "n": "0"}))
    no_pi = tmp_path / "no_pi.json"  # one target, no π: zip() truncated
    no_pi.write_text(json.dumps({**fields, "pi": [], "primes": [], "n": "2"}))
    for path, x, y in (
        (tmp_path / "missing.json", "1", "1"),
        (bad_json, "1", "1"),
        (zero_pi, "0", "0"),
        (no_pi, "1", "1"),
    ):
        code, out, err = run(capsys, "np-decode", "--instance", str(path), x, y)
        assert code == 2, path
        assert out == ""
        assert err.count("error:") == 1
        assert "Traceback" not in err


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


Q100 = 6513516734600035718300327211250928237178281758494417357560086828416863929270451437126021949850746381

# First 16 hex digits of the sha256 of stdout: the output contract.
STDOUT_SHA256 = {
    f"navigate-diagonal 5 {Q100} 0 1 --mode fast": "ff306d9deb434ef3",
    f"navigate-diagonal 5 {Q100} 12345 67890 --mode fast": "05bef821ec749628",
    "navigate-diagonal 5 27182818284590452489 3 4 --mode exact": "76b596621c418790",
    "navigate-diagonal 5 41 3 4 --mode exact": "27ce9a125e3d8769",
    "navigate 5 61 1 2 3 7": "68fbdf0360780b42",
    "navigate 5 29 1 2 3 7": "642a08226a3d164a",
    "predict 5 29 3 4": "21d253472add22b4",
    f"predict 5 {Q100} 0 1": "aff4ca3d31bc9465",
    "four-squares 625 10 5 0": "ceae0a8be8b40fea",
    "four-squares 50 5 0 0": "65686a2fe7c85cd0",
    "verify 5 29": "3fa6a03e43634bf3",
    "verify 5 101": "af77b9c4673247bf",
    "np-reduce 3 5 8 --target 8 --seed 7": "f0248a0a05954d85",
    "np-reduce 3 5 8 --target 8 --q-mode randomized --seed 3": "e78a72347bdaee5c",
    "four-squares 50 5 0 0 --output text": "7116f8b051389537",
    "navigate 5 29 1 2 3 7 --output text": "14528d0b0b8e4ecc",
    f"navigate 5 {Q100} 1 2 3 7 --mode fast": "20eb3b1aa4841db8",
}


def test_stdout_is_pinned(capsys):
    for command, digest in STDOUT_SHA256.items():
        code, out, _ = run(capsys, *command.split())
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, command


# Each command takes the NavConfig flags its handler reads, and no others.
COMMAND_OPTIONS = {
    "navigate-diagonal": {"--mode", "--h-max-slack", "--budget-rho"},
    "four-squares": {"--mode", "--budget-rho"},
    "navigate": {"--mode", "--gamma", "--c-gamma", "--h-max-slack", "--budget-rho", "--s-cap"},
    "predict-bounds": {"--gamma", "--c-gamma", "--h-max-slack"},
    "predict": {"--gamma", "--c-gamma", "--h-max-slack"},
    "verify": {"--gamma", "--c-gamma"},
    "np-reduce": {"--target", "--q-mode", "--seed"},
    "np-decode": {"--instance"},
}


def test_each_command_takes_only_its_options():
    (commands,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert set(commands.choices) == set(COMMAND_OPTIONS)
    for name, sp in commands.choices.items():
        flags = {f for a in sp._actions for f in a.option_strings}
        assert flags - {"-h", "--help"} == COMMAND_OPTIONS[name] | {"--output"}, name


def test_unread_flag_is_a_usage_error(capsys):
    for argv in (
        ("navigate-diagonal", "5", "29", "1", "2", "--seed", "1"),
        ("four-squares", "50", "5", "0", "0", "--gamma", "1"),
        ("np-reduce", "3", "--target", "3", "--mode", "exact"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == ""


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
