"""Golden outputs of every shipped config and of `targetmd list`.

tests/golden/<name>.json holds, per config run through the CLI: the exit
code, stdout (output directory masked), each JSON output with
`wallclock_seconds` masked, and for each CSV its row count, a sparse
sample (header, first row, every k-th row, last row) and its SHA-256.
The test compares values at RTOL / ATOL, which absorbs the last-bit drift
of exp and log under a different SIMD dispatch; CSV cells must also keep
the 17-significant-digit format.  The SHA-256 sums are not compared here:
regenerating the files and diffing them is the byte-identity check.

Regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from targetmd.cli import main
from targetmd.harness import OUTPUT_DIR_ENV

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted(path.stem for path in CONFIG_DIR.glob("*.cfg"))
RTOL = 1e-9
ATOL = 1e-12
SAMPLES = 10  # about this many sampled rows per CSV, plus the last one
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
MASK = "<masked>"


def _command(name):
    for command in ("check", "compare", "ensemble"):
        if name.startswith(command):
            return command
    return "solve"


def _mask(value):
    if isinstance(value, dict):
        return {key: MASK if key == "wallclock_seconds" else _mask(item)
                for key, item in value.items()}
    if isinstance(value, list):
        return [_mask(item) for item in value]
    return value


def _csv_entry(path):
    data = path.read_bytes()
    lines = data.decode("utf-8").splitlines()
    k = max(1, len(lines) // SAMPLES)
    picked = sorted(set(range(0, len(lines), k)) | {1, len(lines) - 1})
    return {"rows": len(lines),
            "sample": [[i, lines[i]] for i in picked if i < len(lines)],
            "sha256": hashlib.sha256(data).hexdigest()}


def capture(name, out):
    """Run config `name` (or `targetmd list` for name "list") with outputs
    in `out`; return its golden record."""
    argv = ["list"] if name == "list" else [_command(name), str(CONFIG_DIR / f"{name}.cfg")]
    stdout = io.StringIO()
    old = os.environ.get(OUTPUT_DIR_ENV)
    os.environ[OUTPUT_DIR_ENV] = str(out)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.environ.pop(OUTPUT_DIR_ENV)
        if old is not None:
            os.environ[OUTPUT_DIR_ENV] = old
    files = {}
    for path in sorted(Path(out).glob("*")):
        if path.suffix == ".csv":
            files[path.name] = _csv_entry(path)
        elif path.suffix == ".json":
            files[path.name] = _mask(json.loads(path.read_text(encoding="utf-8")))
    return {"command": argv[0],
            "exit_code": code,
            "stdout": stdout.getvalue().replace(str(out), "<out>"),
            "files": files}


def _close_text(expected, actual, where):
    """Equal up to the numbers in them, which must agree within tolerance."""
    assert NUMBER.split(expected) == NUMBER.split(actual), f"{where}: {actual!r} != {expected!r}"
    for a, b in zip(NUMBER.findall(expected), NUMBER.findall(actual)):
        assert math.isclose(float(a), float(b), rel_tol=RTOL, abs_tol=ATOL), \
            f"{where}: {b} != {a} (within rtol {RTOL:g}, atol {ATOL:g})"


def _close(expected, actual, where):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), \
            f"{where}: keys {sorted(actual)} != {sorted(expected)}"
        for key in expected:
            _close(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), \
            f"{where}: {actual!r} != {expected!r}"
        for i, (a, b) in enumerate(zip(expected, actual)):
            _close(a, b, f"{where}[{i}]")
    elif isinstance(expected, float) and not isinstance(actual, bool):
        assert isinstance(actual, (int, float)) and math.isclose(
            expected, actual, rel_tol=RTOL, abs_tol=ATOL), f"{where}: {actual!r} != {expected!r}"
    elif isinstance(expected, str):
        assert isinstance(actual, str), f"{where}: {actual!r} != {expected!r}"
        _close_text(expected, actual, where)
    else:
        assert actual == expected and type(actual) is type(expected), \
            f"{where}: {actual!r} != {expected!r}"


def _check_csv(expected, actual, where):
    assert actual["rows"] == expected["rows"], f"{where}: {actual['rows']} rows, expected {expected['rows']}"
    assert [i for i, _ in actual["sample"]] == [i for i, _ in expected["sample"]]
    for (i, want), (_, got) in zip(expected["sample"], actual["sample"]):
        _close_text(want, got, f"{where} row {i}")
        if i:  # the file contract: every float at 17 significant digits
            for cell in got.split(","):
                assert not cell or f"{float(cell):.17g}" == cell, \
                    f"{where} row {i}: {cell!r} is not written at 17 significant digits"


@pytest.mark.parametrize("name", CONFIGS + ["list"])
def test_outputs_match_golden(name, tmp_path):
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    actual = capture(name, tmp_path)
    assert actual["exit_code"] == expected["exit_code"]
    _close_text(expected["stdout"], actual["stdout"], f"{name} stdout")
    assert sorted(actual["files"]) == sorted(expected["files"]), name
    for fname, want in expected["files"].items():
        if fname.endswith(".csv"):
            _check_csv(want, actual["files"][fname], f"{name}/{fname}")
        else:
            _close(want, actual["files"][fname], f"{name}/{fname}")


def test_every_shipped_config_has_golden_outputs():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CONFIGS + ["list"])


def regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in CONFIGS + ["list"]:
        with tempfile.TemporaryDirectory() as out:
            record = capture(name, out)
        (GOLDEN_DIR / f"{name}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name}.json (exit {record['exit_code']})", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
