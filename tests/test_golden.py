"""Golden CLI outputs: each file in tests/golden holds one argv with the
exit code and the exact stdout it must produce, compared byte for byte.

To add a case, write a file with only its "argv" and run
``PYTHONPATH=src python tests/test_golden.py``; that records the exit
code and stdout of every case from the current code.  The help-*.txt
files there hold --help text at 80 columns, compared in tests/test_cli.py.
"""

import contextlib
import io
import json
import pathlib

import pytest

from fsg.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = sorted(GOLDEN.glob("*.json"))


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_golden_output(path):
    case = json.loads(path.read_text())
    code, stdout = run_cli(case["argv"])
    assert code == case["exit"]
    assert stdout == case["stdout"]


if __name__ == "__main__":
    for path in CASES:
        case = json.loads(path.read_text())
        case["exit"], case["stdout"] = run_cli(case["argv"])
        path.write_text(json.dumps(case, indent=1) + "\n")
        print(f"{path.stem}: exit {case['exit']}")
