"""The example scripts under ``scripts/`` run to completion and print what
their docstrings promise."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, *args):
    # Each script puts the repository's ``src`` on its own path.
    result = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_fault_detection_demo_flags_each_injected_fault_once():
    lines = _run("fault_detection_demo.py").splitlines()
    flagged = [line.split("flagged frames ")[1].split(",")[0] for line in lines]
    # Dropped detection at 50: phi1 flags its return at 51; teleport at 50:
    # phi2 flags 50; the stationary stream is clean.
    assert flagged == ["[51]", "[50]", "none"]


def test_quantifier_blowup_reports_n_to_the_k_assignments():
    out = _run("quantifier_blowup.py", "--frames", "20", "--objects", "1,2")
    rows = [line.split("\t") for line in out.splitlines() if line.startswith("probe:")]
    assert [(row[0], row[1], row[-1]) for row in rows] == [
        (f"probe:exists{k}", str(n), str(n ** k)) for k in (1, 2, 3) for n in (1, 2)
    ]


def test_quantifier_blowup_rejects_an_empty_object_list():
    for objects in ("", ",,"):
        result = subprocess.run([sys.executable, str(SCRIPTS / "quantifier_blowup.py"),
                                 "--objects", objects], capture_output=True, text=True, timeout=120)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "--objects" in result.stderr
