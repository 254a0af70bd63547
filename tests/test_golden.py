"""Golden outputs: SHA-256 of the CLI's CSV and JSON files for the committed
scenarios and for `compare`/`sweep` at seed 0, each with noise on and off.

Any change to these bytes must be deliberate. After one, re-record with

    PYTHONPATH=src python tests/test_golden.py

and note the change in CHANGES.md. SVG files are not hashed: they embed the
command line.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from implement_guidance.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"


def _cases():
    cases = {}
    for scn in sorted((ROOT / "scenarios").glob("*.scn")):
        for noise in ("on", "off"):
            cases[f"run/{scn.stem}/noise_{noise}"] = (
                ["--noise", noise, "run", str(scn)], 0)
    for noise in ("on", "off"):
        cases[f"compare/noise_{noise}"] = (["--noise", noise, "--seed", "0", "compare"], 0)
        cases[f"sweep/noise_{noise}"] = (["--noise", noise, "--seed", "0", "sweep"], 0)
    return cases


CASES = _cases()


def _hashes(case, out_dir):
    argv, code = CASES[case]
    assert main(["--out-dir", str(out_dir), *argv]) == code
    return {f"{case}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(Path(out_dir).iterdir()) if f.suffix in (".csv", ".json")}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_match_golden_hashes(case, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    expected = {k: v for k, v in golden.items() if k.startswith(case + "/")}
    assert expected, f"no golden hashes recorded for {case}"
    assert _hashes(case, tmp_path) == expected


def record(scratch: Path) -> None:
    hashes = {}
    for i, case in enumerate(sorted(CASES)):
        out = scratch / str(i)
        out.mkdir()
        hashes.update(_hashes(case, out))
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
    print(f"wrote {GOLDEN}", file=sys.stderr)
