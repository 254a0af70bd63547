"""numpy and the XML stack stay off the import path of every run.

Each case runs in a fresh interpreter, because this test process has
imported both already.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import implement_guidance

SRC = str(Path(implement_guidance.__file__).resolve().parent.parent)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# argv: scenario directory, output directory; prints which of the given
# modules the case left imported
PROBE = """\
import json, sys
from pathlib import Path
SCENARIOS, OUT = Path(sys.argv[1]), sys.argv[2]
{case}
print(json.dumps([m for m in {modules!r} if m in sys.modules]))
"""

RUN = ("from implement_guidance.cli import main\n"
       "assert main(['--out-dir', OUT, '--noise', {noise!r}, 'run',\n"
       "             str(SCENARIOS / 'line_convergence.scn')]) == 0")

CASES = {
    "import_cli": "import implement_guidance.cli",
    "parse_every_scenario": ("from implement_guidance.scenario_io import parse_scenario\n"
                             "for p in sorted(SCENARIOS.glob('*.scn')):\n"
                             "    parse_scenario(p.read_text())"),
    "run_noise_off": RUN.format(noise="off"),
    "run_noise_on": RUN.format(noise="on"),
}


def _imported_after(case, out_dir, modules):
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(case=CASES[case], modules=modules),
         str(SCENARIOS), str(out_dir)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("case", ["import_cli", "parse_every_scenario", "run_noise_off",
                                  "run_noise_on"])
def test_numpy_and_xml_sax_not_imported(case, tmp_path):
    # and only a noisy run loads the noise module: its tables compile in
    # every fresh interpreter that writes no bytecode
    noise = "implement_guidance.noise"
    loaded = [noise] if case == "run_noise_on" else []
    assert _imported_after(case, tmp_path, ("numpy", "xml.sax", noise)) == loaded


# an interpreter in which `import numpy` fails, as in an install without it
NO_NUMPY = """\
import sys
sys.modules["numpy"] = None
from implement_guidance.cli import main
assert main(["--out-dir", sys.argv[2], "run", sys.argv[1]]) == 0
assert main(["--out-dir", sys.argv[3], "--noise", "on", "--seed", "0",
             "compare", "--placement", "rear"]) == 0
"""


def test_noisy_runs_without_numpy_give_the_golden_outputs(tmp_path):
    run_dir, compare_dir = tmp_path / "run", tmp_path / "compare"
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, str(SCENARIOS / "noisy_exp1_rear_optimal.scn"),
         str(run_dir), str(compare_dir)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    golden = json.loads((Path(__file__).resolve().parent / "golden_outputs.json").read_text())
    names = [(run_dir, "run/noisy_exp1_rear_optimal/noise_on", name)
             for name in ("run.csv", "summary.json")]
    names += [(compare_dir, "compare/noise_on", f"run_rear_{method}.csv")
              for method in ("lateral_servoing", "backstepping", "optimal")]
    for out_dir, case, name in names:
        digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        assert digest == golden[f"{case}/{name}"], name


def test_cli_import_leaves_out_concurrent_futures(tmp_path):
    # compare and sweep run serially: a thread pool's import is start-up cost only
    assert _imported_after("import_cli", tmp_path, ("concurrent.futures",)) == []
