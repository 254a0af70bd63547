"""numpy and the XML stack stay off the import path of runs that need neither.

Each case runs in a fresh interpreter, because this test process has
imported both already.
"""

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


def _imported_after(case, out_dir, modules=("numpy", "xml.sax")):
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(case=CASES[case], modules=modules),
         str(SCENARIOS), str(out_dir)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("case", ["import_cli", "parse_every_scenario", "run_noise_off"])
def test_numpy_and_xml_sax_not_imported(case, tmp_path):
    assert _imported_after(case, tmp_path) == []


def test_noise_on_run_imports_numpy(tmp_path):
    # the noisy outputs are fixed by numpy's PCG64 stream
    assert _imported_after("run_noise_on", tmp_path) == ["numpy"]


def test_cli_import_leaves_out_concurrent_futures(tmp_path):
    # compare and sweep run serially: a thread pool's import is start-up cost only
    assert _imported_after("import_cli", tmp_path, modules=("concurrent.futures",)) == []
