"""Import-diet regression: ``plan apply`` loads only the serving layers.

A fresh interpreter runs ``import repro.cli`` and then
``repro.cli.main(["plan", "apply", ...])`` on a tiny plan and CSV.  None
of the FM, search, evaluation or model layers (nor scipy and the network
stack they pull in) may be loaded: the serve command pays only for
:mod:`repro.dataframe` and :mod:`repro.serve`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.dataframe.io import to_csv
from repro.eval.serving import build_demo_result, make_serving_frame
from repro.serve import compile_plan

FORBIDDEN = (
    "scipy",
    "asyncio",
    "ssl",
    "repro.eval",
    "repro.ml",
    "repro.core.pipeline",
    "repro.fm.transport",
)

SCRIPT = """
import json, sys
import repro.cli
code = repro.cli.main(
    ["plan", "apply", "--plan", "plan.json", "--csv", "in.csv", "--out", "out.csv"]
)
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def test_plan_apply_loads_only_dataframe_and_serve(tmp_path):
    result, frame = build_demo_result(80, seed=0, n_groups=4)
    compile_plan(result, frame, "Target").save(str(tmp_path / "plan.json"))
    to_csv(make_serving_frame(20, seed=1, n_groups=4), tmp_path / "in.csv")
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["code"] == 0
    assert (tmp_path / "out.csv").stat().st_size > 0
    loaded = set(out["modules"])
    assert sorted(loaded.intersection(FORBIDDEN)) == []
    layers = {name.split(".")[1] for name in loaded if name.startswith("repro.")}
    assert layers <= {"cli", "dataframe", "serve"}, layers


def test_fit_pipeline_import_loads_no_asyncio():
    """The fit layer's one FM fan-out is a thread pool: importing the
    search pipeline pulls in no event-loop machinery."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, repro.core.pipeline; print('asyncio' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"
