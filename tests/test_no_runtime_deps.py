"""The package has no runtime dependencies beyond the standard library.

``pyproject.toml`` declares ``dependencies = []``.  This runs a fresh
interpreter in which ``import numpy`` / ``import scipy`` fail, imports
every ``repro`` module, and drives one simulation job and one batched
BCH decode.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent(
    """
    import importlib
    import pkgutil
    import sys

    sys.modules["numpy"] = None
    sys.modules["scipy"] = None

    import repro

    names = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    for name in names:
        importlib.import_module(name)

    from repro.analysis.runner import JobSpec, execute_job
    from repro.ecc.bch import BchCode
    from repro.sim.system import ScaledRun
    from repro.workloads.spec import BENCHMARKS_BY_NAME

    spec = JobSpec.build(
        BENCHMARKS_BY_NAME["povray"], ScaledRun(instructions=5_000), "mecc"
    )
    result, _, _ = execute_job(spec)
    assert result.cycles > 0

    code = BchCode(t=6, data_bits=516)
    datas = list(range(64))
    words = code.encode_batch(datas)
    words[5] ^= 0b111111
    decoded = code.decode_batch(words)
    assert [r.data for r in decoded] == datas
    assert "numpy" not in {m.split(".")[0] for m in sys.modules if sys.modules[m]}
    print(len(names))
    """
)


def test_every_module_imports_and_runs_without_numpy_or_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.strip()) > 50
