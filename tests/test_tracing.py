"""The benchmark's span tracer still installs over the program and records work.

``perfbench/tracing.py`` wraps the functions that ``harness`` and ``cli``
import, ``orthonormalize`` in ``curves`` and ``oracle``, and the surface
methods.  A renamed or deleted name it patches, or a counter that reads an
attribute the program no longer has, breaks the traced benchmark; this test
finds that in the unit suite.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

from meridian4 import cli, harness
from meridian4.harness import Theorem, _suite_cases

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_installs_and_records_profile_nodes(tmp_path, capsys):
    cases = [next(s for s in _suite_cases() if s.theorem is theorem)
             for theorem in (Theorem.QUASI_C, Theorem.MINIMAL_B)]
    verify_case = harness.verify_case
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        for case in cases:
            harness.verify_case(replace(case, nu=5, nv=5, n_probe=1))
        assert cli.main(["generate", "--theorem=quasi-a", "--a=1.2", "--c=1", "--f0=2.0",
                         "--nu=5", "--nv=5", "--out", str(tmp_path / "mesh.csv")]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    assert harness.verify_case is verify_case
    # quasi-c and the generated quasi-a integrate; minimal-b has a closed form
    for name, calls in (("profiles.integrate_profile", 2), ("profiles.minimal_profile", 1)):
        nodes = [s[5]["nodes"] for s in tracer.spans if s[0] == name]
        assert len(nodes) == calls and min(nodes) > 0
    assert {"harness.verify_case", "cli.main"} <= {s[0] for s in tracer.spans}
