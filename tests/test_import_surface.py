"""The import surface: a simulator run loads only what it executes.

numpy is an optional dependency (the ``inprocess`` extra) and the sweep
engine's worker pools pull in ``multiprocessing`` and
``concurrent.futures``; the simulator, the CLI's plan/run paths and the
linter must work without them.  Package roots re-export their public names lazily
(:mod:`repro.lazy`), so the eager-looking ``from repro import X``
surface must still resolve every name.
"""

import importlib
import inspect
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples" / "experiments").iterdir())

#: Package roots whose re-exports resolve on first attribute access.
LAZY_PACKAGES = ("repro", "repro.backends", "repro.core", "repro.serve",
                 "repro.exec", "repro.formats", "repro.pipeline")


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=600, cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})


def test_cli_and_linter_run_without_numpy():
    plans = [["plan", str(path)] for path in EXAMPLES]
    runs = [["run", str(REPO / "examples" / "experiments" / name)]
            for name in ("stream_burst_16.yaml", "control_faulty_8.yaml")]
    proc = _python(f"""
        import contextlib, io, sys
        sys.modules["numpy"] = None
        from repro.cli import main
        for argv in {plans + runs!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code == 0, (argv, code)
        assert main(["lint"]) == 0
        """)
    assert proc.returncode == 0, proc.stderr
    assert "simlint: clean" in proc.stdout


def test_serve_simulation_loads_no_array_or_pool_modules():
    """Nor the analytic doctor package: both run doctors render from
    :mod:`repro.serve.doctor` alone."""
    proc = _python("""
        import sys
        from repro.core.report import service_summary, tenant_table
        from repro.ctl import Dispatcher
        from repro.serve import (PreprocessingService, bursty_trace,
                                 diagnose_service)
        from repro.stream import (StreamingService, diagnose_stream,
                                  generate_stream)
        report = PreprocessingService(policy="cache-aware", slots=2).run(
            bursty_trace(tenants=3, seed=0))
        text = tenant_table(report).to_markdown() + service_summary(report)
        text += diagnose_service(report).to_markdown()
        assert "cluster diagnosis [cache-aware]" in text
        streams = generate_stream(tenants=2, seed=0, requests=8)
        text = diagnose_stream(StreamingService().run(streams, seed=0)
                               ).to_markdown()
        assert text.startswith("stream diagnosis:")
        print(sorted(name for name in ("numpy", "multiprocessing",
                                       "concurrent.futures",
                                       "repro.diagnosis")
                     if name in sys.modules))
        """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_root_resolves_every_public_name(package):
    module = importlib.import_module(package)
    names = dir(module)
    for name in module.__all__:
        assert name in names
        value = getattr(module, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert getattr(sys.modules[value.__module__], name) is value
        elif name != "__version__":
            # A constant: the submodule that defines it holds this object.
            assert any(vars(sub).get(name) is value
                       for sub_name, sub in list(sys.modules.items())
                       if sub_name.startswith(package + ".")
                       and sub is not None), f"{package}.{name}"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_root_rejects_unknown_names(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})
