"""The start-up contract: a run imports the modules it uses, no others.

Every package re-exports its names lazily (``repro.lazy_exports``) and
every CLI subcommand imports its own dependencies, so ``import repro``,
the benchmark's set-up probe and ``repro simulate`` each load a known
part of the package.  Each check runs a fresh interpreter, because the
module set of this test process is whatever earlier tests imported.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def fresh(code: str) -> list:
    """Run ``code`` in a fresh interpreter; return the modules it
    imported."""
    script = ("import sys\n"
              "_before = set(sys.modules)\n"
              f"{code}\n"
              "print('--- imported')\n"
              "print('\\n'.join(sorted(set(sys.modules) - _before)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("--- imported\n", 1)[1].split()


def unwanted(modules, prefixes) -> list:
    return [name for name in modules
            if any(name == prefix or name.startswith(prefix + ".")
                   for prefix in prefixes)]


def test_import_repro_loads_only_repro():
    loaded = fresh("import repro")
    assert [name for name in loaded if name.startswith("repro")] == [
        "repro"]


def test_setup_probe_loads_no_engine_runner_or_store():
    # The calls of perfbench/setup_probe.py on one untransformed point.
    loaded = fresh(
        "import repro\n"
        "from repro.explore import SweepPoint\n"
        "from repro.perf.workloads import SCALED_L\n"
        "p = SweepPoint(kernel='jacobi-2d', size=SCALED_L['jacobi-2d'],\n"
        "               l1_size=2048, l1_assoc=8, l1_policy='plru',\n"
        "               block_size=32, l2_size=16384, l2_policy='qlru')\n"
        "repro.build_kernel(p.kernel, p.size_spec,\n"
        "                   transform=p.transform or None)\n"
        "p.cache_config()")
    assert "repro.polybench.stencils" in loaded
    assert unwanted(loaded, (
        "repro.simulation", "repro.explore.runner", "repro.explore.monitor",
        "repro.explore.store", "repro.explore.frontier",
        "repro.explore.report", "repro.perf.sharding", "repro.baselines",
        "repro.obs.metrics", "repro.obs.export",
        "repro.transform.primitives", "multiprocessing", "sqlite3")) == []


def test_cli_simulate_loads_only_its_own_modules():
    loaded = fresh(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['simulate', '--kernel', 'gemm', '--size',\n"
        "          '{\"NI\": 8, \"NJ\": 8, \"NK\": 8}', '--l1-size', '512',\n"
        "          '--l1-assoc', '4', '--block-size', '16', '--json'])")
    assert "repro.simulation.warping" in loaded
    explore = [name for name in loaded if name.startswith("repro.explore.")]
    assert explore == ["repro.explore.spec"]
    assert unwanted(loaded, ("repro.perf", "repro.baselines",
                             "repro.frontend", "multiprocessing",
                             "sqlite3")) == []


def test_sweep_point_loads_its_modules_before_its_deadline():
    # What a transformed dinero point runs is loaded when its deadline
    # is armed, the tree and warping engines by the runner's import.
    fresh(
        "from repro.explore import runner\n"
        "from repro.explore.spec import SweepPoint\n"
        "armed = []\n"
        "runner._arm_alarm = lambda timeout: armed.append(set(sys.modules))\n"
        "p = SweepPoint(kernel='mvt', size={'N': 8}, l1_size=512,\n"
        "               l1_assoc=4, l1_policy='lru', block_size=16,\n"
        "               engine='dinero', transform='tile(i,j:4x4)')\n"
        "assert runner._run_point_guarded(p, 60)['status'] == 'ok'\n"
        "assert {'repro.polybench.kernels', 'repro.transform.primitives',\n"
        "        'repro.baselines.dinero', 'repro.simulation.nonwarping',\n"
        "        'repro.simulation.warping'} <= armed[0]")


def test_every_export_resolves_and_is_listed():
    packages = sorted(
        os.path.relpath(root, SRC).replace(os.sep, ".")
        for root, _, files in os.walk(os.path.join(SRC, "repro"))
        if "__init__.py" in files)
    assert "repro.simulation" in packages
    fresh(
        "import importlib\n"
        f"for package in {packages!r}:\n"
        "    module = importlib.import_module(package)\n"
        "    for name in getattr(module, '__all__', ()):\n"
        "        getattr(module, name)\n"
        "        assert name in dir(module), (package, name)")
