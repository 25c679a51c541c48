"""A window worker imports only what a window runs.

Every ``WindowPool`` lane is forked from one ``forkserver`` per
process that imported :mod:`repro.exec.windows` before forking any
lane (a ``spawn``-ed interpreter that imports it before its first
window where ``forkserver`` does not exist).  Whatever that import
drags in is in every lane.  The package ``__init__``s export lazily
to keep scipy.stats/optimize/spatial/interpolate, the campaign driver,
the trend and reliability models, key generation and the TRNG out of
that closure.

A campaign's parent is held to the scipy half of the same rule: the
CLI and the modules a campaign is built from load none of those scipy
modules, and calibration and trend fitting import them when called.

The test process has all of those imported already, so the checks
run in a fresh interpreter and in live pool workers.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.analysis.campaign import LongTermCampaign
from repro.errors import CampaignInterrupted
from repro.exec.pool import START_METHOD, WindowPool

from tests.exec.closure_probe import HEAVY_MODULES, ProbeSpec, probe

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


#: The heavy modules a campaign's parent process never needs either.
SCIPY_HEAVY = tuple(name for name in HEAVY_MODULES if name.startswith("scipy."))


def fresh_interpreter(code: str):
    """The JSON document a new interpreter prints after running ``code``."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    completed = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout)


def fresh_interpreter_heavy_modules(statement: str, heavy=HEAVY_MODULES):
    """The ``heavy`` modules a new interpreter holds after ``statement``."""
    return fresh_interpreter(
        f"{statement}\n"
        f"print(json.dumps(sorted(m for m in {heavy!r} if m in sys.modules)))"
    )


def test_window_modules_import_no_heavy_module():
    loaded = fresh_interpreter_heavy_modules(
        "import repro.exec.windows, repro.exec.executor"
    )
    assert loaded == [], f"a fresh window worker imports {loaded}"


def test_campaign_parent_imports_no_heavy_scipy_module():
    """The CLI and every perfbench workload's imports leave scipy's heavy half out."""
    loaded = fresh_interpreter_heavy_modules(
        "import repro.cli\n"
        "from repro import StudyConfig\n"
        "import repro.core.assessment, repro.analysis.campaign\n"
        "import repro.monitor.defaults, repro.monitor.hub\n"
        "import repro.store.shardstore, repro.io.resultstore",
        SCIPY_HEAVY,
    )
    assert loaded == [], f"a fresh campaign parent imports {loaded}"


def test_cli_import_loads_no_campaign_driver():
    """``import repro.cli`` leaves the campaign and its scipy.special to the handlers."""
    loaded = fresh_interpreter_heavy_modules(
        "import repro.cli", ("repro.analysis.campaign", "scipy.special")
    )
    assert loaded == [], f"a fresh 'import repro.cli' imports {loaded}"


def test_scipy_callers_import_it_on_first_call():
    """Trend fitting and calibration load scipy when called, and answer as before."""
    loaded = f"sorted(m for m in {SCIPY_HEAVY!r} if m in sys.modules)"
    before, fitted, trend, calibrated, skew = fresh_interpreter(
        "import numpy as np\n"
        "import repro.analysis, repro.core\n"
        f"before = {loaded}\n"
        "months = np.arange(8.0)\n"
        "fit = repro.analysis.fit_power_law_trend(months, 0.03 + 0.004 * months**0.45)\n"
        f"fitted = {loaded}\n"
        "skew = repro.core.calibrate_skew_distribution(fhw=0.627, wchd=0.0249)\n"
        "print(json.dumps([before, fitted, [fit.y0, fit.amplitude, fit.exponent],\n"
        f"    {loaded}, skew]))"
    )
    assert before == []
    assert "scipy.optimize" in fitted and "scipy.stats" not in fitted
    assert trend == pytest.approx(
        [0.02999998411809233, 0.00400001495177268, 0.449998889804512], rel=1e-6
    )
    assert "scipy.stats" in calibrated
    assert skew == pytest.approx([5.558113549610375, 17.129842042064357], rel=1e-9)


def test_live_lanes_hold_no_heavy_module_after_real_windows(tmp_path):
    """Manufacture, resident and restoring windows, then probe each lane."""
    ckpt = str(tmp_path / "ckpt")
    campaign = LongTermCampaign(
        device_count=4,
        months=3,
        measurements=40,
        max_workers=2,
        random_state=5,
    )
    with WindowPool(2) as pool:
        with pytest.raises(CampaignInterrupted):
            campaign.run(checkpoint_dir=ckpt, executor=pool, abort_after_month=1)
        LongTermCampaign.resume(ckpt, executor=pool)
        replies = pool.run_tasks(probe, [ProbeSpec(0), ProbeSpec(1)])
        assert pool.spawn_count == 1  # the probes ran on the campaign's lanes
    pids = [pid for pid, _loaded in replies]
    assert len(set(pids)) == 2 and os.getpid() not in pids
    for pid, loaded in replies:
        assert loaded == [], f"window worker {pid} holds {loaded}"


@pytest.mark.skipif(START_METHOD != "forkserver", reason="lanes are spawned here")
def test_lanes_hold_the_preload_when_repro_is_on_a_runtime_path(tmp_path):
    """The server imports the preload even without ``repro`` on PYTHONPATH.

    The caller finds ``repro`` only through a ``sys.path`` insert, as
    perfbench and scripts do.  The probe imports no ``repro`` module,
    so a lane holds the window module only if its server preloaded it.
    """
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{SRC!r}, {ROOT!r}]\n"
        "from repro.exec.pool import WindowPool\n"
        "from tests.exec.closure_probe import ProbeSpec, preloaded\n"
        "with WindowPool(2) as pool:\n"
        "    print(json.dumps(pool.run_tasks(preloaded, [ProbeSpec(0), ProbeSpec(1)])))\n"
    )
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        check=True,
    )
    replies = json.loads(completed.stdout)
    assert len({pid for pid, _held in replies}) == 2
    assert all(held for _pid, held in replies), f"lanes without the preload: {replies}"
