"""A window worker imports only what a window runs.

Every ``WindowPool`` lane is forked from one ``forkserver`` per
process that imported :mod:`repro.exec.windows` before forking any
lane (a ``spawn``-ed interpreter that imports it before its first
window where ``forkserver`` does not exist).  Whatever that import
drags in is in every lane.  The package ``__init__``s export lazily
to keep scipy.stats/optimize/spatial/interpolate, the campaign driver,
the trend and reliability models, key generation and the TRNG out of
that closure.

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


def fresh_interpreter_heavy_modules(statement: str):
    """The heavy modules a new interpreter holds after ``statement``."""
    code = (
        f"import json, sys\n{statement}\n"
        f"print(json.dumps(sorted(m for m in {HEAVY_MODULES!r} if m in sys.modules)))"
    )
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout)


def test_window_modules_import_no_heavy_module():
    loaded = fresh_interpreter_heavy_modules(
        "import repro.exec.windows, repro.exec.executor"
    )
    assert loaded == [], f"a fresh window worker imports {loaded}"


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
