"""End-to-end benchmark of the SRAM PUF study simulator.

Run from the repository root::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 30 --trace 0

Workloads are ``paper``, ``paper-durable`` and ``fleet`` (see
``perfbench/workloads.py``).  With ``--trace 0`` the campaign repeats
for about ``--seconds`` seconds and the end-to-end metrics are printed,
their times scaled to a fixed host speed (see ``HostSpeed``);
with ``--trace 1`` a separate traced run prints the per-layer table
(``perfbench/layers.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits 2 and prints no result.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported, so the
# benchmark process and the workers it spawns (which inherit the
# environment) never oversubscribe the cores between them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")

#: Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_PROBES = 5
#: Seconds the host-speed probe takes at the speed reported times are
#: scaled to (see :class:`HostSpeed`).
PROBE_NOMINAL_S = 0.25
#: Untraced/traced iteration pairs of the traced run, per workload.
TRACE_PAIRS = {"paper": 3, "paper-durable": 2, "fleet": 1}

END_TO_END_UNITS = {
    "board_months_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "store_mb": "MB",
}


class Failure(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


#: prctl option that makes orphaned descendants re-parent to this process.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds a leftover process gets between SIGTERM and SIGKILL.
REAP_GRACE_S = 5.0


def adopt_descendants() -> None:
    """Become the reaper of every process started below this one (Linux).

    A worker orphaned by its parent then re-parents here, so
    :func:`stop_descendants` can still wait for it.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list:
    pids = []
    task_dir = f"/proc/{os.getpid()}/task"
    for task in os.listdir(task_dir) if os.path.isdir(task_dir) else ():
        try:
            with open(os.path.join(task_dir, task, "children"), encoding="ascii") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    return pids


def stop_descendants() -> None:
    """Stop and reap every process the benchmark started, before it exits.

    The multiprocessing resource tracker, started by the spawned worker
    pools, would otherwise outlive this process; anything else still
    running gets SIGTERM, then SIGKILL after a grace period.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + REAP_GRACE_S
    sig = signal.SIGTERM
    while True:
        for pid in child_pids():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                sig = signal.SIGKILL
            time.sleep(0.05)


def exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise Failure(f"no program source at {SRC}/repro")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise Failure(f"imported repro from {repro.__file__}, not from {SRC}")


def worker_count() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def host_record() -> dict:
    from repro.store.bench import host_fingerprint

    return {
        "host_fingerprint": host_fingerprint(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "max_workers": worker_count(),
    }


def prepare(name: str, seed: int):
    from workloads import WORKLOADS

    # Anything that asks for a temporary file stays inside the checkout.
    os.makedirs(WORKDIR, exist_ok=True)
    os.environ["TMPDIR"] = WORKDIR
    return WORKLOADS[name](seed, os.path.join(WORKDIR, name), worker_count())


def setup_probe(name: str, seed: int) -> None:
    """Child side of the set-up measurement: import, build, say ready."""
    import_program()
    prepare(name, seed)
    print("ready", flush=True)


class HostSpeed:
    """A fixed piece of work timed between measurements, to scale them.

    The shared host's speed drifts by up to a third between regimes that
    last tens of seconds, and the program's wall and CPU times drift
    with it.  Each measurement is scaled by ``PROBE_NOMINAL_S`` over the
    mean of the probes taken just before and just after it, so reported
    times are seconds of a host running at one fixed speed.  The probe
    mixes the kernel's PCG64 draws with interpreter work and never
    calls ``repro``, so a change to the program cannot move it.
    """

    def __init__(self) -> None:
        self.raw = []
        self.last = self._probe()

    @staticmethod
    def _probe():
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(0))
        probs = rng.random(20_480)
        wall, cpu = time.perf_counter(), time.process_time()
        for _ in range(50):
            rng.binomial(999, probs)
            rng.normal(size=4 * 20_480)
        table = {}
        for i in range(300_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        return time.perf_counter() - wall, time.process_time() - cpu

    def scales(self):
        """(wall, cpu) scale for what ran since the previous probe."""
        before, self.last = self.last, self._probe()
        self.raw.append(self.last[0])
        return tuple(PROBE_NOMINAL_S / ((b + a) / 2) for b, a in zip(before, self.last))


def measure_setup(name: str, seed: int, speed: HostSpeed) -> list:
    """Scaled seconds from interpreter launch to a built workload, per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.close()
        if child.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        samples.append(elapsed * speed.scales()[0])
    return samples


class Tally:
    """Operations attempted and failed: every leg and every output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

    def iteration(self, workload, it) -> None:
        for leg in workload.planned_legs:
            self.add(leg in it.legs, f"leg {leg}: {it.error}")
        for name, ok, detail in it.checks:
            self.add(ok, f"check {name}: {detail}")


def consistency_checks(tally: Tally, iterations, reference=None) -> None:
    """Every iteration of one seed yields the same artifact (and alerts)."""
    done = [it for it in iterations if it.error is None]
    digests = {it.digest for it in done}
    tally.add(len(digests) <= 1, f"artifact digests differ between iterations: {digests}")
    alerts = {it.alerts for it in done}
    tally.add(len(alerts) <= 1, f"alert counts differ between iterations: {alerts}")
    if reference is not None and done:
        tally.add(
            done[0].digest == reference,
            "resumed artifact differs from the serial in-memory run",
        )


def measured_phase(workload, seconds: float):
    """A warm-up campaign, then whole campaigns filling about ``seconds``.

    The warm-up is checked but not timed: a process's first campaign
    is slower (first calls, page cache, allocator growth).  Each timed
    leg is followed by a host-speed probe; its (wall, cpu) scales are
    in the iteration's ``after``.  Another campaign starts only while
    it should end within half a campaign of ``seconds``; a failed
    campaign ends the phase.  Returns the probe and all iterations.
    """
    iterations = [workload.iterate()]
    speed = HostSpeed()
    start = time.perf_counter()
    while iterations[-1].error is None:
        iterations.append(workload.iterate(after_leg=speed.scales))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / (len(iterations) - 1)) > seconds:
            break
    return speed, iterations


def scaled_wall_s(it) -> float:
    return sum(it.legs[leg] * it.after[leg][0] for leg in it.legs)


def scaled_cpu_s(it) -> float:
    return sum(it.leg_cpu[leg] * it.after[leg][1] for leg in it.leg_cpu)


def untraced(args, workload, tally: Tally):
    speed, iterations = measured_phase(workload, args.seconds)
    self_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for it in iterations:
        tally.iteration(workload, it)
    reference = None
    if workload.name == "paper-durable":
        from workloads import pinned_digest

        if pinned_digest(workload.digest_group, workload.seed) is None:
            reference = workload.reference_digest()
    consistency_checks(tally, iterations, reference)
    setup = measure_setup(workload.name, workload.seed, speed)
    done = [it for it in iterations[1:] if it.error is None]
    metrics = {}
    if done:
        metrics = {
            "board_months_per_s": statistics.median(
                workload.board_months / scaled_wall_s(it) for it in done
            ),
            "cpu_s": statistics.median(scaled_cpu_s(it) for it in done),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(self_peak, child_peak) / 1024.0,
            "store_mb": done[-1].store_bytes / 1e6,
        }
    print(f"timed iterations: {len(iterations) - 1} ({len(done)} complete), unscaled wall s: "
          + " ".join(f"{it.wall_s:.3f}" for it in done))
    print("  host-speed probes s: " + " ".join(f"{s:.3f}" for s in speed.raw))
    for leg in workload.planned_legs:
        values = [it.legs[leg] for it in done if leg in it.legs]
        if values:
            print(f"  leg {leg:<10} median {statistics.median(values):8.3f} s  over {len(values)}")
    print(f"  set-up probes (scaled): {', '.join(f'{s:.3f}' for s in setup)} s")
    print(f"  peak RSS: parent {self_peak / 1024:.1f} MB, "
          f"largest reaped child {child_peak / 1024:.1f} MB")
    if done:
        print(f"  artifact sha256 {done[0].digest}")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


#: Fleet metrics kept from the spawned-pool pass, not the in-process one.
SPAWNED_ONLY = ("exec.dispatch_s", "exec.pool_spawns")


def traced_iteration(workload, inline: bool = False):
    """One campaign with every layer wrapped; returns (iteration, tracer)."""
    from layers import LayerTracer, inline_executor_factory

    tracer = LayerTracer()
    tracer.install()
    try:
        if inline:
            it = workload.iterate(inline_executor_factory(workload.max_workers, tracer))
        else:
            it = workload.iterate()
    finally:
        tracer.uninstall()
    return it, tracer


def layer_values(workload, tracer, it) -> dict:
    from layers import LAYER_COUNT_METRICS, LAYER_TIME_METRICS
    from workloads import FLEET_ABORT_MONTH, PAPER_ABORT_MONTH

    values = {metric: tracer.self_s.get(kind, 0.0) for kind, metric in LAYER_TIME_METRICS.items()}
    for name in LAYER_COUNT_METRICS:
        values[name] = tracer.counts.get(name, 0)
    values["monitor.alerts"] = it.alerts or 0
    values["io.artifact_bytes"] = it.artifact_bytes
    values["store.replayed_months"] = 0
    if tracer.resume_points:
        abort = FLEET_ABORT_MONTH if workload.name == "fleet" else PAPER_ABORT_MONTH
        values["store.replayed_months"] = abort - min(tracer.resume_points)
    return values


def traced(args, workload, tally: Tally):
    """Per-layer metrics from traced campaigns, apart from the timed runs.

    Untraced and traced campaigns alternate; the untraced ones give
    ``resume_s``, ``exec.child_cpu_s`` and the baseline of
    ``trace.overhead_frac``.  On ``fleet`` the layers that run inside
    the spawned workers are invisible from this process, so one more
    campaign runs its shards in-process and supplies the layer table.
    """
    from layers import host_ceiling, print_layer_table

    ceiling = host_ceiling(args.seed)
    plain, spans = [], []
    for _ in range(TRACE_PAIRS[workload.name]):
        plain.append(workload.iterate())
        spans.append(traced_iteration(workload))
    inline = traced_iteration(workload, inline=True) if workload.name == "fleet" else None
    runs = plain + [it for it, _ in spans] + ([inline[0]] if inline else [])
    for it in runs:
        tally.iteration(workload, it)
    # Equal digests across plain, traced and in-process campaigns show
    # that the wrappers change no output.
    consistency_checks(tally, runs)
    if any(it.error is not None for it in runs):
        return {}

    # Times are medians over the traced campaigns; counts (the integers)
    # must repeat exactly, and a count that does not is a failed check.
    samples = [layer_values(workload, tracer, it) for it, tracer in spans]
    values = {}
    for name, first in samples[0].items():
        if isinstance(first, int):
            values[name] = first
            tally.add(
                all(s[name] == first for s in samples),
                f"count {name} differs between traced runs",
            )
        else:
            values[name] = statistics.median(s[name] for s in samples)
    table = spans[-1][1]
    if inline is not None:
        in_process = layer_values(workload, inline[1], inline[0])
        values.update({k: v for k, v in in_process.items() if k not in SPAWNED_ONLY})
        table = inline[1]
        print("fleet: layer table and per-layer numbers from a campaign whose shards ran "
              "in-process (specs and results pickled as the pool ships them); "
              + ", ".join(SPAWNED_ONLY) + " from the spawned-pool campaigns")
    values["resume_s"] = statistics.median(it.legs.get("resume", 0.0) for it in plain)
    values["exec.child_cpu_s"] = statistics.median(it.child_cpu_s for it in plain)
    values["trace.overhead_frac"] = statistics.median(
        it.wall_s for it, _ in spans
    ) / statistics.median(it.wall_s for it in plain) - 1.0
    values.update(ceiling)
    measure_s = values["sram.measure_s"]
    values["sram.draw_efficiency"] = (
        values["sram.cells_drawn"] / measure_s / ceiling["sram.ceiling_binomial_per_s"]
        if measure_s > 0
        else 0.0
    )
    print_layer_table(f"per-layer self time, {workload.name}, seed {args.seed}", table)
    print(f"  trace overhead {100 * values['trace.overhead_frac']:+.2f}% "
          f"({len(spans)} traced vs {len(plain)} untraced campaigns)")
    return {name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in sorted(values.items())}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name == "store.bytes_written":
        return "bytes"
    if name.endswith("_frac") or name.endswith("efficiency"):
        return "ratio"
    if name.endswith("_months"):
        return "months"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper", "paper-durable", "fleet"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        import_program()
        workload = prepare(args.workload, args.seed)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, host {json.dumps(host_record())}")
    tally = Tally()
    adopt_descendants()
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    try:
        if args.trace:
            metrics = traced(args, workload, tally)
        else:
            metrics = untraced(args, workload, tally)
    finally:
        stop_descendants()
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for message in tally.messages:
        print(f"FAILED {message}")
    for name, metric in metrics.items():
        print(f"{name:<30} {metric['value']:>16.6g} {metric['unit']}")
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
