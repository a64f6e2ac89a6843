"""momentray benchmark: run one workload and print one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload tower-corpus --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

A run repeats whole passes of the workload, tracing off, as many as fit in
--seconds (at least one).  While a pass runs, a fixed reference loop is
timed every 0.25 s, and the pass's time is scaled by it to the host at
full speed (see HostProbe); the run reports the median pass at that
speed, and records the times as taken too.  With
--trace 1 it makes untraced passes for half of --seconds, then one more
pass with every public function of the package wrapped in a span, and
reports the per-layer metrics of that pass instead of the end-to-end ones.
The last line of stdout is {"correct", "attempted", "failed", "metrics"};
attempted and failed count the operations of one pass.  The environment,
every pass, every probe and every verdict go to .bench_out/ next to the
result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("acceptance-quick", "tower-corpus", "family-minorant")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_RUNS = 7
# the reference probe: its size, and its time at the host's full speed
PROBE_LOOP = 45_000
PROBE_REPS = 5
PROBE_EVERY_S = 0.25
PROBE_REF_S = 0.0027
# a fresh interpreter to `import momentray` plus the default corpus built;
# it prints the monotonic clock, which is shared with the parent process
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import momentray\n"
    "from momentray.corpus import build_default_corpus\n"
    "build_default_corpus()\n"
    "print(repr(time.perf_counter()))\n"
)


def pin_environment():
    """One thread everywhere, package defaults, scratch files in the checkout.

    Must run before numpy is imported: BLAS reads its thread count once.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MOMENTRAY_WORKERS", None)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    sys.path.insert(0, SRC)


def git_commit():
    """HEAD of the checkout read from .git, or "unknown" outside a clone."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "momentray_workers": os.environ.get("MOMENTRAY_WORKERS", "unset"),
    }


def setup_sample():
    """One fresh interpreter, from spawn to its set-up done, in seconds."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1]) - start


class HostProbe:
    """Samples the host's speed while a pass runs.

    On the shared host, everything runs up to 1.6x as long for stretches
    of a fraction of a second to minutes, and process CPU time grows with
    it.  The probe is
    a fixed pure-Python loop with no momentray code in it; it takes
    PROBE_REF_S at full speed, so PROBE_REF_S over its time is the host's
    speed at that moment, and no change to the package can change it.  Of
    the probes tried (this loop; numpy products, sums and gathers; tiny
    numpy calls; list and dict walks; a fresh 5 MB array) this loop
    tracked the operations' times best.  One sample is the median of
    PROBE_REPS runs of the loop, so one interrupted run does not count.
    Inside ``sampling()`` a sample is taken at the start, then from a
    SIGALRM handler each PROBE_EVERY_S of the pass's own time, and at the
    end; the time the samples take is recorded so that it can be taken out
    of the pass.
    """

    def __init__(self):
        self.taken = []  # (wall_s, cpu_s, wall_s spent, cpu_s spent) per sample

    @staticmethod
    def loop():
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i % 7
        return acc

    def sample(self):
        walls, cpus = [], []
        for _ in range(PROBE_REPS):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            self.loop()
            walls.append(time.perf_counter() - wall0)
            cpus.append(time.process_time() - cpu0)
        self.taken.append(
            (statistics.median(walls), statistics.median(cpus), sum(walls), sum(cpus))
        )

    def _on_alarm(self, signum, frame):
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)  # re-armed after the sample

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def speed(self, key="wall_s"):
        """The share of full speed the host ran at while sampled.

        The samples are spread evenly over the pass's own time, so their
        mean of PROBE_REF_S / sample is the share for the whole pass.
        """
        col = 0 if key == "wall_s" else 1
        return statistics.fmean(PROBE_REF_S / q[col] for q in self.taken)


def no_span(name):
    return contextlib.nullcontext()


def run_passes(workload, seed, seconds, setup_runs=0):
    """Whole untraced passes that fit in `seconds`, at least one.

    Another pass starts only if a pass of the median length so far would
    still end in time.  Each pass runs inside HostProbe.sampling().  One
    set-up sample, between two host samples, follows each pass until
    there are `setup_runs` of them, so they are spread over the run; those
    still missing are taken after the last pass.  The collector is left to
    its own schedule: a gc.collect() before each pass made family-minorant
    passes of one process differ by up to 40%.
    """
    passes, lengths, setup = [], [], []
    began = time.perf_counter()

    def sample_setup():
        host = HostProbe()
        host.sample()
        took = setup_sample()
        host.sample()
        setup.append(
            {"as_timed": took, "at_full_speed": took * host.speed(), "probes": host.taken}
        )

    while True:
        host = HostProbe()
        start = time.perf_counter()
        with host.sampling():
            wall0, cpu0 = time.perf_counter(), time.process_time()
            verdicts = workload(seed, no_span)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            inside = host.taken[1:]  # the first sample came before wall0
        lengths.append(time.perf_counter() - start)
        # the work's own time: the pass less the samples taken inside it
        wall -= sum(q[2] for q in inside)
        cpu -= sum(q[3] for q in inside)
        passes.append(
            {
                "as_timed": {"wall_s": wall, "cpu_s": cpu},
                "at_full_speed": {
                    "wall_s": wall * host.speed("wall_s"),
                    "cpu_s": cpu * host.speed("cpu_s"),
                },
                "verdicts": verdicts,
                "probes": host.taken,
            }
        )
        if len(setup) < setup_runs:
            sample_setup()
        typical = statistics.median(lengths)
        pending = (setup_runs - len(setup)) * statistics.median(
            [s["as_timed"] for s in setup] or [0.0]
        )
        if time.perf_counter() - began + typical + pending > seconds:
            break
    while len(setup) < setup_runs:
        sample_setup()
    return passes, setup


def traced_pass(workload, seed):
    """One pass with every public package function recording spans."""
    import layers
    import tracer

    recorder = tracer.Recorder()
    undo = tracer.install(recorder, "momentray", layers.LAYERS, layers.HOOKS)
    try:
        wall0 = time.perf_counter()
        verdicts = workload(seed, lambda name: recorder.span(layers.OP_SPAN, op=name))
        wall = time.perf_counter() - wall0
    finally:
        undo()
    return recorder, {"as_timed": {"wall_s": wall}, "verdicts": verdicts}


def run_workload(name, seed, seconds, trace):
    """Measure one workload.

    Returns the result line, the record written to .bench_out, and the
    span recorder of the traced pass (None when trace is off).
    """
    import layers
    import workloads

    workload = workloads.WORKLOADS[name]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    recorder = None
    if trace:
        # leave room for the traced pass, which runs a little longer
        passes, _ = run_passes(workload, seed, seconds / 2.0)
        untraced_wall = statistics.median(p["as_timed"]["wall_s"] for p in passes)
        recorder, traced = traced_pass(workload, seed)
        passes.append(traced)
        metrics = layers.layer_metrics(recorder, traced["as_timed"]["wall_s"], untraced_wall)
        units = layers.UNITS
    else:
        passes, setup = run_passes(workload, seed, seconds, SETUP_RUNS)
        record["setup"] = setup
        metrics, record["as_timed"] = {}, {}
        for view, out in (("at_full_speed", metrics), ("as_timed", record["as_timed"])):
            for key in ("wall_s", "cpu_s"):
                out[key] = statistics.median(p[view][key] for p in passes)
            out["setup_s"] = statistics.median(s[view] for s in setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    # operations are deterministic: every pass must reach the same verdicts
    outcomes = [[(v.op, v.ok) for v in p["verdicts"]] for p in passes]
    consistent = all(o == outcomes[0] for o in outcomes)
    verdicts = passes[0]["verdicts"]
    result = {
        "correct": consistent and bool(verdicts),
        "attempted": len(verdicts),
        "failed": sum(not v.ok for v in verdicts),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record["passes"] = [
        {
            **{k: v for k, v in p.items() if k != "verdicts"},
            "verdicts": [[v.op, v.ok, v.detail, v.seconds] for v in p["verdicts"]],
        }
        for p in passes
    ]
    return result, record, recorder


def report(name, result, record, env, out):
    """Human-readable lines: environment, verdicts, every metric by name."""
    out.write(
        "environment: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
        + f" threads=1 ({','.join(THREAD_VARS)})\n"
    )
    out.write(
        f"workload {name}: seed {record['seed']}, {len(record['passes'])} pass(es), "
        f"trace {record['trace']}\n"
    )
    for op, ok, detail, _ in record["passes"][0]["verdicts"]:
        if not ok:
            out.write(f"  FAIL {op}: {detail}\n")
    out.write(
        f"  verdict: {result['attempted'] - result['failed']}/{result['attempted']} "
        f"operations pass, ops_failed {result['failed']}/{result['attempted']}, "
        f"correct={result['correct']}\n"
    )
    as_taken = record.get("as_timed", {})
    for key, metric in result["metrics"].items():
        line = f"  {key:<48} {metric['value']:>16.6g} {metric['unit']}"
        if key in as_taken:
            line += f"  (as timed: {as_taken[key]:.6g} {metric['unit']})"
        out.write(line + "\n")


def save(name, result, record, recorder, env):
    os.makedirs(OUT, exist_ok=True)
    stem = f"{name}-seed{record['seed']}-trace{record['trace']}"
    if recorder is not None:
        recorder.save(os.path.join(OUT, f"spans-{stem}.npz"))
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump({"environment": env, "result": result, **record}, fh, indent=1)
        fh.write("\n")


def run_all(args):
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            sys.stderr.write(f"workload {name} exited with code {done.returncode}\n")
            return 1
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        results[name] = json.loads(lines[-1])
    sys.stdout.write(json.dumps(results, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "momentray", "__init__.py")):
        sys.stderr.write(f"no momentray sources under {SRC}; run from a checkout\n")
        return 2
    pin_environment()
    if args.workload == "all":
        return run_all(args)

    import momentray

    if not os.path.abspath(momentray.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"imported momentray from {momentray.__file__}, not {SRC}\n")
        return 2
    env = environment()
    result, record, recorder = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    save(args.workload, result, record, recorder, env)
    report(args.workload, result, record, env, sys.stdout)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
