"""clskit benchmark: drives ``clskit.cli.main`` in-process, one command
after another (a closed loop with one client), on seeded inputs.

    python3 perfbench/run.py --workload recipe --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; it uses the clskit sources in ``src/`` next to this
directory and writes only under ``.perfbench_out/`` there.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("recipe", "train_large", "score_large")
SETUP_REPS = 5  # set-up runs per benchmark run; setup_s is their median
SPEED_SAMPLES = 20  # CPU-speed samples before and after set-up
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
COMMAND_KINDS = ("train", "sweep", "fuse", "eval")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, set-up failed)."""


def load_cli():
    """Import ``clskit.cli`` from ``ROOT/src`` and nowhere else."""
    package = ROOT / "src" / "clskit"
    if not (package / "cli.py").is_file():
        raise BenchError(f"no clskit sources at {package}")
    if str(package.parent) not in sys.path:
        sys.path.insert(0, str(package.parent))
    import clskit.cli

    if Path(clskit.cli.__file__).resolve().parent != package.resolve():
        raise BenchError(f"clskit was imported from {clskit.cli.__file__}, not {package}")
    return clskit.cli


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``root/.git`` only."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, **{var: os.environ.get(var) for var in THREAD_VARS},
            "commit": git_commit(ROOT)}


def tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def timed_setup(workload: str, seed: int, out: Path, scale: str) -> float:
    """Seconds for a fresh interpreter to import clskit.cli and write the inputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(out), scale]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up of {workload} failed: {proc.stderr.strip()}")
    return elapsed


@dataclass
class OpResult:
    start: float  # time.perf_counter() when the command began
    seconds: float
    code: int | None  # None: main raised
    stdout: str
    stderr: str


def run_op(cli, argv: list[str]) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash fails this operation, not the whole run
            code = None
            traceback.print_exc()
    return OpResult(start, time.perf_counter() - start, code, out.getvalue(), err.getvalue())


def op_digest(op, stdout: str) -> str:
    digest = hashlib.sha256(stdout.encode())
    for path in op.outputs:
        try:
            with open(path, "rb") as handle:
                digest.update(hashlib.sha256(handle.read()).digest())
        except OSError:
            digest.update(b"missing")
    return digest.hexdigest()


@dataclass
class Rep:
    traced: bool
    results: list[OpResult]
    digests: list[str]
    failed: set[int]
    busy: list[float]  # per command: seconds at the reference speed
    layers: dict | None = None

    @property
    def wall(self) -> float:
        return sum(self.busy)

    @property
    def measured_wall(self) -> float:
        return sum(result.seconds for result in self.results)


def run_rep(cli, plan, index: int, recorder=None, speedometer=None) -> Rep:
    """One repetition of the plan's commands, traced by ``recorder`` or
    sampled by ``speedometer`` if given."""
    plan.reset()
    first = len(recorder.spans) if recorder else 0
    results = []
    since = time.perf_counter()
    if recorder:
        context = recorder.installed()
    else:
        context = speedometer.running() if speedometer else nullcontext()
    with context:
        if recorder:
            recorder.counts.clear()
        for op_index, op in enumerate(plan.ops):
            if recorder:
                recorder.run = f"{index}:{op_index}"
            results.append(run_op(cli, op.argv))
    if speedometer:
        speedometer.sample()  # a rep shorter than the period still gets one
        busy = speedometer.at_reference([(r.start, r.seconds) for r in results],
                                        speedometer.scale(since))
    else:
        busy = [result.seconds for result in results]
    digests = [op_digest(op, result.stdout) for op, result in zip(plan.ops, results)]
    failed = {k for k, result in enumerate(results) if result.code != 0}
    failed |= plan.check([result.stdout for result in results])
    layers = recorder.layer_metrics(first) if recorder else None
    return Rep(recorder is not None, results, digests, failed, busy, layers)


def run_reps(cli, plan, seconds: float, recorder=None, speedometer=None) -> list[Rep]:
    """Repetitions for ``seconds``: at least two, and with a recorder
    alternately untraced and traced, in whole pairs.  Stops before a
    repetition (or pair) that would end after ``seconds``."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        traced = recorder is not None and len(reps) % 2 == 1
        rep = run_rep(cli, plan, len(reps), recorder if traced else None, speedometer)
        if reps:  # every repetition reproduces the first one's bytes
            rep.failed |= {k for k, d in enumerate(rep.digests) if d != reps[0].digests[k]}
        reps.append(rep)
        step = reps[-2:] if recorder else reps[-1:]
        if len(reps) >= 2 and not (recorder and len(reps) % 2):
            if time.perf_counter() - start + sum(r.measured_wall for r in step) > seconds:
                return reps


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", out: Path = OUT) -> dict:
    """One benchmark run: set-up, repetitions and checks.  Returns the
    result document, which also goes to ``result.json``."""
    cli = load_cli()
    import speed
    import tracer
    import workloads

    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    base = out / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(base, ignore_errors=True)
    # Times are reported at the reference CPU speed (see speed.py).  Set-up
    # runs in other processes, so it is scaled by samples taken around it.
    speedometer = speed.Speedometer()
    since = time.perf_counter()
    speedometer.sample(SPEED_SAMPLES)
    measured_setup = [timed_setup(workload, seed, base / f"setup{k}", scale)
                      for k in range(SETUP_REPS)]
    speedometer.sample(SPEED_SAMPLES)
    setup_times = [seconds * speedometer.scale(since) for seconds in measured_setup]
    inputs = base / "setup0"
    for k in range(1, SETUP_REPS):
        if tree_digest(base / f"setup{k}") != tree_digest(inputs):
            raise BenchError(f"set-up of {workload} wrote different inputs on repetition {k}")
        shutil.rmtree(base / f"setup{k}")
    plan = workloads.plan(workload, seed, str(inputs), str(base / "work"),
                          workloads.SCALES[scale])
    recorder = tracer.Tracer() if trace else None
    # Traced repetitions are not sampled, so spans hold no handler time.
    reps = run_reps(cli, plan, seconds, recorder, None if trace else speedometer)

    plain = [rep for rep in reps if not rep.traced]
    walls = [rep.wall for rep in plain]
    commands = {}
    samples = {"setup_s": len(setup_times), "wall_s": len(walls)}
    for kind in COMMAND_KINDS:
        times = [busy for rep in plain for op, busy in zip(plan.ops, rep.busy) if op.kind == kind]
        if times:
            commands[f"{kind}_s"] = {"value": statistics.median(times), "unit": "s"}
            samples[f"{kind}_s"] = len(times)
    if recorder:
        traced = [rep for rep in reps if rep.traced]
        metrics = {name: {"value": statistics.median(rep.layers[name] for rep in traced),
                          "unit": unit}
                   for name, unit, _ in tracer.per_layer_catalog() if name != "trace_overhead"}
        overhead = statistics.median(rep.wall for rep in traced) / statistics.median(walls)
        metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
        recorder.write_jsonl(str(base / "spans.jsonl"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    attempted = sum(len(rep.results) for rep in reps)
    failed = sum(len(rep.failed) for rep in reps)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "env": environment(), "reps": len(reps),
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "metrics": metrics, "commands": commands, "samples": samples,
        "each": {"setup_s": setup_times, "wall_s": walls, "measured_setup_s": measured_setup,
                 "measured_wall_s": [rep.measured_wall for rep in plain]},
        "missing": recorder.missing if recorder else [],
        "failures": [{"rep": r, "op": k, "argv": plan.ops[k].argv, "code": rep.results[k].code,
                      "stderr": rep.results[k].stderr[-2000:]}
                     for r, rep in enumerate(reps) for k in sorted(rep.failed)],
    }
    with open(base / "result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    return result


def report(result: dict) -> list[str]:
    """Human-readable lines of one result."""
    env = " ".join(f"{key}={value}" for key, value in result["env"].items())
    lines = [f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}"
             f"  reps {result['reps']}", f"env {env}"]
    samples = result["samples"]
    for name, entry in {**result["metrics"], **result["commands"]}.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        lines.append(f"{name:<45} {entry['value']:>14.6f} {entry['unit']}{count}")
    for name, values in result["each"].items():
        lines.append(f"{'each ' + name:<45} " + " ".join(f"{v:.4f}" for v in values))
    lines.append(f"{'fail_ratio':<45} {result['fail_ratio']:>14.6f} ratio"
                 f"  ({result['failed']} failed / {result['attempted']} attempted)")
    for name in result["missing"]:
        lines.append(f"not traced: {name} no longer exists")
    for failure in result["failures"][:5]:
        lines.append(f"FAILED rep {failure['rep']} op {failure['op']}: "
                     f"{' '.join(failure['argv'])} -> {failure['code']} "
                     f"{failure['stderr'].strip()}")
    return lines


def last_line(result: dict) -> str:
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]})


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own), then a
    table of the end-to-end metrics of all of them."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}" / "result.json"
        results[workload] = json.loads(path.read_text())
    names = [name for name, _ in END_TO_END] + [f"{kind}_s" for kind in COMMAND_KINDS]
    print(f"{'metric':<14}" + "".join(f"{w:>22}" for w in WORKLOADS))
    if not args.trace:
        for name in names:
            cells = []
            for workload in WORKLOADS:
                res = results[workload]
                entry = res["metrics"].get(name) or res["commands"].get(name)
                cells.append(f"{entry['value']:.4f} {entry['unit']} n={res['samples'].get(name, 1)}"
                             if entry else "n/a")
            print(f"{name:<14}" + "".join(f"{cell:>22}" for cell in cells))
    print(f"{'fail_ratio':<14}" + "".join(
        f"{results[w]['fail_ratio']:>22.4f}" for w in WORKLOADS))
    attempted = sum(res["attempted"] for res in results.values())
    failed = sum(res["failed"] for res in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {f"{w}.{name}": entry for w, res in results.items()
                                  for name, entry in res["metrics"].items()}}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One compute thread, fixed before numpy is first imported; set-up
    # processes inherit it.
    os.environ.update({var: "1" for var in THREAD_VARS})
    if args.workload == "all":
        return run_all(args)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report(result)))
    print(last_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
