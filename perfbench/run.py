"""segrecall benchmark: runs the CLI the way a user does and checks its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it uses ``src/segrecall`` of
the checkout it lives in. Inputs are generated once per workload, seed and
size into ``.perfbench_work/`` (outside the timed part), and the program
receives only those files.

A closed loop: one client runs one command at a time, each in its own
process, and waits for it to finish. After a set-up phase, passes over the
workload's commands repeat until the next one would end after S seconds
(two passes at least, so that repeat runs can be compared).

``--trace 0`` prints the end-to-end metrics, measured without tracing.
``--trace 1`` alternates an untraced pass with a traced one, in which every
command runs under ``traced.py``, and prints the per-layer metrics: span
times and counts per library function, the untraced time of each command,
and the tracing overhead (traced minus untraced pass wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment. The full record of a run, samples and span tables
included, goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, Op  # noqa: E402

SETUP_ARGS = ["arch", "--variant", "basic"]
SETUP_SAMPLES = 9  # setup_s is the median of this many fresh processes
MIN_PASSES = 2
# A run must end within 180 s: no new pass starts after RUN_BUDGET_S, and a
# command still running at DEADLINE_S after the start is killed and fails.
RUN_BUDGET_S = 120.0
DEADLINE_S = 165.0
STARTED = time.monotonic()

# Per-layer metrics: (metric, span name, statistic, unit). Spans are
# named module.function after the module that defines the function.
LAYER_METRICS = [
    ("decision.gaussian_smooth.s", "decision.gaussian_smooth", "s", "s"),
    ("decision.gaussian_smooth.calls", "decision.gaussian_smooth", "calls", "count"),
    ("decision.class_frequencies.s", "decision.class_frequencies", "s", "s"),
    ("decision.estimate_priors.self_s", "decision.estimate_priors", "self_s", "s"),
    ("decision.decide_ml.s", "decision.decide_ml", "s", "s"),
    ("decision.decide_bayes.s", "decision.decide_bayes", "s", "s"),
    ("fileio.read_sft.s", "fileio.read_sft", "s", "s"),
    ("fileio.read_sft.bytes", "fileio.read_sft", "bytes", "B"),
    ("core.ProbMap.init_s", "core.ProbMap.__post_init__", "s", "s"),
    ("core.validate_probmap.s", "core.validate_probmap", "s", "s"),
    ("fileio.read_pgm.s", "fileio.read_pgm", "s", "s"),
    ("fileio.write_pgm.s", "fileio.write_pgm", "s", "s"),
    ("core.LabelMap.from_array.s", "core.LabelMap.from_array", "s", "s"),
    ("fileio.write_sft.s", "fileio.write_sft", "s", "s"),
    ("fileio.write_sft.bytes", "fileio.write_sft", "bytes", "B"),
    ("metrics.accumulate.s", "metrics.accumulate", "s", "s"),
    ("metrics.summarize.s", "metrics.summarize", "s", "s"),
    ("metrics.render_metrics_csv.s", "metrics.render_metrics_csv", "s", "s"),
    ("losses.ial.s", "losses.ial", "s", "s"),
    ("losses.ial_gradient.self_s", "losses.ial_gradient", "self_s", "s"),
    ("losses.dynamic_weight.s", "losses.dynamic_weight", "s", "s"),
    ("losses.dynamic_weight.calls", "losses.dynamic_weight", "calls", "count"),
    ("losses.cross_entropy.s", "losses.cross_entropy", "s", "s"),
    ("gcn.classify_features.s", "gcn.classify_features", "s", "s"),
    ("gcn.gcn_forward.s", "gcn.gcn_forward", "s", "s"),
    ("archcalc.report_variant.s", "archcalc.report_variant", "s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
]
# Untraced wall time of each command (loss_step_s: time inside ial + ial_gradient).
COMMAND_METRICS = ["priors_s", "decide_ml_s", "decide_bayes_s", "evaluate_s",
                   "loss_ial_s", "loss_wce_s", "loss_step_s", "gcn_s"]


# ---------------------------------------------------------------- processes


@dataclass
class Sample:
    """One finished child process."""

    metric: str
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    digest: str = ""
    traced: bool = False


class Runner:
    """Starts each command in a fresh process and waits for it with wait4,
    which gives that child's own peak RSS and CPU time."""

    def __init__(self, log_dir: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.log_dir = log_dir
        self.count = 0

    def argv(self, op: Op, spans: Path | None) -> list[str]:
        if spans is not None:
            return [sys.executable, str(BENCH / "traced.py"), str(spans), op.entry, *op.args]
        if op.entry == "cli":
            return [sys.executable, "-m", "segrecall.cli", *op.args]
        return [sys.executable, str(BENCH / "step.py"), *op.args]

    def run(self, op: Op, spans: Path | None = None) -> Sample:
        self.count += 1
        log = self.log_dir / f"{self.count:04d}-{op.metric}"
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(self.argv(op, spans), stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(max(STARTED + DEADLINE_S - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(op.metric, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, Path(f"{log}.out").read_bytes(),
                      traced=spans is not None)


def digest(out: Path, names: list[str]) -> str:
    """SHA-256 over the relative paths and bytes of the named outputs."""
    h = hashlib.sha256()
    for name in names:
        target = out / name
        files = sorted(target.rglob("*")) if target.is_dir() else [target]
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(out)).encode() + b"\0")
                # Streamed: reading a large output whole would raise this
                # process's peak RSS, which every later child inherits in
                # its ru_maxrss.
                with open(f, "rb") as stream:
                    while chunk := stream.read(1 << 20):
                        h.update(chunk)
            elif not f.exists():
                h.update(b"missing:" + str(f.relative_to(out)).encode())
    return h.hexdigest()


def clear(out: Path, names: list[str]) -> None:
    for name in names:
        target = out / name
        if target.is_dir():
            shutil.rmtree(target)
        elif target.exists():
            target.unlink()


# ------------------------------------------------------------------- inputs


def prepare_inputs(workload: str, seed: int, size: str = "bench") -> tuple[Path, dict]:
    """Generate (or reuse) the inputs of one workload, seed and size.

    Only the most recent input set of each workload is kept on disk."""
    base = WORK / workload
    inp = base / f"inputs-{size}-{seed}"
    marker = inp / "inputs.json"
    if not marker.exists():
        if base.exists():
            for old in base.glob("inputs-*"):
                shutil.rmtree(old)
        cmd = [sys.executable, str(BENCH / "inputs.py"), workload, str(seed), str(inp)]
        subprocess.run(cmd + (["--tiny"] if size == "tiny" else []), check=True,
                       timeout=DEADLINE_S)
    return inp, json.loads(marker.read_text())


# ------------------------------------------------------------------- passes


@dataclass
class Pass:
    traced: bool
    samples: list[Sample] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.samples)


def run_pass(runner: Runner, ops: list[Op], out: Path, traced: bool, with_setup: bool,
             tag: str) -> Pass:
    """Run every op once, in order; ``with_setup`` puts one set-up command first."""
    result = Pass(traced)
    seq = ([Op("setup_s", "cli", SETUP_ARGS, [])] if with_setup else []) + ops
    for i, op in enumerate(seq):
        clear(out, op.outputs)
        spans = out / "spans" / f"{tag}-{i}-{op.metric}.json" if traced else None
        sample = runner.run(op, spans)
        sample.digest = digest(out, op.outputs) if op.outputs else ""
        result.samples.append(sample)
        if spans is not None:
            result.spans.append(spans)
    return result


def aggregate_spans(files: list[Path]) -> tuple[dict, float]:
    """Per-name totals (s, self_s, calls, pixels, bytes) and the pool utilisation.

    Pool utilisation is the busy time of worker-thread top-level spans divided
    by jobs x the wall time of ``cli.main``, over commands run with --jobs > 1."""
    table: dict = {}
    busy = capacity = 0.0
    for path in files:
        if not path.exists():
            continue
        record = json.loads(path.read_text())
        spans = record["spans"]
        covered = [0.0] * len(spans)
        for name, on_main, parent, start, end, pixels, nbytes in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, on_main, parent, start, end, pixels, nbytes) in enumerate(spans):
            row = table.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0,
                                          "pixels": 0, "bytes": 0})
            row["s"] += end - start
            row["self_s"] += end - start - covered[i]
            row["calls"] += 1
            row["pixels"] += pixels
            row["bytes"] += nbytes
        argv = record["argv"]
        jobs = int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1
        roots = [s for s in spans if s[0] == "cli.main" and s[2] < 0]
        if record["entry"] == "cli" and jobs > 1 and roots:
            busy += sum(s[4] - s[3] for s in spans if not s[1] and s[2] < 0)
            capacity += jobs * (roots[0][4] - roots[0][3])
    return table, (busy / capacity if capacity else 0.0)


# ----------------------------------------------------------------- checking


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def run_checks(checks: dict) -> dict[str, list[str]]:
    """Run each op's reference check; a check that cannot run is a problem too."""
    problems = {}
    for metric, check in checks.items():
        try:
            problems[metric] = check()
        except Exception as exc:  # a missing or malformed output fails its check
            problems[metric] = [f"check could not run: {exc!r}"]
    return problems


def verify(tally: Tally, samples: list[Sample], problems: dict[str, list[str]]) -> None:
    """Every command must exit 0, write what the first run of it wrote, and
    pass its reference check; a failed check fails every run of that command."""
    first: dict[str, Sample] = {}
    for s in samples:
        base = first.setdefault(s.metric, s)
        same = s.digest == base.digest and (s.metric != "setup_s" or s.stdout == base.stdout)
        bad = problems.get(s.metric, [])
        if s.code:
            tally.record(False, f"{s.metric}: exit {s.code}")
        elif not same:
            tally.record(False, f"{s.metric}: output differs from the first run")
        else:
            tally.record(not bad, f"{s.metric}: {bad[0] if bad else ''}")


# -------------------------------------------------------------- environment


def cpu_ticks() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (user, nice, system, idle, ..., steal)."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def environment(seed: int, inputs: dict, ticks_before: list[int]) -> dict:
    """Host, versions and inputs of a run. ``cpu_steal_share`` is the share of
    CPU time the hypervisor gave to other guests while the run lasted, which
    explains runs that are slow for reasons outside the program."""
    import numpy

    def first_line(path: str, key: str) -> str | None:
        try:
            with open(path) as f:
                return next((l.split(":", 1)[1].strip() for l in f if l.startswith(key)), None)
        except OSError:
            return None

    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "segrecall").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    version = re.search(r"^__version__\s*=\s*[\"']([^\"']+)", (ROOT / "src/segrecall/__init__.py")
                        .read_text(), re.MULTILINE)
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "mem_total": first_line("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "segrecall": version[1] if version else None,
        "src_sha256": src.hexdigest(),
        "git_commit": commit,
        "seed": seed,
        "inputs": inputs,
        "cpu_steal_share": steal_share(ticks_before, cpu_ticks()),
    }


def steal_share(before: list[int], after: list[int]) -> float | None:
    if len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


# --------------------------------------------------------------------- main


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    ticks = cpu_ticks()
    inp, inputs = prepare_inputs(name, seed)
    out = WORK / name / "out"
    if out.exists():
        shutil.rmtree(out)
    (out / "logs").mkdir(parents=True)
    (out / "spans").mkdir()
    runner = Runner(out / "logs")
    tally = Tally()
    samples: list[Sample] = []

    for op in workload.setup(inp, out):
        samples.append(runner.run(op))
        samples[-1].digest = digest(out, op.outputs)
    setup_op = Op("setup_s", "cli", SETUP_ARGS, [])
    setup = [runner.run(setup_op) for _ in range(SETUP_SAMPLES)]
    samples += setup

    ops = workload.ops(inp, out)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        if trace:
            passes.append(run_pass(runner, ops, out, False, True, f"u{len(passes)}"))
            passes.append(run_pass(runner, ops, out, True, True, f"t{len(passes)}"))
        else:
            passes.append(run_pass(runner, ops, out, False, False, f"u{len(passes)}"))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(passes) * (2 if trace else 1)
        if len(passes) >= MIN_PASSES and (elapsed + per_round > seconds
                                          or elapsed > RUN_BUDGET_S):
            break
    for p in passes:
        samples += p.samples

    verify(tally, samples, run_checks(workload.check(inp, out)))
    plain = [p for p in passes if not p.traced]
    record = {"workload": name, "why": workload.why, "seconds": seconds, "trace": trace,
              "environment": environment(seed, inputs, ticks),
              "samples": [{k: v for k, v in vars(s).items() if k != "stdout"} for s in samples],
              "problems": tally.problems}
    if not trace:
        metrics = {
            "setup_s": (median(s.wall_s for s in setup), "s"),
            "wall_s": (median(p.wall_s for p in plain), "s"),
            "cpu_s": (median(sum(s.cpu_s for s in p.samples) for p in plain), "s"),
            "peak_rss_mb": (median(max(s.maxrss_mb for s in p.samples) for p in plain), "MB"),
            "success_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        }
    else:
        traced = [p for p in passes if p.traced]
        tables = [aggregate_spans(p.spans) for p in traced]
        record["span_tables"] = [t for t, _ in tables]
        metrics = {
            metric: (median(t.get(span, {}).get(stat, 0) for t, _ in tables), unit)
            for metric, span, stat, unit in LAYER_METRICS
        }
        metrics["cli.pool_util"] = (median(u for _, u in tables), "ratio")
        for metric in COMMAND_METRICS:
            metrics[metric] = (median(command_time(s) for p in plain for s in p.samples
                                      if s.metric == metric), "s")
        metrics["trace.overhead_s"] = (median(p.wall_s for p in traced)
                                       - median(p.wall_s for p in plain), "s")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["attempted"], record["failed"] = tally.attempted, tally.failed
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def command_time(sample: Sample) -> float:
    if sample.metric == "loss_step_s" and sample.code == 0:
        return json.loads(sample.stdout.decode().strip().splitlines()[-1])["step_s"]
    return sample.wall_s


def sources_present() -> bool:
    if (ROOT / "src" / "segrecall" / "cli.py").is_file():
        return True
    print(f"error: no segrecall sources at {ROOT / 'src' / 'segrecall'}", file=sys.stderr)
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description="segrecall benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not sources_present():
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}, sort_keys=True))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
