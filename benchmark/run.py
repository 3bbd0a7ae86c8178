"""Benchmark for qhgrass: run one workload, check every output, print metrics.

    python3 benchmark/run.py --workload section-qh --seed 1 --seconds 10 --trace 0

Every operation is a real CLI command, `qhgrass.cli.run([..., "--format",
"json"])`, run in this process and thread.  Before each one, outside the timed
region, every `functools.lru_cache` in the qhgrass modules is cleared and
`gc.collect()` runs, so each operation pays what a fresh command pays, minus
interpreter start-up.  Passes over the workload repeat until `--seconds` have
passed (at least one whole pass).

With `--trace 0` the last line of standard output is a JSON object with
cpu_s (median over passes of the CPU seconds of one pass), peak_rss_mib (peak
resident set of this process, read before the checks) and setup_s (median
CPU seconds a fresh interpreter takes to import qhgrass.cli and build its
parser, over launches spread across the first pass).  Both times are scaled to
a reference machine speed by `calibrate.py`; the raw figures are kept in
benchmark/out/result-<workload>.json.  With `--trace 1` the run makes one
untraced and one traced pass and reports the per-layer metrics of `spans.py`,
times scaled the same way; the raw spans go to
benchmark/out/trace-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import calibrate
from spans import Tracer
from workloads import WORKLOADS, Context, check_document

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "qhgrass"
FORMAT = ("--format", "json")
SETUP_LAUNCHES = 15
SETUP_CALIBRATION_ROUNDS = 5
# Run in a fresh interpreter with -I: argv[1] is src/, argv[2] this directory.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.process_time()
import qhgrass.cli
qhgrass.cli.build_parser()
elapsed = time.process_time() - start
if not qhgrass.cli.__file__.startswith(sys.argv[1]):
    sys.exit("qhgrass was not imported from " + sys.argv[1])
sys.path.insert(0, sys.argv[2])
import calibrate
from spans import Tracer
from workloads import WORKLOADS, Context, check_document
rounds = [calibrate.time_round() for _ in range(int(sys.argv[3]))]
print(repr(elapsed), repr(sum(rounds) / len(rounds)))
"""


def import_cli():
    """Import qhgrass.cli from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import qhgrass.cli as cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import qhgrass from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: qhgrass was imported from {cli.__file__}, not from {SRC}")
    return cli


def clear_caches() -> None:
    """Clear every lru_cache reachable from a qhgrass module or class, found by
    introspection (following __wrapped__ through decorators), then collect."""
    seen: set[int] = set()
    for name, module in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        values = list(vars(module).values())
        for value in list(values):
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                values.extend(vars(value).values())
        for obj in values:
            while obj is not None and id(obj) not in seen:
                seen.add(id(obj))
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()
                obj = getattr(obj, "__wrapped__", None)
    gc.collect()


def run_command(cli, argv) -> tuple[int | None, str, str]:
    """One CLI command with captured output; exit code None for a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_pass(cli, ops, tracer=None, before_op=None, sampler=None) -> tuple[float, list]:
    """Raw CPU seconds of one pass and each op's output.  Cache clearing,
    `before_op(i)` and the sampler's calibration rounds are not counted."""
    cpu = 0.0
    outputs = []
    for i, op in enumerate(ops):
        if before_op is not None:
            before_op(i)
        clear_caches()
        if tracer is not None:
            tracer.op_id = i
        spent = sampler.spent if sampler else 0.0
        start = time.process_time()
        result = run_command(cli, op.argv + FORMAT)
        cpu += time.process_time() - start
        if sampler:
            cpu -= sampler.spent - spent
        outputs.append(result)
    return cpu, outputs


def check_passes(cli, ops, passes) -> tuple[int, list[str]]:
    """Failed operations over all passes, and every check error."""

    def reference(argv):
        clear_caches()
        return run_command(cli, argv)

    ctx = Context(reference)
    failed = 0
    errors: list[str] = []
    checked: set[tuple[int, str]] = set()
    for outputs in passes:
        for i, (op, (code, out, _)) in enumerate(zip(ops, outputs)):
            if code != op.expect_exit:
                failed += 1
                continue
            if op.check is None or (i, out) in checked:
                continue
            checked.add((i, out))
            try:
                check_document(op, json.loads(out), ctx)
            except Exception as exc:  # any fault in a document is a failed check
                errors.append(f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}")
    return failed, errors


def launch_setup() -> tuple[float, float]:
    """Raw CPU seconds a fresh interpreter spends importing qhgrass.cli and
    building its parser, and its mean calibration round right after."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE), str(SETUP_CALIBRATION_ROUNDS)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up launch failed: {proc.stderr.strip()}")
    elapsed, round_s = map(float, proc.stdout.split())
    return elapsed, round_s


def setup_schedule(ops, launches: list[tuple[float, float]]):
    """A before_op hook that spreads SETUP_LAUNCHES launches over the pass,
    so that set-up is sampled across the run rather than in one burst."""
    plan = Counter(j * len(ops) // SETUP_LAUNCHES for j in range(SETUP_LAUNCHES))

    def before_op(i):
        for _ in range(plan[i]):
            launches.append(launch_setup())

    return before_op


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure(cli, ops, seconds: float) -> tuple[dict, dict, list]:
    """End-to-end metrics, the raw figures behind them, and every pass's outputs."""
    launches: list[tuple[float, float]] = []
    raw_cpus, scales, passes = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        hook = None if passes else setup_schedule(ops, launches)
        with calibrate.Sampler() as sampler:
            cpu, outputs = run_pass(cli, ops, before_op=hook, sampler=sampler)
        raw_cpus.append(cpu)
        scales.append(sampler.scale())
        passes.append(outputs)
    rss = peak_rss_mib()
    cpu_s = statistics.median(c * s for c, s in zip(raw_cpus, scales))
    setup_s = statistics.median(e * calibrate.REFERENCE_S / r for e, r in launches)
    metrics = {
        "cpu_s": {"value": cpu_s, "unit": "s"},
        "peak_rss_mib": {"value": rss, "unit": "MiB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    raw = {
        "pass_cpu_s": raw_cpus,
        "pass_scale": scales,
        "setup_import_s": [e for e, _ in launches],
        "setup_round_s": [r for _, r in launches],
    }
    return metrics, raw, passes


def trace(cli, ops, path) -> tuple[dict, list, list[str]]:
    """Per-layer metrics from one traced pass, after one untraced pass."""
    with calibrate.Sampler() as sampler:
        untraced_cpu, untraced = run_pass(cli, ops, sampler=sampler)
    untraced_s = untraced_cpu * sampler.scale()
    with calibrate.Sampler() as sampler:
        tracer = Tracer(PACKAGE, clock=lambda: time.process_time() - sampler.spent)
        tracer.install()
        try:
            traced_cpu, traced = run_pass(cli, ops, tracer, sampler=sampler)
        finally:
            tracer.uninstall()
    scale = sampler.scale()
    tracer.write(path, [list(op.argv) for op in ops])
    metrics = tracer.metrics(traced_cpu * scale - untraced_s, scale)
    return metrics, [untraced, traced], tracer.absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    ops = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    raw = None
    if args.trace:
        metrics, passes, absent = trace(cli, ops, OUT / f"trace-{args.workload}.jsonl")
        if absent:
            print("absent (the function no longer exists): " + ", ".join(absent))
    else:
        metrics, raw, passes = measure(cli, ops, args.seconds)

    failed, errors = check_passes(cli, ops, passes)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "metrics": metrics,
    }
    print(f"workload {args.workload}: seed {args.seed}, {len(passes)} pass(es) of {len(ops)} operations")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:>20} {metric['unit']}")
    record = dict(result, workload=args.workload, seed=args.seed, raw=raw)
    (OUT / f"result-{args.workload}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
