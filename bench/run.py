"""walkdim benchmark.

    python3 bench/run.py --workload exact-solve --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # the three, one after another

One caller issues one operation at a time (closed loop), with BLAS and
OpenMP pinned to one thread.  A run times its set-up in fresh
interpreters, makes one untimed warm-up pass, then repeats whole rounds
-- a fixed number of passes of library calls followed by one sweep of
the workload's README CLI commands, each in a fresh interpreter -- until
--seconds have passed and at least MIN_ROUNDS rounds are done.  Every output is checked (checks.py); an O(n^2) oracle
runs once after the rounds.  The last stdout line is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Lines before it, starting with '#', give the per-call and per-command
medians and every failed or wrong operation.
"""

import os

# Pin native thread pools before numpy is imported here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import inputs  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from inputs import BENCH, OUT_DIR, ROOT, SRC, WORKLOADS  # noqa: E402

MIN_ROUNDS = 3
# A round is this many passes and then one CLI sweep: single passes
# spread more than CLI commands on a shared machine.
PASSES_PER_ROUND = 2
SETUP_PROBES = 3
# No round starts after this much wall time, so a run ends well inside
# three minutes even on a slow machine.
ROUND_DEADLINE_S = 120.0
CHILD_TIMEOUT_S = 120.0
CLI_MAIN = "import sys; from walkdim.cli import main; sys.exit(main())"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Ledger:
    """Operations attempted and failed in the timed rounds, and every
    wrong output seen anywhere in the run."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []
        self.wrong: list[str] = []

    def note(self, counted: bool, label: str, error: BaseException, fault: bool) -> None:
        text = f"{label}: {type(error).__name__}: {error}"
        if fault:
            if counted:
                self.failed.append(text)
        else:
            self.wrong.append(text)


def run_pass(ops, state, ledger, counted, tracer=None):
    """One pass: time every operation, then check every output.  The
    previous pass's outputs are dropped first, so every pass starts from
    the same heap."""
    for op in ops:
        state.pop(op.key, None)
    gc.collect()
    step_times = {}
    raised = {}
    if tracer is not None:
        tracer.reset()
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            state[op.key] = op.run(state)
        except Exception as exc:  # a raising call is a failed operation
            state[op.key] = None
            raised[op.key] = exc
        step_times[op.key] = time.perf_counter() - t0
    wall = time.perf_counter() - start
    for op in ops:
        if counted:
            ledger.attempted += 1
        if op.key in raised:
            ledger.note(counted, op.key, raised[op.key], fault=True)
            continue
        try:
            op.check(state[op.key], state)
        except Exception as exc:
            ledger.note(counted, op.key, exc, fault=False)
            continue
        if op.fault is not None:
            try:
                op.fault(state[op.key], state)
            except workloads.checks.Mismatch as exc:
                ledger.note(counted, op.key, exc, fault=True)
    return wall, step_times


def run_command(command, state, ledger, spans_path=None):
    """One CLI command in a fresh interpreter; returns its wall time."""
    if spans_path is None:
        argv = [sys.executable, "-c", CLI_MAIN, *command.argv]
    else:
        argv = [sys.executable, str(BENCH / "cli_traced.py"), str(spans_path), *command.argv]
    label = "walkdim " + " ".join(command.argv)
    ledger.attempted += 1
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        ledger.note(True, label, exc, fault=True)
        return time.perf_counter() - t0
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        error = RuntimeError(f"exit {proc.returncode}: {(proc.stdout + proc.stderr).strip()[-400:]}")
        ledger.note(True, label, error, fault=True)
        return wall
    try:
        command.check(json.loads(proc.stdout), state)
    except Exception as exc:
        ledger.note(True, label, exc, fault=False)
    return wall


def probe_setup(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter to its inputs being ready."""
    argv = [sys.executable, str(BENCH / "probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed


def add_self_times(total: dict, spans) -> None:
    for layer, value in tracing.self_times(spans).items():
        total[layer] += value


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_start = time.perf_counter()
    setups = [] if trace else [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    ops, commands = workloads.workload(name, seed)
    state = inputs.setup(name, seed)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ledger = Ledger()
    run_pass(ops, state, ledger, counted=False)

    passes, steps, rounds_self, import_s = [], [], [], []
    cli_times = {c.metric: [] for c in commands}
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{os.getpid()}.json"
    timed_start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - timed_start < seconds:
        if rounds and time.perf_counter() - run_start >= ROUND_DEADLINE_S:
            break
        rounds += 1
        layer_self = dict.fromkeys(tracing.LAYERS, 0.0) if trace else None
        for _ in range(PASSES_PER_ROUND):
            wall, step_times = run_pass(ops, state, ledger, counted=True, tracer=tracer)
            passes.append(wall)
            steps.append(step_times)
            if trace:
                add_self_times(layer_self, tracer.spans)
                counts = dict(tracer.counts)
        for command in commands:
            cli_times[command.metric].append(
                run_command(command, state, ledger, spans_path if trace else None)
            )
            if trace and spans_path.exists():
                spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
                spans_path.unlink()
                add_self_times(layer_self, spans)
                import_s.extend(
                    end - start for span, start, end, _ in spans if span == f"walkdim.{tracing.IMPORT}"
                )
        if trace:
            rounds_self.append(layer_self)
    rss = peak_rss_mb()

    oracle = workloads.ORACLES.get(name)
    if oracle is not None:
        try:
            oracle(state)
        except Exception as exc:
            ledger.note(False, "oracle", exc, fault=False)

    per_call = {}
    for op in ops:
        per_call.setdefault(op.metric, []).extend(s[op.key] for s in steps)
    if trace:
        metrics = {"trace.pass_s": (statistics.median(passes), "s")}
        for layer in tracing.LAYERS:
            metrics[f"{layer}.self_s"] = (statistics.median(r[layer] for r in rounds_self), "s")
        metrics["cli.import_s"] = (statistics.median(import_s) if import_s else 0.0, "s")
        for key in tracing.COUNTER_NAMES:
            metrics[key] = (counts.get(key, 0), "count")
    else:
        metrics = {
            "pass_s": (statistics.median(passes), "s"),
            "cli_s": (sum(statistics.median(v) for v in cli_times.values()), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "rounds": rounds,
        "correct": not ledger.wrong,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "per_call_s": {k: statistics.median(v) for k, v in per_call.items()},
        "cli_command_s": {k: statistics.median(v) for k, v in cli_times.items()},
        "passes_s": passes,
        "setups_s": setups,
        "failures": ledger.failed,
        "wrong": ledger.wrong,
        "wall_s": time.perf_counter() - run_start,
    }


def report(result: dict) -> None:
    """'#' lines: everything the final JSON line leaves out."""
    print(
        f"# workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"rounds {result['rounds']} (+1 warm-up pass)  attempted {result['attempted']}  "
        f"failed {result['failed']}  correct {result['correct']}  wall {result['wall_s']:.1f} s"
    )
    for name, metric in result["metrics"].items():
        value = metric["value"]
        print(f"#   {name:34s} {value:.6g} {metric['unit']}" if isinstance(value, float) else f"#   {name:34s} {value} {metric['unit']}")
    print("# per call, median over the timed passes")
    for name, value in result["per_call_s"].items():
        print(f"#   {name:34s} {value:.6g} s")
    print("# per CLI command, median over the rounds")
    for name, value in result["cli_command_s"].items():
        print(f"#   {name:34s} {value:.6g} s")
    for text, count in collections.Counter(result["failures"]).items():
        print(f"# failed x{count}: {text}")
    for text, count in collections.Counter(result["wrong"]).items():
        print(f"# WRONG x{count}: {text}")


def final_line(result: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({k: result[k] for k in keys})


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "walkdim" / "__init__.py").is_file():
        print(f"walkdim sources not found under {SRC}; run from a walkdim checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    report(result)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
