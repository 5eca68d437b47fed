"""Benchmark for the hgpoly CLI: seeded workloads timed end to end, and
a traced in-process run for per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload homology --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

With --trace 0 every op is one or more `python -m hgpoly.cli`
subprocesses run back to back by a single client (a closed loop), and
the last line of output is a JSON object with the end-to-end metrics.
Op and set-up times are scaled by the machine speed measured while they
ran (see SpeedSampler), so they read as seconds at a fixed speed.
With --trace 1 one pass of the same inputs runs in-process, each op once
untraced and once under the outside-in tracer, and the metrics are the
per-layer numbers. `--workload all` runs every workload and prints one
table. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402

# Seconds one pass adds to a run (its ops, set-up probes, input
# generation, reference values and output checks), as measured on a
# 2-core x86-64 VM whose speed drifts by up to 40%. A run makes
# floor(seconds / pass) whole passes, at least one, so the op count, and
# with it the tail percentile, depends only on the workload and
# --seconds, never on machine speed.
NOMINAL_PASS_S = {"corpus": 4.6, "homology": 6.6, "sweep": 6.9, "deck": 6.0}
# A run starts no op after RUN_LIMIT_S and kills any process still
# running 30 s later, so it exits within 180 s even if the program
# became several times slower.
RUN_LIMIT_S = 120.0
TAIL_BEYOND = 10
# Speed normalisation. The machine the benchmark was built on (a 2-core
# x86-64 VM) switches between a fast and a ~1.6x slower state every 0.1
# to 2 s, and the mix drifts over minutes, which moved whole runs by up
# to 40%. While ops run, a thread times a fixed pure-Python loop of
# SAMPLE_LOOPS iterations every SAMPLE_PERIOD_S: wall time minus the time
# the thread waited for a core (see SpeedSampler). Every op time is
# scaled by SAMPLE_NOMINAL_S / (mean sample during the op), so timings
# read as seconds on a machine where one sample takes SAMPLE_NOMINAL_S,
# about that VM's median. A set-up probe is short, so its window is
# widened until it holds SAMPLES_MIN samples.
SAMPLE_PERIOD_S = 0.05
SAMPLE_LOOPS = 5_000
SAMPLE_NOMINAL_S = 0.0022
SAMPLES_MIN = 8
SETUP_WARMUPS = 2
IMPORT_SAMPLES = 7
DECK_TARGETS = ("S", "P", "fvector", "hilbert", "betti")
HILBERT_TERMS = 20  # the CLI's --terms default

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ok_ratio": "1",
}


class SetupError(Exception):
    pass


@dataclass
class Op:
    index: int
    input: Path
    outputs: list[Path] = field(default_factory=list)
    wall: float = 0.0
    rss_mb: float = 0.0
    exit_codes: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    wrong: bool = False  # ran to completion but failed a check

    @property
    def ok(self) -> bool:
        return not self.problems


class Bench:
    """Paths, child environment and inputs of one run."""

    def __init__(self, workload: str, seed: int, root: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.root = root
        self.src = root / "src"
        if not (self.src / "hgpoly" / "cli.py").is_file():
            raise SetupError(f"{self.src / 'hgpoly'} not found; run from the root of an hgpoly checkout")
        self.build = root / ".bench_build" / "perfbench"
        self.work = self.build / f"{workload}-{seed}-{os.getpid()}"
        self.pycache = self.build / "pycache"
        # Byte-code caching on, into a prefix under .bench_build: an
        # installed program runs from cached byte code, and the checkout's
        # own files stay untouched.
        env = {k: v for k, v in os.environ.items() if k not in ("HGPOLY_LIMITS", "PYTHONDONTWRITEBYTECODE")}
        env["PYTHONPATH"] = str(self.src)
        env["PYTHONPYCACHEPREFIX"] = str(self.pycache)
        self.env = env
        self.cli = [sys.executable, "-m", "hgpoly.cli"]
        self.launcher = Launcher(env)

    def spawn(self, argv: list[str], out: Path | None = None, timeout: float = 60) -> tuple[float, int, float]:
        return self.launcher.run(argv, out, timeout)

    def import_hgpoly(self):
        sys.pycache_prefix = str(self.pycache)
        sys.dont_write_bytecode = False
        sys.path.insert(0, str(self.src))
        import hgpoly
        import hgpoly.cli  # noqa: F401  (loads every module the CLI uses)

        return hgpoly

    def make_ops(self, count: int) -> list[Op]:
        inputs = gen.write_inputs(self.workload, self.seed, self.work / "inputs", count)
        return [Op(k, path) for k, path in enumerate(inputs)]

    def argvs(self, op: Op, tag: str = "") -> list[list[str]]:
        """CLI arguments of the processes of one op; tag names a separate
        card directory for deck ops."""
        if self.workload != "deck":
            return [["report", "--input", str(op.input)]]
        cards = str(self.work / f"cards_{op.index:03d}{tag}")
        return [["deck", "--input", str(op.input), "--out-dir", cards, "--format", "json"]] + [
            ["reconstruct", "--deck", cards, "--target", t, "--parallel", "--format", "json"]
            for t in DECK_TARGETS
        ]

    def references(self, ops: list[Op]) -> dict[int, dict]:
        """Parent values for the deck checks, computed in-process by the
        program's direct routes before anything is timed."""
        if self.workload != "deck":
            return {}
        hg = self.import_hgpoly()
        out = {}
        for op in ops:
            h = hg.formats.load_hypergraph(op.input)
            table = hg.homology.hochster_betti(h)
            out[op.index] = {
                "n": h.n,
                "S": dict(hg.enumeration.edge_induced_poly(h).terms),
                "P": dict(hg.enumeration.vertex_induced_poly(h).terms),
                "fvector": list(hg.stanley_reisner.f_vector(h)),
                "hilbert": hg.stanley_reisner.hilbert_function(h, HILBERT_TERMS),
                "betti": sorted((i, v, b) for i, v, b in table.multigraded_entries() if len(v) < h.n),
            }
        return out

    def check(self, op: Op, texts: list[str], refs: dict[int, dict]) -> list[str]:
        try:
            if self.workload == "deck":
                return check.check_deck_outputs(dict(zip(("deck",) + DECK_TARGETS, texts)), refs[op.index])
            if op.input.is_dir():
                members = {p.name: gen.parse(p) for p in sorted(op.input.iterdir())}
            else:
                members = {op.input.name: gen.parse(op.input)}
            return check.check_report_output(texts[0], members)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"output unreadable: {exc!r}"]

    def digest(self) -> str:
        h = hashlib.sha256()
        for p in sorted((self.src / "hgpoly").glob("*.py")):
            h.update(p.name.encode() + b"\0" + p.read_bytes())
        return h.hexdigest()[:16]

    def commit(self) -> str | None:
        # the ceiling stops git from finding a repository above the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(self.root.parent)}
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root, env=env,
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() or None


# Every timed process is started by this small helper, never by the
# benchmark itself. Linux carries the spawner's RSS high-water mark across
# fork and exec into the child's wait4 max-RSS, so a child of the
# benchmark, which holds inputs and outputs, would report the
# benchmark's size rather than the program's. The helper stays near the
# size of a bare interpreter. It reads [argv, out, timeout] lines and
# answers [wall seconds from spawn to exit, exit code, max RSS in MiB];
# a process still running after timeout seconds is killed (exit code -9).
_LAUNCHER = r"""
import json, os, signal, sys, time
child = 0
def on_alarm(signum, frame):
    try:
        os.kill(child, signal.SIGKILL)
    except ProcessLookupError:
        pass
signal.signal(signal.SIGALRM, on_alarm)
for line in sys.stdin:
    argv, out, timeout = json.loads(line)
    w = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    acts = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out or os.devnull, w, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, out + ".err" if out else os.devnull, w, 0o644)]
    start = time.perf_counter()
    child = os.posix_spawn(argv[0], argv, os.environ, file_actions=acts)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(child, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps([wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024]), flush=True)
"""


class Launcher:
    def __init__(self, env: dict) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-S", "-E", "-c", _LAUNCHER], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], out: Path | None, timeout: float) -> tuple[float, int, float]:
        self._proc.stdin.write(json.dumps([argv, str(out) if out else None, timeout]) + "\n")
        self._proc.stdin.flush()
        wall, code, rss = json.loads(self._proc.stdout.readline())
        return wall, code, rss

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def _speed_loop(k: int) -> int:
    # integer bit work, dict counts and list growth: the mix of the
    # program's sweeps and rank elimination
    counts: dict[int, int] = {}
    rows: list[int] = []
    acc = 0
    for i in range(k):
        x = (i * 2654435761) & 0xFFFFF
        acc ^= x & (x - 1)
        key = x & 1023
        counts[key] = counts.get(key, 0) + 1
        if i & 7 == 0:
            rows.append(acc)
    return acc + len(counts) + len(rows)


def _run_delay() -> float:
    """Seconds the calling thread has waited on a run queue."""
    with open("/proc/thread-self/schedstat") as f:
        return int(f.read().split()[1]) / 1e9


class SpeedSampler:
    """Times a short run of the fixed loop every SAMPLE_PERIOD_S, in a
    thread, while ops run. A sample is wall time minus run-queue wait:
    the program's own processes holding both cores do not read as a
    slower machine, but time the host takes the virtual CPU away
    (steal) does, as it does for the ops. Thread CPU time would miss
    steal, which reached 14% of busy time on the machine the benchmark
    was built on."""

    def __init__(self) -> None:
        self.ends: list[float] = []  # perf_counter when each sample ended
        self.seconds: list[float] = []  # wall minus run-queue seconds of each sample
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:  # at least one sample, however short the run
            waited, start = _run_delay(), time.perf_counter()
            _speed_loop(SAMPLE_LOOPS)
            end = time.perf_counter()
            self.seconds.append(end - start - (_run_delay() - waited))
            self.ends.append(end)
            if self._stop.wait(SAMPLE_PERIOD_S):
                return

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """SAMPLE_NOMINAL_S over the mean sample that ended in [start, end],
        the window widened on both sides until it holds SAMPLES_MIN."""
        while True:
            lo, hi = bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end)
            if hi - lo >= min(SAMPLES_MIN, len(self.ends)):
                return SAMPLE_NOMINAL_S / statistics.fmean(self.seconds[lo:hi])
            start, end = start - SAMPLE_PERIOD_S, end + SAMPLE_PERIOD_S


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    s = sorted(values)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    k = len(s) - TAIL_BEYOND  # samples at or below the tail value
    return s[k - 1], 100.0 * k / len(s)


def run_end_to_end(bench: Bench, seconds: int) -> dict:
    passes = max(1, int(seconds // NOMINAL_PASS_S[bench.workload]))
    ops = bench.make_ops(passes * gen.pass_length(bench.workload))
    refs = bench.references(ops)
    for _ in range(SETUP_WARMUPS):
        bench.spawn(bench.cli + ["--help"])
    run_start = time.perf_counter()
    setup, attempted = [], []
    spans, setup_spans = {}, []  # perf_counter (start, end) of ops and probes
    with SpeedSampler() as sampler:
        for op in ops:
            if time.perf_counter() - run_start > RUN_LIMIT_S:
                break
            attempted.append(op)
            start = time.perf_counter()
            for k, argv in enumerate(bench.argvs(op)):
                out = bench.work / f"out_{op.index:03d}_{k}.txt"
                left = max(5.0, RUN_LIMIT_S + 30 - (time.perf_counter() - run_start))
                wall, code, rss = bench.spawn(bench.cli + argv, out, left)
                op.wall += wall
                op.rss_mb = max(op.rss_mb, rss)
                op.exit_codes.append(code)
                op.outputs.append(out)
                if code:
                    op.problems.append(f"exit code {code} from {' '.join(argv)}: {_stderr(out)}")
                    break
            spans[op.index] = (start, time.perf_counter())
            setup.append(bench.spawn(bench.cli + ["--help"])[0])
            setup_spans.append((spans[op.index][1], time.perf_counter()))
    measured = time.perf_counter() - run_start
    for op in attempted:
        if op.ok:
            op.problems += bench.check(op, [p.read_text() for p in op.outputs], refs)
            op.wrong = not op.ok
    norm = {op.index: op.wall * sampler.scale(*spans[op.index]) for op in attempted}
    good = [op for op in attempted if op.ok]
    walls = [norm[op.index] for op in good]
    tail_s, tail_pct = tail(walls) if walls else (0.0, 0.0)
    metrics = {
        "ops_per_s": len(good) / sum(norm.values()),
        "op_p50_s": statistics.median(walls) if walls else 0.0,
        "op_tail_s": tail_s,
        "peak_rss_mb": max(op.rss_mb for op in attempted),
        "setup_s": statistics.median(t * sampler.scale(*span) for t, span in zip(setup, setup_spans)),
        "ok_ratio": len(good) / len(attempted),
    }
    by_class: dict[int, list[float]] = {}
    for op in good:
        by_class.setdefault(op.index % gen.pass_length(bench.workload), []).append(norm[op.index])
    info = {
        "class_p50_s": {gen.class_label(bench.workload, k): statistics.median(v) for k, v in sorted(by_class.items())},
        "passes": passes,
        "ops_planned": len(ops),
        "tail_percentile": tail_pct,
        "tail_samples": len(walls),
        "setup_samples": len(setup),
        "speed_samples": len(sampler.seconds),
        "speed_sample_p50_s": statistics.median(sampler.seconds),
        "unscaled_op_p50_s": statistics.median(op.wall for op in good) if good else 0.0,
        "unscaled_ops_per_s": len(good) / sum(op.wall for op in attempted),
        "unscaled_setup_s": statistics.median(setup),
        "measured_s": measured,
        "truncated": len(attempted) < len(ops),
    }
    return _result(bench, metrics, END_TO_END_UNITS, attempted, info)


def _stderr(out: Path) -> str:
    lines = Path(f"{out}.err").read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def run_in_process(hg, argvs: list[list[str]]) -> tuple[float, list[str], list[str]]:
    """(seconds, stdout texts, problems) of one op run through cli.main."""
    texts, problems = [], []
    start = time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = hg.cli.main(argv)
        except Exception:  # an uncaught error is a failed op, not a failed run
            code, tb = -1, traceback.format_exc(limit=2)
            problems.append(f"{' '.join(argv)} raised: {tb.strip().splitlines()[-1]}")
        texts.append(buf.getvalue())
        if code:
            problems.append(f"exit code {code} from {' '.join(argv)}")
            break
    return time.perf_counter() - start, texts, problems


def import_seconds(bench: Bench) -> float:
    """Median fresh-interpreter `import hgpoly` minus median bare start."""
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(bench.spawn([sys.executable, "-c", "pass"])[0])
        full.append(bench.spawn([sys.executable, "-c", "import hgpoly.cli"])[0])
    return statistics.median(full) - statistics.median(bare)


def run_traced(bench: Bench) -> dict:
    from tracer import Tracer, layer_metrics

    hg = bench.import_hgpoly()
    ops = bench.make_ops(gen.pass_length(bench.workload))
    refs = bench.references(ops)
    tracer = Tracer(hg)
    plain_s = traced_s = 0.0
    out_bytes = 0
    try:
        # untimed: starts the pool and fills caches, so neither variant
        # of the first op pays for them
        run_in_process(hg, bench.argvs(ops[0], "_w"))
        for op in ops:
            # alternate which variant runs first, so warm-up favours neither
            for traced in ((False, True) if op.index % 2 == 0 else (True, False)):
                argvs = bench.argvs(op, "_t" if traced else "_u")
                if traced:
                    tracer.install()
                try:
                    seconds, texts, problems = run_in_process(hg, argvs)
                finally:
                    tracer.uninstall()
                if traced:
                    traced_s += seconds
                    out_bytes += sum(len(t.encode()) for t in texts)
                else:
                    plain_s += seconds
                if not problems:
                    problems = bench.check(op, texts, refs)
                    op.wrong = op.wrong or bool(problems)
                op.problems += [f"{'traced' if traced else 'untraced'}: {p}" for p in problems]
    finally:
        executor = hg.parallel._executor
        if executor is not None:
            executor.shutdown(wait=True)
            hg.parallel._executor = None
    metrics = layer_metrics(tracer.spans, len(ops), out_bytes)
    metrics["hgpoly.import_s"] = import_seconds(bench)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    spans_path = bench.build / "results" / f"spans-{bench.workload}-{bench.seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans_path)
    units = {name: _layer_unit(name) for name in metrics}
    info = {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(bench.root)),
            "untraced_s": plain_s, "traced_s": traced_s}
    return _result(bench, metrics, units, ops, info)


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    if name.endswith("out_bytes"):
        return "B"
    return "count"


def _result(bench: Bench, metrics: dict, units: dict, attempted: list[Op], info: dict) -> dict:
    failures = [
        {"index": op.index, "input": str(op.input.relative_to(bench.work)), "exit_codes": op.exit_codes,
         "problems": op.problems}
        for op in attempted if not op.ok
    ]
    return {
        "correct": not any(op.wrong for op in attempted),
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "info": {
            "workload": bench.workload,
            "seed": bench.seed,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": bench.commit(),
            "source_digest": bench.digest(),
            **info,
            "failures": failures,
        },
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    bench = Bench(workload, seed, root)
    try:
        result = run_traced(bench) if trace else run_end_to_end(bench, seconds)
    finally:
        bench.launcher.close()
        shutil.rmtree(bench.work, ignore_errors=True)
    results = bench.build / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def _print_result(result: dict) -> None:
    info = result["info"]
    print(f"# {info['workload']} seed={info['seed']} nproc={info['nproc']} python={info['python']} "
          f"commit={info['commit']} source={info['source_digest']}")
    for name, m in result["metrics"].items():
        print(f"{info['workload']:>9} {name:<34} {m['value']:>16.6g} {m['unit']}")
    extra = {k: v for k, v in info.items() if k not in ("workload", "seed", "nproc", "python", "commit",
                                                         "source_digest", "failures")}
    print(f"# {json.dumps(extra)}")
    for f in info["failures"]:
        print(f"# FAILED op {f['index']} ({f['input']}): exit codes {f['exit_codes']}: {'; '.join(f['problems'][:3])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = Path.cwd()
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), root) for w in names]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        _print_result(result)
    if len(results) == 1:
        final = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['info']['workload']}.{name}": m for r in results for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
