#!/usr/bin/env python3
"""augpipe benchmark: end-to-end runs of the ``augpipe run`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

Run it from the repository root. Each repetition runs the CLI in a fresh
child process on inputs generated from the seed, one run at a time
(closed loop, one client), with an empty output directory. Wall time, CPU
time and peak RSS of the child's process tree are taken from outside, by
a small parent process (``child.py measure``, ``os.wait4``). With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer
metrics of separate traced runs at ``--jobs 1`` (see spans.py). Every run
checks its outputs: the SHA-256 of the output tree and of the trace must
match the pinned digests at the default seed, match the other
repetitions of the same seed, and, for digits-par2, match a ``--jobs 1``
run on the same inputs. Provenance goes to stderr and, with every
repetition's figures, to ``.perfbench-work/report-*.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from corpus import DIGIT_CLASSES, PHOTO_SIZES, ensure_corpus
from spans import layer_metrics, median_metrics

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench-work"
DEFAULT_SEED = 1
SETUPS_PER_TURN = 3
CHILD_TIMEOUT_S = 60.0
DIGITS_PER_CLASS_COUNT = 300

# The acceptance recipe: elastic 4x4 magnitude 5, then rotate +-10 at p=0.5.
DIGITS_RECIPE = {"version": 1, "operations": [
    {"op": "elastic", "probability": 1, "grid_width": 4, "grid_height": 4, "magnitude": 5},
    {"op": "rotate", "probability": 0.5, "max_left_rotation": 10, "max_right_rotation": 10},
]}
# Geometric recipe for large images: every kernel runs on most sources
# while each gate draw stays in play.
PHOTO_RECIPE = {"version": 1, "operations": [
    {"op": "rotate", "probability": 0.9, "max_left_rotation": 15, "max_right_rotation": 15},
    {"op": "shear", "probability": 0.9, "max_angle": 10, "axis": "random"},
    {"op": "skew", "probability": 0.9, "severity": 0.3, "kind": "random"},
    {"op": "elastic", "probability": 0.9, "grid_width": 8, "grid_height": 8, "magnitude": 12},
    {"op": "zoom", "probability": 0.9, "min_factor": 1.05, "max_factor": 1.3},
    {"op": "crop_random", "probability": 0.9, "area_fraction": 0.7, "resize_back": True},
    {"op": "flip", "probability": 0.5, "axis": "random"},
]}


@dataclass(frozen=True)
class Workload:
    family: str            # corpus family in corpus.py
    recipe: dict
    run_args: tuple        # mode arguments of `augpipe run`
    jobs: int
    images: int            # output images one run writes
    # None derives the master seed from the workload seed. photo-process
    # holds it fixed: with one 1024x1024 source, which gates fire on that
    # image would move a run's work by about 10% from seed to seed.
    fixed_master_seed: int | None = None

    def master_seed(self, seed: int) -> int:
        """The augpipe master seed of a workload seed."""
        if self.fixed_master_seed is not None:
            return self.fixed_master_seed
        return (seed * 0x9E3779B1 + 0x5EED) & 0xFFFFFFFF


DIGITS_ARGS = ("--mode", "sample", "--count", str(DIGITS_PER_CLASS_COUNT), "--per-class")
DIGITS_IMAGES = DIGIT_CLASSES * DIGITS_PER_CLASS_COUNT
WORKLOADS = {
    "digits-seq": Workload("digits", DIGITS_RECIPE, DIGITS_ARGS, 1, DIGITS_IMAGES),
    "digits-par2": Workload("digits", DIGITS_RECIPE, DIGITS_ARGS, 2, DIGITS_IMAGES),
    "photo-process": Workload("photo", PHOTO_RECIPE, ("--mode", "process"), 1,
                              sum(count for _side, count in PHOTO_SIZES), 0x9E37D89E),
}


# --------------------------------------------------------------------------
# Output checks


def tree_digest(root: Path) -> tuple[str, int]:
    """SHA-256 over the sorted (relative path, bytes) pairs under root,
    and the number of files."""
    digest = hashlib.sha256()
    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*") if p.is_file())
    for rel, path in files:
        data = path.read_bytes()
        for part in (rel.encode("utf-8"), data):
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)
    return digest.hexdigest(), len(files)


def file_digest(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return "missing"


def load_pins() -> dict:
    return json.loads((BENCH / "pins.json").read_text())


# --------------------------------------------------------------------------
# Child processes


def _child_env() -> dict:
    # augpipe makes no BLAS call big enough to use threads, but importing
    # numpy starts OpenBLAS's thread pool. On a shared 2-vCPU host that
    # start-up took from almost nothing to 0.07 s, depending on the host's
    # load, and was the largest part of setup_s's drift. One BLAS thread
    # takes it out of every child.
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC),
                OPENBLAS_NUM_THREADS="1")


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], log: Path) -> dict:
    """Run argv to completion under ``child.py measure``: its exit code,
    wall time, and the CPU time and peak RSS of its process tree.

    The measuring child leads its own process group, so a timeout or an
    interrupt also ends argv and the pool workers it forked.
    """
    result_path = log.with_suffix(".result.json")
    result_path.unlink(missing_ok=True)
    with log.open("wb") as out:
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), "measure",
                                 str(result_path), "--", *argv],
                                cwd=REPO, env=_child_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        killer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        killer.start()
        try:
            proc.wait()
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
    if proc.returncode != 0 or not result_path.is_file():
        return {"code": proc.returncode or -1, "wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0}
    return json.loads(result_path.read_text())


class Runner:
    """Runs one workload's repetitions and checks each one's outputs."""

    def __init__(self, name: str, seed: int, corpus: Path, config: Path):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.corpus = corpus
        self.config = config
        self.reference: tuple[str, str] | None = None
        pin = load_pins()[name]
        if seed == pin["seed"]:
            self.reference = (pin["output_sha256"], pin["trace_sha256"])
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def setup(self) -> dict:
        """Seconds a fresh process spends before its first sample."""
        log = WORK / "setup.log"
        result = spawn([sys.executable, str(BENCH / "child.py"), "setup", str(self.config),
                        str(self.corpus)], log)
        if result["code"] != 0:
            raise RuntimeError(f"setup child failed:\n{log.read_text()[-2000:]}")
        return json.loads(log.read_text().splitlines()[-1])

    def rep(self, jobs: int, traced: bool = False) -> dict:
        out, trace, spans = WORK / "out", WORK / "trace.jsonl", WORK / "spans.json"
        shutil.rmtree(out, ignore_errors=True)
        for path in (trace, spans):
            path.unlink(missing_ok=True)
        run_args = ["run", "--config", str(self.config), "--input", str(self.corpus),
                    "--output", str(out), *self.wl.run_args, "--seed",
                    str(self.wl.master_seed(self.seed)), "--jobs", str(jobs), "--trace", str(trace)]
        prefix = ([sys.executable, str(BENCH / "child.py"), "traced", str(spans), "--"]
                  if traced else [sys.executable, "-m", "augpipe"])
        log = WORK / "child.log"
        result = spawn(prefix + run_args, log)
        result.update(jobs=jobs, traced=traced)
        output_sha, result["images"] = tree_digest(out) if out.is_dir() else ("missing", 0)
        digests = (output_sha, file_digest(trace))
        result["output_sha256"], result["trace_sha256"] = digests
        result["trace_bytes"] = trace.stat().st_size if trace.is_file() else 0
        self._check(result, digests, log)
        if traced and result["ok"]:
            result["spans"] = json.loads(spans.read_text())
        return result

    def _check(self, result: dict, digests: tuple[str, str], log: Path) -> None:
        problem = None
        if result["code"] != 0:
            problem = f"exit code {result['code']}: {log.read_text()[-1000:]}"
        elif result["images"] != self.wl.images:
            problem = f"{result['images']} images written, expected {self.wl.images}"
        elif self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            problem = f"digests {digests} differ from reference {self.reference}"
        self.attempted += self.wl.images
        result["ok"] = problem is None
        if problem:
            self.failed += self.wl.images
            self.errors.append(f"jobs={result['jobs']} traced={result['traced']}: {problem}")


def repeat(runner: Runner, kinds: list[tuple[int, bool]],
           seconds: float) -> tuple[list[list[dict]], list[dict]]:
    """Cycle through the (jobs, traced) kinds, each repetition preceded by
    SETUPS_PER_TURN set-up children, while another turn is expected to end
    within `seconds` and until each kind has run once. Returns the
    repetitions of each kind and the set-up timings.

    The host's speed drifts over tens of seconds, so set-up children are
    spread evenly over the window rather than run in one burst.
    """
    runs: list[list[dict]] = [[] for _ in kinds]
    setups: list[dict] = []
    turns: list[float] = []
    deadline = time.perf_counter() + seconds
    while not all(runs) or time.perf_counter() + statistics.median(turns) <= deadline:
        started = time.perf_counter()
        jobs, traced = kinds[len(turns) % len(kinds)]
        setups.extend(runner.setup() for _ in range(SETUPS_PER_TURN))
        runs[len(turns) % len(kinds)].append(runner.rep(jobs, traced))
        turns.append(time.perf_counter() - started)
    return runs, setups


# --------------------------------------------------------------------------
# Metrics


# Throughput, CPU cost and set-up time are totals (means) over a run's
# repetitions and set-up children. The host's speed drifts between two
# levels over tens of seconds; a median of repetitions then jumps between
# the levels, while the totals average them (measured over ten seeds:
# photo-process spread 0.22 against 0.30).


def _images_per_s(runs: list[dict]) -> float:
    return sum(r["images"] for r in runs) / sum(r["wall_s"] for r in runs)


def _cpu_ms_per_image(runs: list[dict]) -> float:
    return 1000.0 * sum(r["cpu_s"] for r in runs) / max(sum(r["images"] for r in runs), 1)


def _mean_s(setups: list[dict], *keys: str) -> float:
    return statistics.fmean(sum(s[key] for key in keys) for s in setups)


def end_to_end(runs: list[dict], setups: list[dict]) -> dict[str, float]:
    return {
        "images_per_s": _images_per_s(runs),
        "setup_s": _mean_s(setups, "import_s", "parse_s", "scan_s"),
        "cpu_ms_per_image": _cpu_ms_per_image(runs),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
    }


def per_layer(runner: Runner, own: list[dict], seq: list[dict], traced: list[dict],
              setups: list[dict]) -> dict[str, float]:
    good = [r for r in traced if r["ok"]]
    if not good:
        raise RuntimeError("no traced run succeeded: " + "; ".join(runner.errors))
    metrics = {
        "cli.import_s": _mean_s(setups, "import_s"),
        "config.parse_s": _mean_s(setups, "parse_s"),
        "dataio.scan_s": _mean_s(setups, "scan_s"),
    }
    metrics.update(median_metrics(
        [layer_metrics(r["spans"], r["images"], r["trace_bytes"]) for r in good]))
    metrics["pipeline.pool_cpu_ms_per_image"] = (
        _cpu_ms_per_image(own) - _cpu_ms_per_image(seq) if runner.wl.jobs > 1 else 0.0)
    # Each traced repetition against the untraced --jobs 1 one of the same
    # cycle of kinds, so the host's slower drift cancels out.
    metrics["bench.trace_overhead_frac"] = statistics.median(
        t["wall_s"] / s["wall_s"] for s, t in zip(seq, traced)) - 1.0
    metrics["failed_frac"] = runner.failed / runner.attempted
    return metrics


# --------------------------------------------------------------------------
# Provenance


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "loadavg_before": os.getloadavg(),
    }


# --------------------------------------------------------------------------
# Entry point


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from augpipe.dataio import load_image

    wl = WORKLOADS[name]
    facts = provenance()
    corpus, corpus_info = ensure_corpus(WORK, wl.family, seed, load_image)
    config = WORK / f"{name}.json"
    config.write_text(json.dumps(wl.recipe))
    runner = Runner(name, seed, corpus, config)

    if trace:
        kinds = [(wl.jobs, False)] + ([(1, False)] if wl.jobs > 1 else []) + [(1, True)]
        groups, setups = repeat(runner, kinds, seconds)
        own, traced = groups[0], groups[-1]
        seq = groups[1] if wl.jobs > 1 else own
        metrics = per_layer(runner, own, seq, traced, setups)
        timed = [r for group in groups for r in group]
    else:
        if wl.jobs > 1:
            runner.rep(1)  # the --jobs contract: same bytes as a single worker
        (timed,), setups = repeat(runner, [(wl.jobs, False)], seconds)
        metrics = end_to_end(timed, setups)

    section = _benchmark_spec()["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    facts["loadavg_after"] = os.getloadavg()
    for run in timed:
        run.pop("spans", None)
    report = {"workload": name, "seed": seed, "trace": trace, "provenance": facts,
              "corpus": corpus_info, "setup": setups, "runs": timed, "errors": runner.errors,
              "metrics": metrics}
    (WORK / f"report-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({"workload": name, "provenance": facts, "corpus": corpus_info}),
          file=sys.stderr)
    for error in runner.errors:
        print(f"{name}: FAILED {error}", file=sys.stderr)
    return {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def _benchmark_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def _summary(name: str, result: dict) -> list[str]:
    lines = [f"{name}: {key} = {m['value']:.6g} {m['unit']}"
             for key, m in result["metrics"].items()]
    lines.append(f"{name}: failed {result['failed']} of {result['attempted']} images")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "augpipe" / "cli.py").is_file():
        print(f"perfbench: augpipe sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        for line in _summary(name, results[name]):
            print(line, file=sys.stderr if args.workload != "all" else sys.stdout)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
