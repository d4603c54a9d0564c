"""Shared pieces of the workloads: package location, operation timing, rounds, checks."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: One operation at a time on one thread; the caps are recorded with each run.
THREAD_CAPS = {name: "1" for name in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_CAPS)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def import_package():
    """Import ``cmc_annuli`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "cmc_annuli" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources at {SRC / 'cmc_annuli'}")
    sys.path.insert(0, str(SRC))
    import cmc_annuli

    if Path(cmc_annuli.__file__).resolve().parent != (SRC / "cmc_annuli").resolve():
        raise SystemExit(f"error: cmc_annuli imported from {cmc_annuli.__file__}, not {SRC}")
    return cmc_annuli


def versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "thread_caps": THREAD_CAPS}


_IMPORT_TIMER = ("import time; t = time.perf_counter(); import cmc_annuli; "
                 "print(time.perf_counter() - t)")


def setup_seconds(repeats: int) -> float:
    """Median time to import ``cmc_annuli`` in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=child_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Failed:
    """Marker returned for an operation that raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc


class Ops:
    """Times operations one at a time and counts attempts and failures.

    ``key`` names the operation's inputs; rounds repeat the same inputs, so
    each key collects one sample per round (or more when a round repeats it).
    ``expect`` names exceptions that are the operation's correct outcome (an
    infeasible solve); they are returned, not counted as failures. Any other
    exception makes the operation failed; it is not timed into a latency.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, dict] = defaultdict(lambda: defaultdict(list))
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.errors: list[str] = []

    def run(self, kind: str, key, fn, *args, expect: tuple = (), **kwargs):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.run_id = self.attempted
        start = perf_counter()
        try:
            value = fn(*args, **kwargs)
        except expect as exc:
            value = exc
        except Exception as exc:  # the program failed this operation; count it
            self.busy += perf_counter() - start
            self.failed += 1
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return Failed(exc)
        elapsed = perf_counter() - start
        self.busy += elapsed
        self.samples[kind][key].append(elapsed)
        return value

    def span(self, name: str):
        return self.tracer.measure(name) if self.tracer is not None else nullcontext()

    def typical(self, kind: str) -> float:
        """Mean, over the distinct operations of ``kind``, of each one's median time.

        The median per operation drops one-off stalls; the mean over operations
        varies smoothly with the inputs, where a median over a few distinct
        costs would jump between them.
        """
        per_op = self.samples[kind]
        if not per_op:
            raise SystemExit(f"error: every {kind} operation failed: {self.errors[:3]}")
        return statistics.fmean(statistics.median(times) for times in per_op.values())


class Checks:
    """Correctness checks; the first few failures are kept for the report."""

    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def __call__(self, condition, message: str) -> bool:
        self.count += 1
        if not condition:
            self.failures.append(message)
        return bool(condition)

    def close(self, name: str, got: float, want: float, tol: float) -> bool:
        return self(abs(got - want) <= tol, f"{name}: got {got!r}, want {want!r} (tol {tol:g})")

    @property
    def ok(self) -> bool:
        return not self.failures


class Workload:
    """Defaults shared by the workloads."""

    def __init__(self):
        self.picard_iterations: list[int] = []
        self.cli_samples: dict[str, list[float]] = {}

    def install(self, tracer) -> None:
        tracer.install()

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


def run_rounds(round_fn, seconds: float) -> int:
    """Run whole rounds, at least one, until ``seconds`` have passed; returns the number run."""
    start = perf_counter()
    done = 0
    while done == 0 or perf_counter() - start < seconds:
        round_fn(done)
        done += 1
    return done
