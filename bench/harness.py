"""Process plumbing shared by the end-to-end and traced runs: the hermetic
child environment, timed subprocesses with their own peak RSS, and the
tally of attempted and failed operations."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

THREADS_ENV_VAR = "DE_QE_THREADS"


def child_env(root: Path) -> dict[str, str]:
    """The checkout's own package first on the path, and no thread
    override: every child runs the code under test with its defaults."""
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV_VAR}
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass(frozen=True)
class Timed:
    wall_s: float
    rss_mb: float
    returncode: int
    stderr: str


def run_timed(argv: list[str], env: dict[str, str], cwd: Path, stdout=subprocess.DEVNULL) -> Timed:
    """Run one child to completion. Wall time spans spawn to reap; the peak
    RSS is the child's or, if larger, that of a descendant it reaped (such
    as a pool worker)."""
    errfile = cwd / ".stderr"
    with open(errfile, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=stdout, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Timed(wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr)


class Cli:
    """Runs ``python -m deqe.cli`` from the checkout under test."""

    def __init__(self, root: Path, work: Path):
        self.env = child_env(root)
        self.work = work

    def run(self, *args: object) -> Timed:
        argv = [sys.executable, "-m", "deqe.cli", *map(str, args)]
        if args[0] != "--version":
            argv.append("--quiet")
        return run_timed(argv, self.env, self.work)


@dataclass
class Tally:
    """Operations attempted (CLI runs and output checks) and the ones that
    failed, with why."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def command(self, label: str, result: Timed) -> Timed:
        self.attempted += 1
        if result.returncode != 0:
            tail = result.stderr.strip().splitlines()[-1:] or [""]
            self.failures.append(f"{label}: exit {result.returncode}: {tail[0]}")
        return result

    def check(self, label: str, fn, *args) -> None:
        self.attempted += 1
        try:
            problem = fn(*args)
        except Exception as exc:  # a crashed check is a failed check
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{label}: {problem}")

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def provenance(root: Path) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }
