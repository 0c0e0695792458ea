"""de-qe benchmark: seeded workloads, end-to-end CLI timings with output
checks, and a traced per-layer run.

Run from the root of a checkout (stdlib only, nothing to install):

    python3 bench/run.py --workload build-zipf --seed 1 --seconds 20 --trace 0

``--trace 0`` drives the real CLI (``python -m deqe.cli`` with
``PYTHONPATH=src``) as subprocesses, back to back from this one process: a
closed loop with one client. It repeats the workload's command sequence for
``--seconds`` and reports medians of the end-to-end metrics. ``--trace 1``
calls the package's public functions in-process under spans, runs the heavy
counting stages in child processes, and reports the per-layer metrics.
Either way the outputs are checked against bench-owned oracles (see
checks.py). Generated inputs and outputs go to ``.bench_work/`` in the
checkout. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
from harness import Cli, Tally, provenance
from workloads import WORKLOADS, Workload, command_args, generate, segments_read

# Set-up is repeated, at least SETUP_REPEATS times and for at least
# SETUP_SECONDS, and its median reported, so one slow repetition (a cold
# bytecode cache, a noisy neighbour) does not move setup_s.
SETUP_REPEATS = 3
SETUP_SECONDS = 4.0


def write_correlate_inputs(out: Path) -> None:
    """`correlate` takes one value per line: DE from the score report and
    sentence BLEU from the bleu report."""
    for name, values in (
        ("de.txt", checks.de_values(out / "score.tsv")),
        ("sbleu.txt", checks.sentence_bleu_values(out / "bleu.tsv")),
    ):
        (out / name).write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def run_end_to_end(workload: Workload, seed: int, seconds: int, root: Path, work: Path) -> dict:
    tally = Tally()
    cli = Cli(root, work)
    out = work / "out"
    out.mkdir()
    # A workload whose sequence does not build the matrix builds it in set-up.
    builds = "build-wcm" in workload.sequence
    wcm = out / "train.wcm" if builds else work / "setup.wcm"

    setup_times, input_digests = [], []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        start = time.perf_counter()
        inputs = generate(workload, seed, work / "inputs", with_test_set=workload.uses_test_set)
        if not builds:
            tally.command("set-up build-wcm", cli.run("build-wcm", "--source", inputs.train_source,
                                                      "--target", inputs.train_target, "--out", wcm))
        setup_times.append(time.perf_counter() - start)
        input_digests.append(_digests(work / "inputs"))
    tally.check("same seed, same input bytes",
                lambda: None if input_digests.count(input_digests[0]) == len(input_digests) else "inputs differ")

    args_of = command_args(workload, inputs, wcm, out)
    tally.command("warm-up --version", cli.run("--version"))

    walls: dict[str, list[float]] = {name: [] for name in workload.sequence}
    rates, peaks = [], []
    first_digests = None
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < seconds:
        total = handled = peak = 0.0
        for name in workload.sequence:
            if name == "correlate":
                write_correlate_inputs(out)
            result = tally.command(name, cli.run(name, *args_of[name]))
            walls[name].append(result.wall_s)
            total += result.wall_s
            handled += segments_read(workload, name)
            peak = max(peak, result.rss_mb)
        rates.append(handled / total)
        peaks.append(peak)
        digests = _digests(out)
        if first_digests is None:
            first_digests = digests
        else:
            tally.check(
                f"iteration {len(rates)} outputs equal iteration 1",
                lambda d=digests: None if d == first_digests else "output bytes changed between iterations",
            )

    if builds:
        tally.command("build-wcm --threads 1", cli.run(
            "build-wcm", "--source", inputs.train_source, "--target", inputs.train_target,
            "--out", out / "t1.wcm", "--threads", 1))
    checks.verify(tally, workload, inputs, out, wcm, seed)

    print("info: " + json.dumps({
        "segments_per_s": [round(r, 1) for r in rates],
        "step_median_s": {name: round(statistics.median(v), 4) for name, v in walls.items()},
        "setup_s": [round(t, 4) for t in setup_times],
        "failures": tally.failures,
    }))
    return tally.result({
        "setup_s": (statistics.median(setup_times), "s"),
        "segments_per_s": (statistics.median(rates), "seg/s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "deqe" / "cli.py").is_file():
        print(f"bench: no de-qe checkout here ({root / 'src' / 'deqe'} is missing); "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    workload = WORKLOADS[args.workload]
    work = root / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print("info: " + json.dumps({"workload": workload.name, "why": workload.why, "seed": args.seed,
                                 **provenance(root)}))
    if args.trace:
        from trace_run import run_traced

        result = run_traced(workload, args.seed, args.seconds, root, work)
    else:
        result = run_end_to_end(workload, args.seed, args.seconds, root, work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
