"""Output bytes depend only on the inputs: not on the hash seed of the
interpreter that writes them, nor on which supported Python version runs."""

import os
import random
import shutil
import subprocess
import sys

import pytest

from deqe import cli

from helpers import write_lines, zipf_corpus

SRC_DIR = os.path.dirname(os.path.dirname(cli.__file__))


def _write_inputs(directory):
    """A seeded Zipfian training corpus, and a test set whose hypotheses
    are the references with some words swapped for rare or unseen ones."""
    rng = random.Random(2800)
    pairs = zipf_corpus(rng, n_segments=400)
    test = zipf_corpus(rng, n_segments=60)
    hypotheses = [[w if rng.random() < 0.7 else f"t{rng.randrange(400)}" for w in tgt] for _, tgt in test]
    for name, lines in (
        ("train.src", [p[0] for p in pairs]),
        ("train.tgt", [p[1] for p in pairs]),
        ("test.src", [p[0] for p in test]),
        ("test.ref", [p[1] for p in test]),
        ("test.hyp", hypotheses),
    ):
        write_lines(directory / name, [" ".join(tokens) for tokens in lines])


def _run_commands(python, inputs, out, commands, env=None):
    """Run each of ``commands`` (argv lists, ``{in}`` filled in) as a CLI
    child of ``python`` in the new directory ``out``, and return the bytes
    of every file written there, by name. Outputs are named relative to
    ``out``, so the paths that report headers echo are the same in every
    run."""
    out.mkdir()
    for argv in commands:
        result = subprocess.run(
            [python, "-m", "deqe.cli", *(a.format(**{"in": inputs}) for a in argv)],
            cwd=out,
            env={**os.environ, **(env or {}), "PYTHONPATH": SRC_DIR},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, (argv, result.stderr)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


TRAIN = ["--source", "{in}/train.src", "--target", "{in}/train.tgt"]
TEST = ["--wcm", "train.wcm", "--source", "{in}/test.src", "--hypothesis", "{in}/test.hyp"]
BUILD = ["build-wcm", *TRAIN, "--min-cooc", "2", "--hifreq-cutoff", "200", "--out", "train.wcm"]
SCORE = ["score", *TEST, "--reverse", "--out", "score.tsv"]


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """``build-wcm``, ``vocab-stats`` and ``score --reverse`` write the same
    bytes under two string-hash seeds, so no output follows the iteration
    order of a set or dict of strings."""
    _write_inputs(tmp_path)
    commands = [BUILD, ["vocab-stats", *TRAIN, "--out", "vocab.tsv"], SCORE]
    outputs = [
        _run_commands(sys.executable, tmp_path, tmp_path / f"seed{seed}", commands, {"PYTHONHASHSEED": seed})
        for seed in ("0", "1")
    ]
    assert sorted(outputs[0]) == ["score.tsv", "train.wcm", "vocab.tsv"]
    assert b"\t" in outputs[0]["train.wcm"].splitlines()[-1]
    assert outputs[0] == outputs[1]


def _python_310():
    """The path of a working ``python3.10`` on PATH, or the reason there is
    none."""
    python = shutil.which("python3.10")
    if python is None:
        return None, "no python3.10 on PATH"
    try:
        probe = subprocess.run(
            [python, "-c", "import sys; print(*sys.version_info[:2])"],
            capture_output=True,
            text=True,
            timeout=60,
        )
    except OSError as exc:
        return None, f"{python} does not start: {exc}"
    if probe.returncode != 0 or probe.stdout.split() != ["3", "10"]:
        first = (probe.stderr.strip().splitlines() or [probe.stdout.strip()])[0]
        return None, f"{python} does not run Python 3.10: {first}"
    return python, ""


def test_python_310_writes_the_same_bytes(tmp_path):
    """Python 3.10 is the declared floor: under it, build-wcm, score
    --reverse and bucket-eval write what the running interpreter writes."""
    python, reason = _python_310()
    if python is None:
        pytest.skip(reason)
    _write_inputs(tmp_path)
    commands = [
        BUILD,
        SCORE,
        ["bucket-eval", *TEST, "--reference", "{in}/test.ref", "--out", "bucket.tsv"],
    ]
    expected = _run_commands(sys.executable, tmp_path, tmp_path / "running", commands)
    assert sorted(expected) == ["bucket.tsv", "score.tsv", "train.wcm"]
    assert _run_commands(python, tmp_path, tmp_path / "py310", commands) == expected
