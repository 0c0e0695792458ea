"""The matrix carries its tokenizer: `score`, `bucket-eval` and `filter`
read every file with the tokenizer the matrix was built with.

On one seeded corpus of mixed case and edge punctuation, a matrix is built
under each of the four tokenizer configs. The digests below are of the
files that the earlier CLI, in which these three commands took
`--lowercase` and `--strip-punct` themselves, wrote from the same inputs
with the build's flags passed to each command by hand. The runs here pass
no tokenizer flag to them.
"""

import hashlib
import random

import pytest

from deqe.cli import main
from deqe.corpus import TokenizerConfig
from deqe.wcm import load_wcm

from helpers import write_lines

_CONFIGS = {
    "default": (),
    "strip-punct": ("--strip-punct",),
    "lowercase": ("--lowercase",),
    "lowercase-strip-punct": ("--lowercase", "--strip-punct"),
}

GOLDEN = {
    "default": {
        "bucket.tsv": "5708fdba3f68939d4a4c997b6b485bb9f3f3f54e606884ab17755d835a846cb7",
        "files_dropped.source": "03400bac38d95ccb75df1911f4fc5a80d941a9f10ef56f039e4e56fc95c12bdb",
        "files_dropped.target": "a8d8215c3f9010cdeebfa0eef275d4b2bf09671d6346fbfab19c25bba6fa48c7",
        "files_kept.source": "4e9a5709f6135d1c6eee9a3bba1b624f5e6f9875a58ef131c59d9fcb9ec898a0",
        "files_kept.target": "305ec21b84dfa26a4a1e15b448f912a366a02122f9fb0dd0e58b7057a4cb9a0b",
        "filter_files.tsv": "43659b261f6c24e2bd817a67ffca6c887a8534c5255043a8c2095b777a0921ca",
        "filter_tsv.tsv": "1a27eed038055429bf0d8bdb8fc2fbdab0330a2f544e3e6a1d6c0a08368b8c19",
        "score_reverse.tsv": "b3f695daf05174c49bc51b3bea9c87ceb5d23be28ee59f454018e6bd2c9f508f",
    },
    "strip-punct": {
        "bucket.tsv": "811d2f1fc9be64d0ea6f588433cba0f5550db9e963f8829641f31d00f0882914",
        "files_dropped.source": "5f79b9ed82cdcbef468a0c746d8500d14a928f9017c81e88051f8665e9500264",
        "files_dropped.target": "1d06fe6ea6c93784604593f340b03759b652cd5f74da80e03e8383630e54a499",
        "files_kept.source": "b0417781cc50da79ed79a7d8dd85f1f086d410c7cd05bd34d6f0e490895b024d",
        "files_kept.target": "789b2b9e18234e03cc015fd689e25e8bd69539b744c52ff8be7e3a2dc207af25",
        "filter_files.tsv": "a347a8730b71de0e5a109452e58c25efd4ce2772397310d76d204e02a2ac7a3b",
        "filter_tsv.tsv": "b9213ce37506fcdd4d36ec2d4174e083b2721858b0e054ffadc321592eb4988d",
        "score_reverse.tsv": "c67f8a5dc133bff3e9d1eb06eaeaada413a3e5e6ecf9ecb68f7c04aefc5731d9",
    },
    "lowercase": {
        "bucket.tsv": "f5c3bb195caa2402990d5669d00041bc38e3ba921c805e0bfd438a07018a6e48",
        "files_dropped.source": "255fbbc4dbabda42b55b16aef51823a659cd05d27c1936ca9e5383372696b9fd",
        "files_dropped.target": "e42821a58cf24dda8cf66b86d314f3e4ab9718ff661b7abdd7eb267e1e00a6af",
        "files_kept.source": "8de5601133920f391cc7fbdbe03fee617024aba1cc23aa02b1ddaafb4feee388",
        "files_kept.target": "b4319c710177f65b03dc916714f5cdcc9307a929db7a0369e5fa291827621423",
        "filter_files.tsv": "a6092941ebe7e84f3cd7603a78d611f057f5b2385b04f6bc1ef82d4618d7dfdd",
        "filter_tsv.tsv": "714cf7e3f8d7ba5f5e731a7cb4fcdc3427e720f047469ed27784967aab425667",
        "score_reverse.tsv": "e8cd3b7c9afc58fa8df363433c5ae3ccdaddf15748461dd7fe9d011d2bdd6e39",
    },
    "lowercase-strip-punct": {
        "bucket.tsv": "044c7da98f7ad658af1cce52d7ee631c8acf7444c7605edfc28ba6d748a2fd00",
        "files_dropped.source": "fe7c22869e52961775caa93d2d1424789576ca19256a6704a57ea627ae956924",
        "files_dropped.target": "39dad4beafdcc4e7227631d37ba467888ae5d6ffe1064a8471f5ba11e0b51f9e",
        "files_kept.source": "dacc5f76068ced2491fd5961ddb9c32ffadc807d530a29cd4048ddac16b40861",
        "files_kept.target": "3af9190272d4ea8b36d098faee47356c7add1d7f62ef9adedc5bcf274c9fccd9",
        "filter_files.tsv": "f0c6afc2b227a0f6b7865bfc9d08176027fd433ddece6136ab2fa2897d3c20ca",
        "filter_tsv.tsv": "88af0bfd87fcfd530a95b750a30a83a7902c31c0abe8454f4694076de321ad12",
        "score_reverse.tsv": "c80bc8a03b8b27006b15f264fad2efadf8a409afbb348f1d62fc8a92f999d3f1",
    },
}


def _word(rng: random.Random, word: str) -> str:
    """``word``, perhaps capitalized or upper-cased and perhaps wrapped in
    punctuation, and now and then followed by a token of punctuation alone."""
    word = rng.choice((str.lower, str.title, str.upper))(word)
    word = rng.choice(("{}", "{}", "{},", "({})", "{}.", "\u00ab{}\u00bb", "{}!")).format(word)
    return word + rng.choice(("",) * 19 + (" -", " ...", " \u2014"))


def _write_inputs(rng: random.Random) -> None:
    """A Zipfian training corpus whose target words translate the source
    words in shuffled order, with 10 % noisy targets, and a test set whose
    hypotheses replace some of the reference's words."""
    weights = [1.0 / r for r in range(1, 41)]

    def segment(k: int) -> tuple[str, list[str]]:
        ranks = rng.choices(range(len(weights)), weights, k=k)
        target = [_word(rng, f"t{r}") for r in ranks]
        rng.shuffle(target)
        return " ".join(_word(rng, f"s{r}") for r in ranks), target

    train = [segment(rng.randint(2, 10)) for _ in range(400)]
    for i in rng.sample(range(len(train)), 40):  # noise for the filter to drop
        train[i] = (train[i][0], [_word(rng, f"junk{i}_{j}") for j in range(len(train[i][1]))])
    write_lines("train.src", [s for s, _ in train])
    write_lines("train.tgt", [" ".join(t) for _, t in train])
    write_lines("train.tsv", [f"{s}\t{' '.join(t)}" for s, t in train])
    test = []
    for _ in range(60):
        source, reference = segment(rng.randint(1, 8))
        hypothesis = [w if rng.random() < 0.7 else _word(rng, "t0") for w in reference]
        test.append((source, " ".join(hypothesis), " ".join(reference)))
    for name, column in zip(("test.src", "test.hyp", "test.ref"), zip(*test)):
        write_lines(name, list(column))


def _run(*argv: str) -> None:
    assert main([*argv, "--quiet"]) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each config's directory, holding its matrix and the files that the
    three matrix commands write with it."""
    work = tmp_path_factory.mktemp("tokenizer")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        _write_inputs(random.Random(2_024))
        for name, flags in _CONFIGS.items():
            (work / name).mkdir()
            mp.chdir(work / name)
            _run("build-wcm", "--source", "../train.src", "--target", "../train.tgt", *flags,
                 "--out", "train.wcm", "--min-cooc", "3", "--hifreq-cutoff", "300",
                 "--threads", "1")
            test = ["--wcm", "train.wcm", "--source", "../test.src", "--hypothesis", "../test.hyp"]
            _run("score", *test, "--reverse", "--out", "score_reverse.tsv")
            _run("bucket-eval", *test, "--reference", "../test.ref", "--out", "bucket.tsv")
            filter_ = ["filter", "--wcm", "train.wcm", "--min-de", "40"]
            _run(*filter_, "--source", "../train.src", "--target", "../train.tgt",
                 "--kept-prefix", "files_kept", "--dropped-prefix", "files_dropped",
                 "--out", "filter_files.tsv")
            _run(*filter_, "--tsv", "../train.tsv", "--kept-prefix", "tsv_kept",
                 "--dropped-prefix", "tsv_dropped", "--out", "filter_tsv.tsv")
    return work


@pytest.mark.parametrize("name", _CONFIGS)
def test_matrix_reads_back_with_its_tokenizer(outputs, name):
    flags = _CONFIGS[name]
    expected = TokenizerConfig("--lowercase" in flags, "--strip-punct" in flags)
    assert load_wcm(outputs / name / "train.wcm").tokenizer == expected


@pytest.mark.parametrize(
    "name, output", [(name, output) for name in _CONFIGS for output in sorted(GOLDEN[name])]
)
def test_output_bytes_match_the_runs_with_flags(outputs, name, output):
    data = (outputs / name / output).read_bytes()
    assert data, f"{name}/{output} is empty"
    assert hashlib.sha256(data).hexdigest() == GOLDEN[name][output]


@pytest.mark.parametrize("name", _CONFIGS)
def test_tsv_filter_writes_the_side_files_of_the_two_file_filter(outputs, name):
    for side in ("kept.source", "kept.target", "dropped.source", "dropped.target"):
        files, tsv = (outputs / name / f"{kind}_{side}" for kind in ("files", "tsv"))
        assert files.read_bytes() == tsv.read_bytes()
