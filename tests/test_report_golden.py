"""Byte-stability of `hgpoly report` against stored goldens.

`golden/report_sha256.json` holds the sha256 of the `report` stdout for
every `default_corpus()` member, run through `cli.main` with default
options. `golden/report_dir_sha256.json` holds the sha256 of one
`report --input DIR` over a directory holding all of them, which the
directory runner streams member by member, split across any number of
cores. Any change to what `report` prints, however small, fails here.

Regenerate both (only when an output change is intended) with

    PYTHONPATH=src python -m tests.test_report_golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from hgpoly import parallel
from hgpoly.cli import main
from hgpoly.formats import dump_hypergraph_json

from .families import complete_graph, default_corpus
from .test_cli import _assert_no_child_left, _descriptors

GOLDEN = Path(__file__).parent / "golden" / "report_sha256.json"
DIR_GOLDEN = Path(__file__).parent / "golden" / "report_dir_sha256.json"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_corpus(workdir: Path) -> list[str]:
    """Write every `default_corpus()` member as <name>.json; the file names."""
    names = []
    for name, h in default_corpus():
        (workdir / f"{name}.json").write_text(dump_hypergraph_json(h))
        names.append(f"{name}.json")
    return names


def single_outputs(workdir: Path, files: list[str]) -> dict[str, str]:
    outputs = {}
    for f in files:
        code, out, _ = _run(["report", "--input", str(workdir / f)])
        assert code == 0, f
        outputs[f] = out
    return outputs


def directory_output(workdir: Path) -> str:
    code, out, err = _run(["report", "--input", str(workdir)])
    assert (code, err) == (0, "")
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory) -> tuple[Path, list[str]]:
    workdir = tmp_path_factory.mktemp("corpus")
    return workdir, write_corpus(workdir)


@pytest.fixture(scope="module")
def singles(corpus_dir) -> dict[str, str]:
    return single_outputs(*corpus_dir)


def test_report_matches_goldens(singles):
    expected = json.loads(GOLDEN.read_text())
    got = {f[: -len(".json")]: _sha256(out) for f, out in singles.items()}
    assert len(got) == len(expected) == 281
    changed = sorted(name for name in expected if got.get(name) != expected[name])
    assert not changed, f"report output changed for {changed[:10]}"


def test_directory_report_matches_golden(corpus_dir):
    expected = json.loads(DIR_GOLDEN.read_text())
    assert expected["members"] == len(corpus_dir[1]) == 281
    assert _sha256(directory_output(corpus_dir[0])) == expected["sha256"]


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_directory_report_is_the_same_on_any_number_of_cores(corpus_dir, monkeypatch, cores):
    # one worker per usable core, each building every cores-th member
    fork = os.fork
    forks = []

    def counted_fork():
        forks.append(None)  # before the fork, so only the caller counts
        return fork()

    monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
    monkeypatch.setattr(os, "fork", counted_fork)
    expected = json.loads(DIR_GOLDEN.read_text())
    descriptors = _descriptors()
    assert _sha256(directory_output(corpus_dir[0])) == expected["sha256"]
    assert len(forks) == cores - 1
    _assert_no_child_left(descriptors)


def test_directory_report_matches_stdlib_oracle(corpus_dir, singles):
    # each member's document is the single-file report, nested under its
    # file name, and the whole is what the standard library writes
    workdir, files = corpus_dir
    docs = [{"name": f, "report": json.loads(singles[f])} for f in sorted(files)]
    assert directory_output(workdir) == json.dumps(docs, indent=2) + "\n"


def test_empty_directory_reports_empty_list(tmp_path):
    assert _run(["report", "--input", str(tmp_path)]) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "n_max, message",
    [
        # K5 has n=5 and m=10: with both above the limit, n is named
        ("4", "n=5 exceeds the enumeration limit 4"),
        ("6", "m=10 exceeds the enumeration limit 6"),
    ],
)
def test_over_limit_exit_and_message(tmp_path, n_max, message):
    path = tmp_path / "k5.json"
    path.write_text(dump_hypergraph_json(complete_graph(5)))
    code, out, err = _run(["report", "--n-max", n_max, "--input", str(path)])
    assert (code, out) == (3, "")
    assert err == f"error: {message}; raise the limit explicitly to run anyway\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        files = write_corpus(Path(tmp))
        digests = {f[: -len(".json")]: _sha256(out) for f, out in single_outputs(Path(tmp), files).items()}
        whole = {"members": len(files), "sha256": _sha256(directory_output(Path(tmp)))}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    DIR_GOLDEN.write_text(json.dumps(whole, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN} and the directory digest to {DIR_GOLDEN}")
