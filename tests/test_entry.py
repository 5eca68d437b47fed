"""The CLI as a process: `python -m hgpoly.cli`, through `cli.entry`.

`entry` ends the process with `os._exit` once stdout and stderr are
flushed, so these tests check what only a real process shows: the exit
code, every byte on stdout and stderr (equal to an in-process `main`),
output larger than a pipe's buffer, a reader that closes the pipe
early (and that no forked worker outlives the report then), the
interpreter's own report of a failed final flush, and that nothing
registers an `atexit` hook that `os._exit` would skip.

PYTHONUNBUFFERED is dropped from the child's environment, so stdout is
block-buffered and reaches the reader only through the final flush.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import hgpoly
from hgpoly.cli import _COMMANDS, main
from hgpoly.corpus import cycle_graph
from hgpoly.formats import dump_hypergraph_json

from .test_reconstruct import cycle_chord

SRC = os.path.dirname(os.path.dirname(hgpoly.__file__))
TARGETS = ("S", "P", "fvector", "hilbert", "betti")


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=SRC, COLUMNS="80")  # COLUMNS fixes the help layout on both sides
    return env


def _process(argv: list[str], stdout=subprocess.PIPE, flags: tuple[str, ...] = ()) -> tuple[int, bytes, bytes]:
    done = subprocess.run([sys.executable, *flags, "-m", "hgpoly.cli", *argv], env=_env(), stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)
    return done.returncode, done.stdout, done.stderr


def _in_process(argv: list[str], monkeypatch) -> tuple[int, bytes, bytes]:
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.fixture
def k3_file(tmp_path, k3):
    p = tmp_path / "k3.json"
    p.write_text(dump_hypergraph_json(k3))
    return str(p)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["fvector", "--input", "{k3}"], 0),
        (["compute", "--poly", "S", "--format", "json", "--input", "{k3}"], 0),
        (["fvector", "--input", "{missing}"], 2),
        (["compute", "--poly", "S", "--n-max", "2", "--input", "{k3}"], 3),
        (["--help"], 0),
        (["bogus"], 2),
        *(([command, "--help"], 0) for command in _COMMANDS),
        (["compute", "--poly", "Q", "--input", "{k3}"], 2),
        (["reconstruct", "--deck", "cards"], 2),
        (["fvector", "--input", "{k3}", "--bogus"], 2),
        (["hilbert", "--terms", "x", "--input", "{k3}"], 2),
        (["report", "--inp", "{k3}"], 0),
        (["report", "--input={k3}"], 0),
    ],
    ids=[
        "success", "success-json", "missing-input", "n-max-exceeded", "help", "unknown-subcommand",
        *(f"{command}-help" for command in _COMMANDS),
        "bad-choice", "missing-required-option", "unknown-option", "bad-int", "abbreviated-option", "joined-value",
    ],
)
def test_process_matches_main(argv, code, k3_file, tmp_path, monkeypatch):
    argv = [a.format(k3=k3_file, missing=str(tmp_path / "missing.json")) for a in argv]
    got = _process(argv)
    assert got == _in_process(argv, monkeypatch)
    assert got[0] == code
    # success and --help speak on stdout only; every failure, usage included, on stderr only
    assert bool(got[1]) == (code == 0) and bool(got[2]) == (code != 0)


def test_piped_directory_report_beyond_the_pipe_buffer(tmp_path, monkeypatch):
    text = dump_hypergraph_json(cycle_graph(8))
    for k in range(8):
        (tmp_path / f"c{k}.json").write_text(text)
    argv = ["report", "--input", str(tmp_path)]
    got = _process(argv)
    assert len(got[1]) > 64 * 1024  # more than a Linux pipe holds, so the child blocks while the reader drains
    assert got == _in_process(argv, monkeypatch)


def test_reader_closing_the_pipe_ends_the_process_with_exit_141(tmp_path):
    text = dump_hypergraph_json(cycle_graph(8))
    for k in range(8):
        (tmp_path / f"c{k}.json").write_text(text)
    child = subprocess.Popen([sys.executable, "-m", "hgpoly.cli", "report", "--input", str(tmp_path)], env=_env(),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # the report is more than the pipe holds, so the child is still writing when the pipe closes
    assert child.stdout.read(1) == b"["
    child.stdout.close()
    assert child.communicate(timeout=120)[1] == b""
    assert child.returncode == 141


# a directory report on two workers; members 0 and 7 are the 9-cycles. Member 0, this
# process's, takes 0.5 s, ample time for the forked worker to send members 1, 3 and 5 (39 kB,
# which its pipe holds) and stall on member 7. The reader closes stdout once member 0 is
# written, and members 1 to 6 are more than a pipe holds, so the report stops before member 7
# is due: only a kill ends that worker within 2 s
_STALLING_WORKER = """
import os, time
import hgpoly.cli as cli
caller, report_for = os.getpid(), cli._report_for
def report_or_stall(h, args):
    if h.n == 9:
        time.sleep(0.5 if os.getpid() == caller else 10)
    return report_for(h, args)
cli._usable_cores, cli._report_for = (lambda: 2), report_or_stall
cli.entry()
"""


def test_reader_closing_the_pipe_leaves_no_worker_behind(tmp_path):
    text = dump_hypergraph_json(cycle_graph(8))
    for k in range(20):
        (tmp_path / f"c{k:02d}.json").write_text(dump_hypergraph_json(cycle_graph(9)) if k in (0, 7) else text)
    # its own session, so the report and every worker it forks are in the process group whose id is its pid
    child = subprocess.Popen([sys.executable, "-c", _STALLING_WORKER, "report", "--input", str(tmp_path)],
                             env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        assert child.stdout.read(1) == b"["
        child.stdout.close()
        assert child.wait(timeout=120) == 141  # not communicate: a worker left behind would hold stderr open
        deadline = time.monotonic() + 2
        while True:
            try:
                os.killpg(child.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a report worker outlived the report"
            time.sleep(0.01)
        assert child.stderr.read() == b""
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.stderr.close()


def test_deck_then_every_reconstruct_target(tmp_path, monkeypatch):
    (tmp_path / "h.json").write_text(dump_hypergraph_json(cycle_chord(0, 5)))
    cards = str(tmp_path / "cards")
    # the benchmark's `deck` op; writing the same deck twice is allowed
    argvs = [["deck", "--input", str(tmp_path / "h.json"), "--out-dir", cards, "--format", "json"]] + [
        ["reconstruct", "--deck", cards, "--target", t, "--parallel", "--format", "json"] for t in TARGETS
    ]
    for argv in argvs:
        got = _process(argv)
        assert got[0] == 0, got[2]
        assert got == _in_process(argv, monkeypatch)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_final_flush_is_reported_with_exit_120():
    # argparse ignores the OSError of its own write; the buffered bytes fail at the final flush
    with open("/dev/full", "wb") as full:
        code, out, err = _process(["--help"], stdout=full)
    assert code == 120
    # CPython 3.13 names the failed flush where 3.10-3.12 name the stream
    first = ("Exception ignored on flushing sys.stdout:" if sys.version_info >= (3, 13)
             else "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' encoding='utf-8'>")
    assert err.decode().splitlines() == [first, "OSError: [Errno 28] No space left on device"]


def test_help_with_stdout_closed_exits_0():
    # with descriptor 1 closed at start sys.stdout is None and argparse writes the help to stderr
    done = subprocess.run(["sh", "-c", 'exec "$0" -m hgpoly.cli --help >&-', sys.executable], env=_env(),
                          stderr=subprocess.PIPE, timeout=60)
    assert done.returncode == 0
    assert done.stderr.startswith(b"usage: hgpoly")


_ATEXIT_PROBE = """
import atexit, contextlib, io, json, sys
before = atexit._ncallbacks()
from hgpoly.cli import main
added = [atexit._ncallbacks() - before]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    added.append(atexit._ncallbacks() - before)
print(json.dumps(added))
"""


def _every_subcommand(tmp_path, k3_file) -> list[list[str]]:
    """One argv per subcommand, compute per polynomial and reconstruct
    per target, report on a file and on a directory; deck comes before
    the reconstructs that read its cards."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "c.json").write_text(dump_hypergraph_json(cycle_graph(5)))
    cards = str(tmp_path / "cards")
    return [
        *(["compute", "--poly", p, "--input", k3_file] for p in ("S", "P", "independence")),
        *([view, "--input", k3_file] for view in ("hilbert", "fvector", "hvector", "betti")),
        ["verify", "--input", k3_file],
        ["report", "--input", k3_file],
        ["report", "--input", str(corpus)],
        ["deck", "--input", k3_file, "--out-dir", cards],
        *(["reconstruct", "--deck", cards, "--target", t, "--parallel"] for t in TARGETS),
    ]


def test_no_subcommand_registers_an_atexit_hook(tmp_path, k3_file):
    # os._exit skips atexit hooks, so a pool or temp-file finalizer added
    # later would be dropped silently; this counts the hooks added by the
    # import and by each subcommand, in a fresh interpreter without site
    argvs = _every_subcommand(tmp_path, k3_file)
    done = subprocess.run([sys.executable, "-S", "-c", _ATEXIT_PROBE, json.dumps(argvs)], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0] * (len(argvs) + 1)


def test_no_subcommand_opens_a_file_in_the_locale_encoding(tmp_path, k3_file):
    # the interpreter emits EncodingWarning only under -X warn_default_encoding,
    # so pytest's filterwarnings cannot see an open() without an encoding
    for argv in _every_subcommand(tmp_path, k3_file):
        code, _, err = _process(argv, flags=("-X", "warn_default_encoding", "-W", "error::EncodingWarning"))
        assert code == 0, (argv, err.decode())
