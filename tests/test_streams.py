"""The RESULT streams of `reesloop verify` and `reesloop corpus` against
their digests in data/streams.sha256, run through `cli.main` in process;
and the default corpus, the order-4 verify streams, `verify
semitoreeszero --base c3` and `verify semitorees --imax 3 --jmax 2` with
two pool workers against the serial stream.
Each worker recalls other decided pairs than a serial run does, so equal
streams show that recall never reaches a RESULT line."""

import functools
import hashlib

import pytest

from test_cli import STREAM_DIGESTS, run_cli

DIGESTS = {name: digest for digest, name in
           (line.split("  ", 1) for line in STREAM_DIGESTS.read_text().splitlines())}
RESULT_STREAMS = sorted(name for name in DIGESTS
                        if name == "corpus" or name.startswith("verify "))


@functools.lru_cache(maxsize=None)
def serial_stream(name):
    """Exit code and stdout of `reesloop <name>`, run once per session; the
    caller sets REES_LOOP_WORKERS=1."""
    return run_cli(*name.split())


def test_every_result_stream_has_a_digest():
    assert len(RESULT_STREAMS) == 7


@pytest.mark.parametrize("name", RESULT_STREAMS)
def test_result_stream_matches_its_digest(name, monkeypatch):
    monkeypatch.setenv("REES_LOOP_WORKERS", "1")
    code, out = serial_stream(name)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]


def test_two_worker_corpus_is_the_serial_corpus(monkeypatch):
    monkeypatch.setenv("REES_LOOP_WORKERS", "1")
    serial = serial_stream("corpus")
    monkeypatch.setenv("REES_LOOP_WORKERS", "2")
    assert run_cli("corpus") == serial


@pytest.mark.parametrize("name", sorted(name for name in RESULT_STREAMS
                                        if name.endswith("--max-order 4")
                                        or name in ("verify semitoreeszero --base c3",
                                                    "verify semitorees --imax 3 --jmax 2")))
def test_two_worker_verify_stream_is_the_serial_stream(name, monkeypatch):
    monkeypatch.setenv("REES_LOOP_WORKERS", "1")
    serial = serial_stream(name)
    monkeypatch.setenv("REES_LOOP_WORKERS", "2")
    assert run_cli(*name.split()) == serial
