import hashlib
import io
import os
import subprocess
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from reesloop import cli, theorems
from reesloop.cli import (
    iter_instances,
    main,
    run_corpus,
    run_job,
    worker_count,
)
from reesloop.language import (Nfa, enumerate_words, equivalent, format_automaton, member,
                               minimal_dfa)
from reesloop.loops import loop_problem
from reesloop.semigroup import (
    NotAnIdeal,
    ParseError,
    adjoin_zero,
    brandt_b2,
    cyclic_group,
    format_semigroup,
    full_generator_map,
    generator_map,
    null_semigroup,
    parse_semigroup_text,
    trivial_semigroup,
)

SRC = Path(theorems.__file__).resolve().parents[1]  # the imported reesloop
CORPUS_REFERENCE = (Path(__file__).resolve().parents[1]
                    / "perfbench" / "data" / "corpus_w2.stdout")
STREAM_DIGESTS = Path(__file__).resolve().parent / "data" / "streams.sha256"


@pytest.fixture
def tables(tmp_path):
    paths = {}
    for name, s in (("c2", cyclic_group(2)), ("b2", brandt_b2()),
                    ("triv", trivial_semigroup())):
        p = tmp_path / f"{name}.tbl"
        p.write_text(format_semigroup(s))
        paths[name] = str(p)
    spec = tmp_path / "b2.rees"
    spec.write_text("base triv.tbl\ni 2\nj 2\nzero true\nmatrix\ne 0\n0 e\n")
    paths["spec"] = str(spec)
    return paths


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestInfo:
    def test_b2_summary(self, tables):
        code, out = run_cli("info", tables["b2"])
        assert code == 0
        assert "order 5" in out
        assert "completely zero-simple: yes, max subgroup order 1" in out

    def test_null_semigroup_is_not_completely_zero_simple(self, tmp_path):
        null2 = tmp_path / "null2.tbl"
        null2.write_text(format_semigroup(null_semigroup(2)))
        code, out = run_cli("info", str(null2))
        assert code == 0
        assert out.splitlines()[-1] == "completely zero-simple: no"

    def test_trivial(self, tables):
        code, out = run_cli("info", tables["triv"])
        assert code == 0 and "order 1" in out and "idempotents 1" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.tbl"
        bad.write_text("2\na b\na c\nb a\n")
        code = main(["info", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 3" in err


class TestLoop:
    def test_output_is_the_minimal_dfa_of_the_loop_problem(self, tables):
        code, out = run_cli("loop", tables["c2"], "g")
        assert code == 0
        want = loop_problem(generator_map(cyclic_group(2), ["g"]))
        a = minimal_dfa(want)
        assert out == format_automaton(a)
        assert equivalent(a, want)
        x = a.alphabet.letter("g")
        assert member(a, (x, a.alphabet.bar(x)))

    def test_missing_generator_label(self, tables, capsys):
        code = main(["loop", tables["c2"], "nope"])
        assert code == 2

    def test_non_generating_set(self, tables, capsys):
        code = main(["loop", tables["c2"], "e"])
        assert code == 2
        assert "do not reach" in capsys.readouterr().err

    def test_dot_output(self, tables, tmp_path):
        dot = tmp_path / "la.dot"
        code, out = run_cli("loop", tables["c2"], "g", "--dot", str(dot))
        assert code == 0
        assert "digraph" in dot.read_text()

    def test_trivial_loop_against_path_enumeration(self, tables):
        code, out = run_cli("loop", tables["triv"])
        assert code == 0
        a = minimal_dfa(loop_problem(full_generator_map(trivial_semigroup())))
        assert out == format_automaton(a)
        x = a.alphabet.letter("e")
        xb = a.alphabet.bar(x)
        # oracle: BFS over the hand-built two-vertex loop automaton
        edges = {(0, x, 1), (1, x, 1), (1, xb, 0), (1, xb, 1)}
        step = {}
        for p, l, q in edges:
            step.setdefault((p, l), set()).add(q)
        want = set()
        level = {(): {0}}
        for _ in range(5):
            nxt = {}
            for w, states in level.items():
                if 0 in states:
                    want.add(w)
                if len(w) < 4:
                    for l in (x, xb):
                        t = {q for p in states for q in step.get((p, l), ())}
                        if t:
                            nxt[w + (l,)] = t
            level = nxt
        assert set(enumerate_words(a, 4)) == want


class TestConstructions:
    def test_rees_roundtrip(self, tables):
        code, out = run_cli("rees", tables["spec"])
        assert code == 0
        m = parse_semigroup_text(out)
        assert m.order == 5
        from reesloop.semigroup import are_isomorphic
        assert are_isomorphic(m, brandt_b2())

    @pytest.mark.parametrize("line", ["i", "j", "zero", "i x", "j 2 2", "i 0"])
    def test_bad_i_j_or_zero_line_is_a_parse_error_at_its_line(
            self, tables, tmp_path, line, capsys):
        good = ["base triv.tbl", "i 1", "j 1", "zero false", "matrix", "e"]
        lines = [line if ln.split()[0] == line.split()[0] else ln for ln in good]
        spec = tmp_path / "bad.rees"
        spec.write_text("\n".join(lines) + "\n")
        assert main(["rees", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        no = lines.index(line) + 1
        assert captured.err.startswith(f"error: Parse error at line {no}: ")

    @pytest.mark.parametrize("line", ["base triv.tbl", "i 2", "j 2", "zero true"])
    def test_repeated_header_line_is_a_parse_error_at_the_repeat(
            self, tables, tmp_path, line, capsys):
        # the repeat comes before matrix, as line 5; a second i 2 would
        # otherwise build a 2 x 1 semigroup
        spec = tmp_path / "bad.rees"
        spec.write_text(f"base triv.tbl\ni 1\nj 1\nzero false\n{line}\nmatrix\ne\n")
        assert main(["rees", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: Parse error at line 5: "
                                f"repeated {line.split()[0]} line\n")

    def test_unknown_matrix_label_is_a_parse_error_at_its_line(
            self, tables, tmp_path, capsys):
        spec = tmp_path / "bad.rees"
        spec.write_text("base triv.tbl\ni 2\nj 2\nzero true\nmatrix\n"
                        "e 0\n\n0 q\n")
        assert main(["rees", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: Parse error at line 8: "
                                "no element labelled 'q'\n")

    def test_base_table_error_is_raised_at_the_base_line(self, tmp_path, capsys):
        # line 4 of the base table is short; line 4 of the spec is `matrix`
        (tmp_path / "bad.tbl").write_text("2\na b\na b\nb\n")
        spec = tmp_path / "bad.rees"
        spec.write_text("base bad.tbl\ni 1\nj 1\nmatrix\na\n")
        assert main(["rees", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: Parse error at line 1: base table bad.tbl, "
                                "line 4: expected 2 entries, got 1\n")

    def test_zero_line_takes_only_a_truth_value(self, tables, tmp_path, capsys):
        spec = tmp_path / "bad.rees"
        spec.write_text("base triv.tbl\ni 1\nj 1\nzero maybe\nmatrix\ne\n")
        assert main(["rees", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: Parse error at line 4: "
                                "zero takes true or false, got 'maybe'\n")

    def test_zero_entry_without_zero_is_a_parse_error_at_its_line(
            self, tables, tmp_path, capsys):
        # the base has no element labelled 0, so a 0 entry needs zero true
        spec = tmp_path / "bad.rees"
        spec.write_text("base triv.tbl\ni 2\nj 2\nzero false\nmatrix\n"
                        "e e\n\ne 0\n")
        assert main(["rees", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: Parse error at line 8: "
                                "a 0 entry needs zero true\n")

    def test_quotient(self, tables):
        code, out = run_cli("quotient", tables["b2"], "0")
        assert code == 0
        q = parse_semigroup_text(out)
        assert q.order == 5  # collapsing {0} keeps the order

    def test_rees_one_by_one_trivial(self, tables, tmp_path):
        spec = tmp_path / "t.rees"
        spec.write_text(f"base {tables['triv']}\ni 1\nj 1\nzero false\nmatrix\ne\n")
        code, out = run_cli("rees", str(spec))
        assert code == 0 and parse_semigroup_text(out).order == 1

    def test_rees_all_zero_matrix(self, tables, tmp_path):
        spec = tmp_path / "z.rees"
        spec.write_text(f"base {tables['triv']}\ni 2\nj 2\nzero true\nmatrix\n0 0\n0 0\n")
        code, out = run_cli("rees", str(spec))
        assert code == 0
        m = parse_semigroup_text(out)
        # every product of nonzero elements is the zero
        assert all(m.mul(a, b) == m.zero
                   for a in range(m.order) for b in range(m.order)
                   if a != m.zero and b != m.zero)

    def test_adjoin_commands(self, tables):
        code, out = run_cli("adjoin-zero", tables["c2"])
        assert code == 0 and parse_semigroup_text(out).order == 3
        code, out = run_cli("adjoin-identity", tables["c2"])
        assert code == 0
        m = parse_semigroup_text(out)
        assert m.order == 3 and m.identity == 2

    def test_emitted_tables_reparse_equal(self, tables):
        for s in (cyclic_group(3), brandt_b2()):
            assert parse_semigroup_text(format_semigroup(s)) == s

    def test_cayley_dot(self, tables):
        code, out = run_cli("cayley", tables["c2"], "g")
        assert code == 0 and "digraph" in out

    def test_cayley_output_file_holds_what_stdout_prints(self, tables, tmp_path):
        code, out = run_cli("cayley", tables["b2"])
        assert code == 0
        dot = tmp_path / "cayley.dot"
        code, printed = run_cli("cayley", tables["b2"], "-o", str(dot))
        assert code == 0 and printed == ""
        assert dot.read_text() == out

    def test_cli_file_outputs_match_their_digests(self, tmp_path, monkeypatch):
        # the tables and commands of the CI step "CLI file outputs"
        monkeypatch.chdir(tmp_path)
        Path("c3.tbl").write_text("3\ne g g2\ne g g2\ng g2 e\ng2 e g\nidentity e\n")
        Path("b2.tbl").write_text("5\na b c d 0\na b 0 0 0\n0 0 a b 0\n"
                                  "c d 0 0 0\n0 0 c d 0\n0 0 0 0 0\nzero 0\n")
        Path("c3.rees").write_text("base c3.tbl\ni 2\nj 2\nmatrix\ng2 g2\ng e\n")
        Path("c3zero.rees").write_text("base c3.tbl\ni 2\nj 2\nzero true\nmatrix\ng 0\n0 e\n")
        for out, argv in (("loop b2.tbl", ["loop", "b2.tbl", "--dot", "loop b2.tbl --dot"]),
                          ("loop c3.tbl g", ["loop", "c3.tbl", "g", "--dot", "loop c3.tbl g --dot"]),
                          ("cayley b2.tbl", ["cayley", "b2.tbl"]),
                          ("cayley --monoid c3.tbl g", ["cayley", "--monoid", "c3.tbl", "g"]),
                          ("rees c3.rees", ["rees", "c3.rees"]),
                          ("rees c3zero.rees", ["rees", "c3zero.rees"]),
                          ("quotient b2.tbl 0", ["quotient", "b2.tbl", "0"]),
                          ("quotient c3.tbl e g g2", ["quotient", "c3.tbl", "e", "g", "g2"])):
            assert main(argv + ["-o", out]) == 0
        want = {}
        for line in STREAM_DIGESTS.read_text().splitlines():
            digest, name = line.split("  ", 1)
            if name.startswith(("loop ", "cayley ", "rees ", "quotient ")):
                want[name] = digest
        assert len(want) == 10
        for name, digest in want.items():
            assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == digest, name

    def test_cayley_prints_labels_a_hat_alphabet_rejects(self, tmp_path, capsys):
        tilde = tmp_path / "tilde.tbl"
        tilde.write_text("1\n~a\n~a\n")
        assert main(["cayley", str(tilde)]) == 0
        assert 'v0 -> v0 [label="~a"];' in capsys.readouterr().out

    def test_cayley_monoid_needs_a_designated_identity(self, tables, capsys):
        code = main(["cayley", "--monoid", tables["b2"]])
        assert code == 2
        assert capsys.readouterr().err == "error: --monoid needs a designated identity\n"


class TestChecks:
    def test_check_ideal(self, tables):
        code, out = run_cli("check-ideal", tables["b2"], "0")
        assert code == 0 and "ideal" in out
        code, out = run_cli("check-ideal", tables["c2"], "e")
        assert code == 1

    def test_check_pru(self, tables):
        code, out = run_cli("check-pru", tables["c2"], "e", "g")
        assert code == 0
        assert "right-unitary True" in out

    def test_decompose(self, tables):
        code, out = run_cli("decompose", tables["b2"])
        assert code == 0
        assert "group order 1" in out and "matrix" in out

    def test_decompose_rejects(self, tables, capsys):
        code = main(["decompose", tables["c2"]])
        assert code == 2


class TestVerify:
    def test_adjoin_zero_small(self):
        code, out = run_cli("verify", "adjoin-zero", "--max-order", "2")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("RESULT")]
        assert len(lines) == 9  # 1 + 8 semigroups
        assert all(l.split()[3] == "PASS" for l in lines)

    def test_semitorees_c2_sixteen_matrices(self):
        code, out = run_cli("verify", "semitorees", "--base", "c2",
                            "--imax", "2", "--jmax", "2")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("RESULT")]
        # 2 + 4 + 4 + 16 matrices plus one randomized rerun
        assert len(lines) == 27

    def test_repeated_base_runs_once(self):
        code, out = run_cli("verify", "semitorees", "--base", "c2", "--base", "c2",
                            "--imax", "1", "--jmax", "1")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("RESULT")]
        # P = e, P = g and one randomized rerun
        assert len(lines) == 3 and len(set(lines)) == 3

    @pytest.mark.parametrize("tag,count", [("unit-sandwich", 386),
                                           ("semitoreeszero", 128)])
    def test_library_default_bases_are_the_verify_corpus(self, tag, count,
                                                        monkeypatch):
        # `reesloop verify TAG` prints one RESULT line per instance it
        # hands to run_corpus, and its --base defaults to the registry's
        listed = []
        monkeypatch.setattr(cli, "run_corpus",
                            lambda instances: listed.extend(instances) or 0)
        assert run_cli("verify", tag)[0] == 0
        assert list(iter_instances(tag)) == listed and len(listed) == count

    def test_unknown_tag_usage_error(self):
        assert main(["verify", "not-a-tag"]) == 2

    @pytest.mark.parametrize("argv", [
        ("adjoin-zero", "--base", "c2"),
        ("semitorees", "--max-order", "1"),
        ("czeros", "--max-order", "1"),
    ])
    def test_option_the_tag_does_not_read_is_a_usage_error(self, argv, capsys):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"does not read {argv[1]}" in captured.err

    @pytest.mark.parametrize("argv", [
        ("verify", "semitorees", "--imax", "0"),
        ("verify", "unit-sandwich", "--jmax", "-1"),
        ("verify", "adjoin-zero", "--max-order", "0"),
        ("verify", "rees-quotient", "--max-order", "-3"),
        ("verify", "subsemigroup", "--max-order", "two"),
        ("corpus", "--imax", "0", "--jmax", "0", "--max-order", "0"),
    ])
    def test_size_that_is_not_a_positive_integer_is_a_usage_error(self, argv, capsys):
        # such a size would check no instance and print PASS
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not a positive integer" in captured.err

    def test_options_the_tag_reads_are_accepted(self):
        code, out = run_cli("verify", "czeros", "--imax", "1", "--jmax", "1")
        assert code == 0
        assert out.splitlines()[-1] == "PASS (czeros)"

    def test_stream_is_sorted_and_deterministic(self):
        _c1, out1 = run_cli("verify", "rees-quotient", "--max-order", "2")
        _c2, out2 = run_cli("verify", "rees-quotient", "--max-order", "2")
        assert out1 == out2
        ids = [l.split()[2] for l in out1.splitlines() if l.startswith("RESULT")]
        assert ids == sorted(ids)


def test_no_verdict_reads_the_move_triples(monkeypatch):
    """Every verdict reads the packed rows of its automata: with the triples
    of Nfa.transitions unreadable, the last instance of each corpus tag
    still passes, and a failing intersection still finds its separator."""
    def unreadable(_nfa):
        raise AssertionError("a verdict read Nfa.transitions")

    monkeypatch.setattr(Nfa, "transitions", property(unreadable))
    for tag in cli.VERIFY_TAGS:
        iid, job = list(iter_instances(tag))[-1]
        assert run_job((iid, job))[2] == f"RESULT {tag} {iid} PASS"
    _checked, failures = theorems.negative_control_search(4, limit=1)
    (s, tset, report), = failures
    assert report.separator is not None
    assert theorems.result_line(report, "neg").startswith("RESULT subsemigroup neg FAIL ")


class TestWorkers:
    def test_worker_env_gives_identical_stream(self, monkeypatch):
        instances = list(iter_instances("adjoin-zero", max_order=2))
        buf1 = io.StringIO()
        run_corpus(list(instances), stream=buf1)
        monkeypatch.setenv("REES_LOOP_WORKERS", "2")
        buf2 = io.StringIO()
        run_corpus(list(instances), stream=buf2)
        assert buf1.getvalue() == buf2.getvalue()

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 33])
    def test_two_workers_give_the_serial_stream_for_any_count(self, monkeypatch, count):
        instances = list(iter_instances("adjoin-zero", max_order=3))[:count]
        serial = io.StringIO()
        run_corpus(instances, stream=serial)
        monkeypatch.setenv("REES_LOOP_WORKERS", "2")
        pooled = io.StringIO()
        run_corpus(instances, stream=pooled)
        assert pooled.getvalue() == serial.getvalue()
        assert len(serial.getvalue().splitlines()) == count

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("count", [1, 7, 8, 9, 33])
    def test_a_call_submits_at_most_four_tasks_per_worker(self, monkeypatch, workers, count):
        pools, tasks, calls = [], [], []

        class InlinePool(ProcessPoolExecutor):
            """Records each pool and each task, and runs the tasks here."""

            def __init__(self, max_workers, **_):
                pools.append(max_workers)

            def submit(self, fn, /, *args):
                tasks.append(args)
                done = Future()
                done.set_result(fn(*args))
                return done

            def shutdown(self, wait=True, **_):
                pass

        def counted(item):
            calls.append(item[0])
            return run_job(item)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "run_job", counted)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("REES_LOOP_WORKERS", str(workers))
        instances = list(iter_instances("adjoin-zero", max_order=3))[:count]
        buf = io.StringIO()
        assert run_corpus(instances, stream=buf) == 0
        if count == 1:
            assert pools == tasks == []
        else:
            assert pools == [workers] and 1 <= len(tasks) <= 4 * workers
        assert sorted(calls) == sorted(iid for iid, _job in instances)
        assert len(buf.getvalue().splitlines()) == count

    def test_large_value_is_capped_at_the_cpu_count_with_a_warning(
            self, monkeypatch, capsys):
        monkeypatch.setenv("REES_LOOP_WORKERS", str(10 ** 6))
        assert worker_count(10 ** 9) == (os.cpu_count() or 1)
        err = capsys.readouterr().err
        assert "warning: REES_LOOP_WORKERS=1000000 exceeds" in err

    def test_count_is_capped_at_the_number_of_jobs(self, monkeypatch, capsys):
        monkeypatch.setenv("REES_LOOP_WORKERS", "1")
        assert worker_count(0) == worker_count(1) == 1
        if (os.cpu_count() or 1) >= 2:
            monkeypatch.setenv("REES_LOOP_WORKERS", "2")
            assert worker_count(1) == 1 and worker_count(5) == 2
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("raw", ["0", "-3", "two", ""])
    def test_invalid_value_means_one_worker_with_a_warning(
            self, monkeypatch, capsys, raw):
        monkeypatch.setenv("REES_LOOP_WORKERS", raw)
        assert worker_count(100) == 1
        assert f"warning: REES_LOOP_WORKERS={raw!r}" in capsys.readouterr().err


    def test_corpus_warns_once_per_process(self):
        env = dict(os.environ, REES_LOOP_WORKERS="abc",
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "reesloop.cli", "corpus", "--max-order", "1",
             "--imax", "1", "--jmax", "1"],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stderr.splitlines() == [
            "warning: REES_LOOP_WORKERS='abc' is not a positive integer; "
            "using 1 worker"]


class TestFaultIsolation:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_raising_instance_becomes_an_error_line(self, monkeypatch, workers):
        s = adjoin_zero(cyclic_group(2))
        non_ideal = frozenset({0})
        with pytest.raises(NotAnIdeal):
            theorems.verify_rees_quotient(s, full_generator_map(s), non_ideal)
        good = list(iter_instances("adjoin-zero", max_order=2))
        bad = ("n2i0:bad", ("rees-quotient", (s, full_generator_map(s), non_ideal)))
        monkeypatch.setenv("REES_LOOP_WORKERS", workers)
        buf = io.StringIO()
        failures = run_corpus(good + [bad], stream=buf)
        lines = buf.getvalue().splitlines()
        assert failures == 1
        assert "RESULT rees-quotient n2i0:bad ERROR NotAnIdeal" in lines
        assert len(lines) == len(good) + 1
        assert sum(l.endswith(" PASS") for l in lines) == len(good)
        ids = [l.split()[2] for l in lines]
        assert ids == sorted(ids)

    def test_error_line_makes_the_run_exit_one(self, monkeypatch, capsys):
        def broken(s, gmap):
            raise RuntimeError("broken verifier")
        monkeypatch.setattr(theorems, "verify_adjoin_zero", broken)
        code, out = run_cli("verify", "adjoin-zero", "--max-order", "1")
        assert code == 1
        assert out == "RESULT adjoin-zero n1i0 ERROR RuntimeError\nFAIL (adjoin-zero)\n"
        err = capsys.readouterr().err
        assert err.startswith("adjoin-zero n1i0: Traceback")
        assert "RuntimeError: broken verifier" in err


class TestCorpus:
    def test_small_corpus_reproducible(self):
        args = ["corpus", "--max-order", "1", "--imax", "1", "--jmax", "1",
                "--seed", "3"]
        code1, out1 = run_cli(*args)
        code2, out2 = run_cli(*args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.strip().endswith("PASS")
        tags = {l.split()[1] for l in out1.splitlines() if l.startswith("RESULT")}
        assert "czeros" in tags and "semitorees" in tags

    def test_serial_stream_matches_the_committed_reference(self, monkeypatch):
        monkeypatch.delenv("REES_LOOP_WORKERS", raising=False)
        code, out = run_cli("corpus", "--jmax", "1", "--seed", "0")
        assert code == 0
        assert out.encode() == CORPUS_REFERENCE.read_bytes()


def _spec(text):
    """parse_rees_spec on text, read in the directory it is given."""
    return lambda directory: cli.parse_rees_spec(text, directory)


# (call on a directory holding the one-element table triv.tbl, exception
# type, message, {dir} standing for that directory): the checks of this
# module that no other test reaches
CLI_CHECKS = [
    pytest.param(_spec("base none.tbl\ni 1\nj 1\nmatrix\ne\n"), ParseError,
                 "Parse error at line 1: cannot read base table: [Errno 2] "
                 "No such file or directory: '{dir}/none.tbl'", id="unreadable-base"),
    pytest.param(_spec("base triv.tbl\nk 2\n"), ParseError,
                 "Parse error at line 2: unexpected line 'k 2'", id="unknown-line"),
    pytest.param(_spec("base triv.tbl\nmatrix\ne\n"), ParseError,
                 "Parse error at line 1: spec needs base, i, j and matrix lines",
                 id="missing-i-and-j"),
    pytest.param(_spec("base triv.tbl\ni 1\nj 1\n"), ParseError,
                 "Parse error at line 1: spec needs base, i, j and matrix lines",
                 id="missing-matrix"),
    pytest.param(_spec("base\ni 1\nj 1\nmatrix\ne\n"), ParseError,
                 "Parse error at line 1: base line needs a table file", id="bare-base"),
    pytest.param(_spec("base triv.tbl\ni 1\nj 1\nmatrix\ne e\n"), ParseError,
                 "Parse error at line 5: matrix must have 1 rows of 1 entries",
                 id="matrix-shape"),
    pytest.param(_spec("base triv.tbl\ni 1\nj 1\nmatrix e e\ne\n"), ParseError,
                 "Parse error at line 4: matrix line takes no value", id="matrix-value"),
    pytest.param(lambda directory: next(iter_instances("no-such-tag")), ValueError,
                 "unknown theorem tag 'no-such-tag'", id="unknown-tag"),
    pytest.param(lambda directory: next(iter_instances("semitorees", bases=("nope",))),
                 ValueError, "unknown base semigroup 'nope'", id="unknown-base"),
]


@pytest.mark.parametrize("call, exc, message", CLI_CHECKS)
def test_cli_check_raises_its_type_and_message(call, exc, message, tmp_path):
    (tmp_path / "triv.tbl").write_text("1\ne\ne\n")
    with pytest.raises(exc) as err:
        call(tmp_path)
    assert type(err.value) is exc and str(err.value) == message.format(dir=tmp_path)


# each subcommand's `--help` usage, as argparse prints it at 80 columns,
# with its line breaks and indentation collapsed to single spaces
USAGE = {
    "info": "usage: reesloop info [-h] table",
    "loop": "usage: reesloop loop [-h] [-o OUTPUT] [--dot DOT] table [LABEL ...]",
    "cayley": "usage: reesloop cayley [-h] [-o OUTPUT] [--monoid] table [LABEL ...]",
    "rees": "usage: reesloop rees [-h] [-o OUTPUT] spec",
    "quotient": "usage: reesloop quotient [-h] [-o OUTPUT] table LABEL [LABEL ...]",
    "adjoin-zero": "usage: reesloop adjoin-zero [-h] [-o OUTPUT] table",
    "adjoin-identity": "usage: reesloop adjoin-identity [-h] [-o OUTPUT] table",
    "check-ideal": "usage: reesloop check-ideal [-h] table LABEL [LABEL ...]",
    "check-pru": "usage: reesloop check-pru [-h] table LABEL [LABEL ...]",
    "decompose": "usage: reesloop decompose [-h] table",
    "verify": "usage: reesloop verify [-h] [--max-order MAX_ORDER] [--imax IMAX] "
              "[--jmax JMAX] [--seed SEED] [--base {b2,c2,c3,c4,leftzero2,null2,trivial}] "
              "{rees-quotient,subsemigroup,remove-zero,adjoin-zero,semitorees,"
              "semitoreeszero,unit-sandwich,czeros,decompose-roundtrip}",
    "corpus": "usage: reesloop corpus [-h] [--max-order MAX_ORDER] [--imax IMAX] "
              "[--jmax JMAX] [--seed SEED]",
}


@pytest.mark.parametrize("command", list(USAGE))
def test_help_exits_zero_with_the_subcommand_usage(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    assert " ".join(usage.split()) == USAGE[command]
