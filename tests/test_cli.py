"""Command-line interface: schemas, config precedence, env override."""

import csv
import json
import re
import shlex
from pathlib import Path

import pytest

from ampsched import cli
from ampsched.runtime import Trace
from ampsched.taskgraph import task_counts


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestBench:
    def test_schema_and_residual(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = cli.main(["bench", "--n", "64", "--b", "16", "--workers", "2",
                       "--reps", "1", "--csv", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert list(rows[0]) == cli.BENCH_FIELDS
        assert len(rows) == 1
        assert float(rows[0]["residual"]) < 1e-12
        assert rows[0]["policy"] == "oblivious"

    def test_sweep_marks_best(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["bench", "--n", "64", "--b", "16,32", "--workers", "2",
                       "--reps", "1", "--csv", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 3
        best = [r for r in rows if r["is_best"] == "1"]
        assert len(best) == 1
        assert best[0]["seconds_min"] == min(r["seconds_min"] for r in rows[:2])

    def test_config_file_with_flag_precedence(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("n = 64\nb = 32  # sweep goes here\nworkers = 2\n"
                       "reps = 1\n")
        out = tmp_path / "bench.csv"
        rc = cli.main(["bench", "--config", str(cfg), "--b", "16",
                       "--csv", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0]["b"] == "16"      # flag wins over config
        assert rows[0]["n"] == "64"      # config fills the gap

    def test_env_thread_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMPSCHED_THREADS", "3")
        out = tmp_path / "bench.csv"
        rc = cli.main(["bench", "--n", "48", "--b", "16", "--workers", "1",
                       "--reps", "1", "--csv", str(out)])
        assert rc == 0
        assert read_csv(out)[0]["workers"] == "3"

    def test_missing_required_option(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["bench", "--b", "16", "--csv", "-"])

    def test_invalid_block_size(self):
        with pytest.raises(SystemExit):
            cli.main(["bench", "--n", "16", "--b", "32"])

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a pair\n")
        with pytest.raises(SystemExit):
            cli.main(["bench", "--config", str(cfg), "--n", "32", "--b", "16"])

    @pytest.mark.parametrize("text", ["n = 32\nthreads = 2\n",
                                      "n = 32\npolicy = fifo\n",
                                      "n = thirty-two\n"],
                             ids=["unknown-key", "bad-choice", "bad-int"])
    def test_bad_config_fails_before_any_run(self, tmp_path, monkeypatch,
                                             text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        monkeypatch.setattr(cli.runtime, "run", None)  # a run would TypeError
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--config", str(cfg), "--b", "16",
                      "--csv", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "out.csv").exists()

    def test_vc_policy_end_to_end(self, tmp_path):
        out = tmp_path / "vc.csv"
        rc = cli.main(["bench", "--n", "48", "--b", "16", "--policy", "vc",
                       "--workers", "2", "--reps", "1", "--csv", str(out)])
        assert rc == 0
        assert read_csv(out)[0]["policy"] == "vc"

    def test_residual_once_per_block_size(self, tmp_path, monkeypatch):
        calls = []
        real = cli.dense.residual

        def counted(a, u):
            calls.append(u.shape)
            return real(a, u)

        monkeypatch.setattr(cli.dense, "residual", counted)
        rc = cli.main(["bench", "--n", "64", "--b", "8,16", "--workers", "2",
                       "--reps", "3", "--csv", str(tmp_path / "out.csv")])
        assert rc == 0
        assert len(calls) == 2

    def test_repetition_factor_must_match_bitwise(self, tmp_path, monkeypatch,
                                                  capsys):
        real = cli.runtime.run
        count = []

        def flipped(*args, **kwargs):
            bm, trace = real(*args, **kwargs)
            count.append(1)
            if len(count) == 2:
                bm.blocks[0][0].reshape(-1, order="F").view("u8")[0] ^= 1
            return bm, trace

        monkeypatch.setattr(cli.runtime, "run", flipped)
        out = tmp_path / "out.csv"
        rc = cli.main(["bench", "--n", "64", "--b", "16", "--workers", "2",
                       "--reps", "3", "--csv", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: factor of repetition 2 differs from the first "
                       "for n=64 b=16"]
        assert not out.exists()


class TestSimulate:
    def test_schema_and_trace_export(self, tmp_path):
        out = tmp_path / "sim.csv"
        tr = tmp_path / "trace.json"
        rc = cli.main(["simulate", "--n", "2240", "--b", "448",
                       "--policy", "cats", "--csv", str(out),
                       "--trace", str(tr)])
        assert rc == 0
        rows = read_csv(out)
        assert list(rows[0]) == cli.SIM_FIELDS
        assert rows[0]["s"] == "5"
        assert float(rows[0]["makespan_s"]) > 0
        trace = Trace.from_json(tr.read_text())
        assert len(trace.events) == sum(task_counts(5).values())

    def test_deterministic_output(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cli.main(["simulate", "--n", "1344", "--b", "448",
                      "--csv", str(out)])
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_vc_policy_needs_vc_view(self, tmp_path):
        # The view follows the policy, so no flag can pair them wrongly.
        for policy, view in (("vc", "vc"), ("cats", "gts"),
                             ("oblivious", "gts")):
            out = tmp_path / f"{policy}.csv"
            rc = cli.main(["simulate", "--n", "896", "--b", "448",
                           "--policy", policy, "--csv", str(out)])
            assert rc == 0, policy
            assert read_csv(out)[0]["view"] == view, policy

    def test_vc_view_runs(self, tmp_path):
        out = tmp_path / "vc.csv"
        rc = cli.main(["simulate", "--n", "1344", "--b", "448",
                       "--policy", "vc", "--csv", str(out)])
        assert rc == 0
        assert read_csv(out)[0]["view"] == "vc"

    def test_invalid_block_size(self):
        with pytest.raises(SystemExit):
            cli.main(["simulate", "--n", "4", "--b", "8"])

    def test_unknown_machine(self):
        with pytest.raises(SystemExit):
            cli.main(["simulate", "--machine", "pi5", "--n", "896",
                      "--b", "448"])

    def test_flops_cost_option(self, tmp_path):
        out = tmp_path / "f.csv"
        rc = cli.main(["simulate", "--n", "896", "--b", "448",
                       "--cost", "flops", "--csv", str(out)])
        assert rc == 0
        assert read_csv(out)[0]["cost"] == "flops"


class TestDag:
    def test_dot_and_json(self, tmp_path):
        dot = tmp_path / "g.dot"
        js = tmp_path / "g.json"
        rc = cli.main(["dag", "--s", "4", "--dot", str(dot),
                       "--json", str(js)])
        assert rc == 0
        text = dot.read_text()
        assert text.startswith("digraph tasks {")
        assert text.count("[label=") == 20
        doc = json.loads(js.read_text())
        assert len(doc["tasks"]) == 20

    def test_invalid_s(self):
        assert cli.main(["dag", "--s", "0", "--dot", "/dev/null"]) == 1


class TestTraceCmd:
    def test_summaries(self, tmp_path):
        tr = tmp_path / "trace.json"
        cli.main(["simulate", "--n", "1792", "--b", "448",
                  "--csv", str(tmp_path / "s.csv"), "--trace", str(tr)])
        summary = tmp_path / "workers.csv"
        kinds = tmp_path / "kinds.csv"
        rc = cli.main(["trace", "--in", str(tr), "--summary", str(summary),
                       "--kinds", str(kinds)])
        assert rc == 0
        wrows = read_csv(summary)
        assert list(wrows[0]) == cli.SUMMARY_FIELDS
        assert len(wrows) == 8
        for r in wrows:
            run_f, idle_f = float(r["running_fraction"]), float(r["idle_fraction"])
            assert 0.0 <= run_f <= 1.0 and abs(run_f + idle_f - 1.0) < 1e-9
        krows = read_csv(kinds)
        assert list(krows[0]) == cli.KIND_FIELDS
        assert sum(int(r["count"]) for r in krows) == sum(
            task_counts(4).values())

    def test_default_kinds_path(self, tmp_path):
        tr = tmp_path / "trace.json"
        cli.main(["simulate", "--n", "896", "--b", "448",
                  "--csv", str(tmp_path / "s.csv"), "--trace", str(tr)])
        summary = tmp_path / "sum.csv"
        rc = cli.main(["trace", "--in", str(tr), "--summary", str(summary)])
        assert rc == 0
        assert (tmp_path / "sum.csv.kinds.csv").exists()

    def test_summary_to_stdout_sends_kinds_there_too(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cli.main(["simulate", "--n", "896", "--b", "448",
                  "--csv", "s.csv", "--trace", "trace.json"])
        capsys.readouterr()
        rc = cli.main(["trace", "--in", "trace.json", "--summary", "-"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert ",".join(cli.SUMMARY_FIELDS) in lines
        assert ",".join(cli.KIND_FIELDS) in lines
        assert not (tmp_path / "-.kinds.csv").exists()

    @pytest.mark.parametrize("text", [
        "{not json", "[]", "null",
        '{"wall_start_ns": 0, "wall_end_ns": 10, "events": [1]}',
        '{"wall_start_ns": 0, "wall_end_ns": 10, "events": [{"worker": 0, '
        '"task": 0, "kind": "C", "k": 0, "i": 0, "j": 0, "start_ns": "0", '
        '"end_ns": 5}]}',
        '{"wall_start_ns": "0", "wall_end_ns": 10, "events": []}',
        '{"wall_start_ns": 0, "wall_end_ns": 10, "events": [], '
        '"workers": [[1]]}',
        '{"wall_start_ns": 10, "wall_end_ns": 1, "events": []}',
        '{"wall_start_ns": 0, "wall_end_ns": 10, "events": [{"worker": 0, '
        '"task": 0, "kind": "C", "k": 0, "i": 0, "j": 0, "start_ns": 9, '
        '"end_ns": 5}]}',
        '{"wall_start_ns": 0, "wall_end_ns": 1, "events": [{"worker": 0, '
        '"task": 0, "kind": "C", "k": 0, "i": 0, "j": 0, "start_ns": 0, '
        '"end_ns": 5}]}'],
        ids=["not-json", "list", "null", "non-object-event", "str-start",
             "str-wall-start", "list-worker", "wall-end-before-start",
             "event-end-before-start", "event-after-wall-end"])
    def test_unreadable_trace_fails_cleanly(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = cli.main(["trace", "--in", str(bad),
                       "--summary", str(tmp_path / "s.csv")])
        assert rc == 1
        assert "error: cannot read trace" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("argv", [
    ["bench", "--config", "{missing}/b.cfg", "--n", "8", "--b", "4"],
    ["dag", "--s", "3", "--dot", "{missing}/x.dot"],
    ["simulate", "--n", "8", "--b", "4", "--csv", "{missing}/x.csv"],
    ["simulate", "--n", "8", "--b", "4", "--trace", "{missing}/t.json"],
    ["trace", "--in", "{trace}", "--summary", "{missing}/s.csv"]],
    ids=["bench-config", "dag-dot", "simulate-csv", "simulate-trace",
         "trace-summary"])
def test_bad_path_fails_cleanly(tmp_path, capsys, argv):
    trace = tmp_path / "t.json"
    cli.main(["simulate", "--n", "8", "--b", "4", "--csv",
              str(tmp_path / "s.csv"), "--trace", str(trace)])
    capsys.readouterr()
    paths = {"missing": tmp_path / "no-such-dir", "trace": trace}
    rc = cli.main([arg.format(**paths) for arg in argv])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no-such-dir" in err


def test_readme_cli_examples_parse():
    # Each ampsched line of the README's "Command line" block, with its
    # backslash continuations joined, must parse; none is run.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S)
    lines = block.group(1).replace("\\\n", " ").splitlines()
    examples = [shlex.split(line)[1:] for line in lines
                if line.startswith("ampsched ")]
    assert [argv[0] for argv in examples] == ["bench", "simulate", "dag",
                                              "trace"]
    for argv in examples:
        cli.build_parser().parse_args(argv)


def test_console_entry_point_help():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
