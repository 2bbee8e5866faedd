"""Command-line behavior: parsing, exit codes, CSV outputs."""

import errno
import hashlib
import math
import os
import shlex
import subprocess
import sys

import pytest

from protostream import experiments
from protostream.cli import TRACE_HEADER, main, parse_config, read_trace
from protostream.errors import ConfigError

from test_cli_inputs import IO_COMMANDS

# reduced scales chosen so the fixed tolerances still hold with margin
FAST_VERIFY = [
    "verify",
    "--branch-trials", "50000",
    "--miss-trials", "1000",
    "--growth-steps", "50000",
    "--theorem-steps", "12000",
    "--tail-window", "4000",
]


def test_parse_config_defaults_and_flags():
    cfg = parse_config(["run", "--q", "0.75", "--steps", "123"])
    assert cfg.subcommand == "run"
    assert cfg.values["q"] == 0.75
    assert cfg.values["steps"] == 123
    assert cfg.values["epsilon"] == 0.05
    assert cfg.values["index"] == "vptree"


def test_q_at_one_rejected_with_bound_in_message(capsys):
    assert main(["run", "--q", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "0.5 <= q < 1" in err


def test_zero_epsilon_rejected(capsys):
    assert main(["run", "--epsilon", "0"]) == 2
    assert "epsilon" in capsys.readouterr().err


def test_q_below_half_rejected():
    assert main(["run", "--q", "0.4"]) == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tie_tolerance_rejected(value, capsys):
    # A NaN band is never met and 0 * inf is NaN: both would empty the
    # tie set mid-run instead of failing validation.
    assert main(["run", "--tie-tolerance", value, "--steps", "10"]) == 2
    assert "tie_tolerance" in capsys.readouterr().err


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--qq", "0.7"])
    assert exc.value.code == 2


def test_config_file_values_and_flag_override(tmp_path):
    cfg_file = tmp_path / "settings.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "q = 0.75\n"
        "epsilon = 0.2   # trailing comment\n"
        "steps = 50\n"
        "\n"
    )
    cfg = parse_config(["run", "--config", str(cfg_file), "--q", "0.6"])
    assert cfg.values["q"] == 0.6
    assert cfg.values["epsilon"] == 0.2
    assert cfg.values["steps"] == 50


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("qq = 0.7\n")
    assert main(["run", "--config", str(cfg_file)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_config_file_malformed_value_rejected(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("# settings\nq = 0.9x\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(["run", "--config", str(cfg_file)])
    assert str(exc.value) == f"{cfg_file}:2: malformed value for key 'q': '0.9x'"


def test_config_file_missing_equals_rejected(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_config(["run", "--config", str(cfg_file)])


def test_an_output_at_exactly_epsilon_is_a_hit(tmp_path, capsys):
    # quantized_labeler's outputs are cell indices under the discrete
    # metric, so a consulted output is at distance 0 or exactly 1.  At
    # epsilon 1 every step is a hit and the model never grows past its first
    # exemplar; were d == epsilon a miss, it would keep one per cell, 10.
    code = main(["run", "--target", "quantized_labeler", "--epsilon", "1", "--q", "0.75",
                 "--steps", "2000", "--output", str(tmp_path / "trace.csv")])
    assert code == 0
    size_line = next(line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("final model size:"))
    assert size_line.split() == ["final", "model", "size:", "1"]


def test_run_writes_valid_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["run", "--steps", "300", "--q", "0.75", "--epsilon", "0.2",
                 "--seed", "5", "--output", str(out)])
    assert code == 0
    assert "final model size" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 301

    rows = read_trace(str(out))
    size = 0
    for i, row in enumerate(rows, start=1):
        assert row.n == i
        if row.action == "Insert":
            assert not row.hit
            size += 1
        elif row.action == "Remove":
            assert row.hit
            size -= 1
        else:
            assert row.action == "Keep"
            assert row.hit
        assert row.model_size == size
        assert 0.0 <= row.window_hit_rate <= 1.0
        assert -1.0 <= row.window_mean_delta <= 1.0
        if row.hit:
            assert row.output_distance <= 0.2
        assert row.output_distance >= 0.0
    # at least one forced insert on the empty model serializes as inf
    assert rows[0].output_distance == math.inf


def test_run_trace_round_trip_values(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["run", "--steps", "50", "--epsilon", "0.3", "--output", str(out)]) == 0
    rows = read_trace(str(out))
    assert len(rows) == 50
    # 17 significant digits survive the round trip exactly
    text_rows = out.read_text().splitlines()[1:]
    for row, line in zip(rows, text_rows):
        assert f"{row.output_distance:.17g}" == line.split(",")[3]


def test_run_same_args_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["run", "--steps", "400", "--q", "0.9", "--epsilon", "0.1", "--seed", "3"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of `run --q 0.9 --epsilon 0.1 --seed 3 --window W --steps N`
# traces, taken when every row formatted its window columns from floats.
# The rows of window 7 straddle the step where the window fills; window
# 500 never fills in 300 steps.
_TRACE_SHA256 = {
    (7, 400): "60d08838c7b7003fbc20fa1a8f8a970dd096c74799116dc5517455088e334919",
    (1, 300): "9357853138ac97a4f27fb8e5577c42bd77cbaacebf472488326b4c9dfb53b794",
    (500, 300): "5e9f25b998bf79305a86acdd2d67dd0ea0315cddccc55f8d8675acb6bbf7559d",
}
_DELTA = {"Insert": 1, "Remove": -1, "Keep": 0}


@pytest.mark.parametrize("window,steps", sorted(_TRACE_SHA256))
def test_run_trace_bytes_are_pinned(window, steps, tmp_path):
    out = tmp_path / "t.csv"
    assert main(["run", "--q", "0.9", "--epsilon", "0.1", "--seed", "3",
                 "--window", str(window), "--steps", str(steps), "--output", str(out)]) == 0
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == _TRACE_SHA256[window, steps]
    # Each row's window columns are the hit count and the delta sum of the
    # last min(n, window) rows over that count, at 17 significant digits.
    rows = [line.split(",") for line in data.decode().splitlines()[1:]]
    for k, row in enumerate(rows, 1):
        last = rows[max(k - window, 0):k]
        hits = sum(r[4] == "1" for r in last)
        delta_sum = sum(_DELTA[r[1]] for r in last)
        assert row[5:] == [f"{hits / len(last):.17g}", f"{delta_sum / len(last):.17g}"], k


def test_run_unwritable_output_exits_three(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "trace.csv"
    assert main(["run", "--steps", "10", "--output", str(target)]) == 3
    assert "cannot write" in capsys.readouterr().err


# 10 steps: the writer fails at its last flush, after the run sent every
# step.  20000 steps: it fails at its first batch, while the run still sends.
@pytest.mark.parametrize("steps", ["10", "20000"])
def test_run_raises_the_trace_writers_own_error(steps, capsys):
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    assert main(["run", "--steps", steps, "--output", "/dev/full"]) == 3
    assert capsys.readouterr().err == ("error: the trace writer failed: "
                                       f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


# 5000 steps: the writer dies after the run sent its last batch.  20000
# steps: it dies while the run still sends, which then sees a broken pipe.
@pytest.mark.parametrize("steps", ["5000", "20000"])
def test_run_whose_trace_writer_dies_exits_three(steps, monkeypatch, tmp_path, capsys):
    write_rows = experiments._trace_text

    def die_after_one_batch(messages, series_window):
        for batch, text in enumerate(write_rows(messages, series_window)):
            if batch == 1:
                os._exit(9)
            yield text

    monkeypatch.setattr(experiments, "_trace_text", die_after_one_batch)
    assert main(["run", "--steps", steps, "--output", str(tmp_path / "t.csv")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == "error: the trace writer died (exit code 9)\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_whose_trace_writer_cannot_fork_exits_three(monkeypatch, tmp_path, capsys):
    # The pipes made for the writer are closed again, and no child is left.
    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def open_fds():
        return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None

    before = open_fds()
    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["run", "--steps", "10", "--output", str(tmp_path / "t.csv")]) == 3
    assert capsys.readouterr().err == ("error: cannot start the trace writer: "
                                       f"[Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n")
    assert open_fds() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# The run cases' ids name the stdout alone.
@pytest.mark.parametrize("command, stdout", [
    pytest.param(command, stdout, id=("" if command == "run" else f"{command}-") + stdout)
    for command in IO_COMMANDS for stdout in ("full", "broken-pipe", "closed")])
def test_run_whose_stdout_fails_exits_three(command, stdout, tmp_path):
    # The trace, sweep or verify work is done; the lines on stdout are not
    # written, so the outcome is an output error, told in one stderr line,
    # even where a check failed.  stdout is block-buffered, as it is for a
    # user: the lines it could not take stay in its buffer, and the
    # interpreter's exit flush must not fail again.
    argv = [sys.executable, "-m", "protostream",
            *(str(tmp_path / "out") if arg == "OUT" else arg
              for arg in IO_COMMANDS[command])]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if stdout == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        with open("/dev/full", "w") as full:
            done = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=60)
    elif stdout == "broken-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe fails with EPIPE
        try:
            done = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=60)
        finally:
            os.close(write_end)
    else:
        command = shlex.join(argv) + " >&-"
        done = subprocess.run(command, shell=True, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=60)
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("error: cannot write stdout"), line


@pytest.mark.parametrize("stderr", ["full", "closed"])
@pytest.mark.parametrize("flags, code", [(["--q", "2"], 2),
                                         (["--output", "nodir/t.csv"], 3)])
def test_failing_stderr_keeps_the_exit_code(flags, code, stderr, tmp_path):
    # The error line cannot be written either; the exit code must still
    # tell a configuration error (2) from an output error (3), not a failed
    # check (1) or a failed exit flush (120).  stderr is line-buffered, as it
    # is for a user, so the line it could not take stays in its buffer; and
    # the line must not go to stdout instead.
    argv = [sys.executable, "-m", "protostream", "run", "--steps", "10", *flags]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if stderr == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        with open("/dev/full", "w") as full:
            done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=full, cwd=tmp_path,
                                  env=env, timeout=60)
    else:
        done = subprocess.run(shlex.join(argv) + " 2>&-", shell=True, stdout=subprocess.PIPE,
                              cwd=tmp_path, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (code, b"")


def test_run_grid_stream_respects_lattice_limit(tmp_path):
    out = tmp_path / "g.csv"
    code = main(["run", "--stream", "grid", "--grid-resolution", "3",
                 "--steps", "100", "--output", str(out)])
    assert code == 2


def test_run_does_not_import_the_pool(tmp_path):
    # Only a sweep or verify with more than one worker needs the process
    # pool, and importing it is a large share of the package's import time.
    # A traced run forks its writer with os.fork alone; 5000 steps cross a
    # batch boundary.
    trace = str(tmp_path / "t.csv")
    run = "from protostream.cli import main; main(['run', '--steps', {}, '--output', {!r}])"
    for code in ("import protostream.cli", run.format("'10'", trace), run.format("'5000'", trace)):
        probe = (f"import sys; {code}; print(sorted(sys.modules.keys() & "
                 "{'concurrent.futures', 'multiprocessing', 'subprocess'}))")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True, timeout=60)
        assert done.stdout.splitlines()[-1] == "[]", code


def test_discrete_metric_traces_match_across_backends(tmp_path):
    # Under the discrete metric every live point ties with every other, so
    # every query returns the whole model: the one geometry where the tree's
    # nearest set is every stored exemplar.
    traces = []
    for kind in ("vptree", "linear"):
        out = tmp_path / f"{kind}.csv"
        assert main(["run", "--metric", "discrete", "--steps", "1500", "--index", kind,
                     "--output", str(out)]) == 0
        traces.append(out.read_bytes())
    assert traces[0] == traces[1]


def test_sweep_writes_traces_and_summary(tmp_path):
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--steps", "200", "--epsilon", "0.2",
                 "--q-list", "0.5,0.75,0.9", "--seed-list", "1,2",
                 "--output", str(out_dir)])
    assert code == 0
    traces = sorted(p for p in os.listdir(out_dir) if p.startswith("trace_"))
    assert len(traces) == 6
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "q,epsilon,seed,final_size,tail_hit_rate,tail_mean_delta,stabilized"
    assert len(summary) == 7
    for line in summary[1:]:
        fields = line.split(",")
        assert len(fields) == 7
        assert fields[6] in ("0", "1")
        assert int(fields[3]) >= 0


# SHA-256 of summary.csv for this sweep, taken when each sweep worker still
# returned a dict that cmd_sweep formatted.
SWEEP_SUMMARY_SHA256 = "f0f3a378383c1cc93f4cb8da31df194d687de8837e0124d2286e65af71758038"


def test_sweep_summary_bytes_are_pinned(tmp_path):
    args = ["sweep", "--steps", "200", "--epsilon", "0.2",
            "--q-list", "0.5,0.9", "--seed-list", "1,2"]
    for jobs in ("1", "2"):
        out_dir = tmp_path / jobs
        assert main(args + ["--jobs", jobs, "--output", str(out_dir)]) == 0
        summary = (out_dir / "summary.csv").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == SWEEP_SUMMARY_SHA256, jobs


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_output_that_is_a_file_exits_three(jobs, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["sweep", "--steps", "20", "--q-list", "0.5,0.9", "--jobs", jobs,
                 "--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: cannot ")
    assert out.read_text() == ""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_trace_path_that_is_a_directory_exits_three(jobs, tmp_path, capsys):
    out = tmp_path / "sweep"
    (out / "trace_q0.9_eps0.05_seed0.csv").mkdir(parents=True)
    assert main(["sweep", "--steps", "20", "--q-list", "0.5,0.9", "--jobs", jobs,
                 "--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: cannot ")
    assert not (out / "summary.csv").exists()


def test_sweep_empty_list_rejected():
    assert main(["sweep", "--q-list", ""]) == 2


def test_sweep_reproduces_byte_identical(tmp_path):
    args = ["sweep", "--steps", "150", "--epsilon", "0.25",
            "--q-list", "0.5,0.9", "--seed", "7"]
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    assert main(args + ["--output", str(d1)]) == 0
    assert main(args + ["--output", str(d2)]) == 0
    for name in os.listdir(d1):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_verify_quick_pass(capsys):
    assert main(FAST_VERIFY) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    # one line per growth grid cell
    assert out.count("growth-identity") == 15
    assert out.count("conditional-branch") == 8
    assert out.count("theorem") == 6


# SHA-256 of verify's stdout at FAST_VERIFY, taken when verify still ran its
# experiments one after another in one process; the unstable case, whose
# theorem runs are too short to stabilize and print "not evaluated", was
# taken when cmd_verify still derived each check from bare results.
FAST_VERIFY_STDOUT_SHA256 = [
    ([], 0, "e5cf1fac8e28050cc8f5326e07178f27ddfb421e8a395e777dd2d713f546079c"),
    (["--inject-removal-probability", "0.5"], 1,
     "058a01b2a868d062d8488bb9286e6b315eb550f83e49fab020851fa3bc7f59ad"),
    (["--theorem-steps", "300", "--tail-window", "100"], 1,
     "bbfbadea003ef49afced07fbf3750f919229bb67d0f112b7aeda90bb636168cc"),
]


@pytest.mark.parametrize("extra, code, digest", FAST_VERIFY_STDOUT_SHA256,
                         ids=["plain", "injected", "unstable"])
def test_verify_stdout_does_not_depend_on_jobs(extra, code, digest, capsys):
    for jobs in ("1", "2"):
        assert main(FAST_VERIFY + extra + ["--jobs", jobs]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, jobs


class _FullDevice:
    """A stdout on a full device: every write fails, and every flush after one.

    A flush with nothing written succeeds, as on a real device; a pool flushes
    stdout before it starts a worker.
    """

    written = False

    def write(self, text):
        self.written = True
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        if self.written:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_whose_verdict_cannot_be_written_exits_three(jobs, monkeypatch, capsys):
    # Every check passes, but no line reaches stdout: exit 1 would say a
    # check failed, and exit 0 that the verdict was delivered.
    monkeypatch.setattr(sys, "stdout", _FullDevice())
    assert main(FAST_VERIFY + ["--jobs", jobs]) == 3
    err = capsys.readouterr().err
    assert err == (f"error: cannot write stdout: [Errno {errno.ENOSPC}] "
                   f"{os.strerror(errno.ENOSPC)}\n")


def test_verify_detects_corrupted_removal_probability(capsys):
    code = main(FAST_VERIFY + ["--inject-removal-probability", "0.5"])
    assert code == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert any("growth-identity" in line and "FAIL" in line
               for line in out.splitlines())


def test_verify_injection_does_not_leak(capsys):
    assert main(FAST_VERIFY + ["--inject-removal-probability", "0.9"]) == 1
    capsys.readouterr()
    assert main(FAST_VERIFY) == 0


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
