"""CLI contract: commands, flags, exit codes, output conventions."""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import netmbt
from conftest import child_env, run_cli
from netmbt.cli import _build_parser, main
from netmbt.models import MODEL_REGISTRY


def run_python(code: str) -> str:
    """The stdout of ``python -c code`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), check=True)
    return proc.stdout


class TestRunCommand:
    def test_passing_suite_exits_zero(self, tmp_path):
        out = tmp_path / "t.trace"
        code = main(["run", "--model", "server-main", "--backend", "sim",
                     "--seed", "42", "--tests", "50", "--trace-out", str(out)])
        assert code == 0
        assert out.exists()

    def test_failing_suite_exits_one_and_writes_traces(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--model", "minimalist", "--backend", "sim",
                     "--seed", "1", "--tests", "200", "--fault", "duplicate-bytes"])
        assert code == 1
        captured = capsys.readouterr()
        assert (tmp_path / "netmbt-failures.trace").exists()
        assert "failing traces written" in captured.out

    def test_empty_trace_out_is_config_error(self, tmp_path, capsys, monkeypatch):
        # "" would write no trace file and, being given, no failures file.
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--model", "server-main", "--seed", "5", "--tests", "50",
                     "--fault", "duplicate-bytes", "--trace-out", ""])
        assert code == 2
        assert capsys.readouterr().err == "error: trace-out must name a file\n"
        assert list(tmp_path.iterdir()) == []

    def test_seed_chosen_and_printed_when_omitted(self, capsys):
        code = main(["run", "--model", "minimalist", "--tests", "2"])
        assert code == 0
        first_line = capsys.readouterr().out.splitlines()[0]
        assert first_line.startswith("seed ")
        int(first_line.split()[1])  # parses as an integer

    @pytest.mark.parametrize("argv", [
        ["run", "--model", "worker", "--tests", "1"],
        ["replay", "--replay", "{trace}"],  # the model named by the trace
    ])
    def test_non_root_model_is_config_error(self, argv, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        trace.write_text("netmbt-trace v1 seed=1 test=0 backend=sim\n"
                         "0 1 worker <init> - connected\nverdict PASS\n")
        assert main([arg.format(trace=trace) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert "cannot run standalone" in captured.err
        assert "DIVERGED" not in captured.out

    def test_unknown_model_is_config_error(self):
        assert main(["run", "--model", "nonesuch", "--tests", "1"]) == 2

    def test_fault_with_real_backend_is_config_error(self, capsys):
        code = main(["run", "--model", "minimalist", "--backend", "real",
                     "--fault", "drop-bytes", "--tests", "1"])
        assert code == 2
        assert "sim backend" in capsys.readouterr().err

    def test_latency_with_real_backend_is_config_error(self, capsys):
        # --latency shapes the simulator only; on sockets it is refused, not ignored
        code = main(["run", "--model", "minimalist", "--backend", "real",
                     "--latency", "zero", "--tests", "1"])
        assert code == 2
        assert capsys.readouterr().err == "error: a latency model requires the sim backend\n"

    @pytest.mark.parametrize("flags, error", [
        (["--tests", "0"], "tests must be >= 1"),
        (["--max-steps", "0"], "max steps per test must be >= 1"),
        (["--port-range", "5:4"], "invalid port range 5:4"),
    ])
    def test_config_error_is_reported_before_the_seed_line(self, flags, error, capsys):
        assert main(["run", "--model", "minimalist", "--seed", "3", *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.parametrize("seed", ["08", "0x", "abc", "-1", str(1 << 64)])
    def test_bad_seed_exits_two_naming_the_value(self, seed):
        proc = run_cli("run", "--model", "minimalist", "--seed", seed)
        assert proc.returncode == 2
        assert proc.stderr.splitlines()[-1] == (
            "netmbt run: error: argument --seed: "
            f"seed must be a 64-bit unsigned integer, got '{seed}'")

    def test_unknown_flag_exits_two(self):
        proc = run_cli("run", "--model", "minimalist", "--frobnicate")
        assert proc.returncode == 2
        assert "--frobnicate" in proc.stderr

    @pytest.mark.parametrize("command", ["run", "replay"])
    def test_bad_port_range_exits_two(self, command, tmp_path):
        # run and replay share the flag; the parse error must come first
        first = {"run": ["--model", "minimalist"],
                 "replay": ["--replay", str(tmp_path / "absent.trace")]}[command]
        proc = run_cli(command, *first, "--port-range", "bananas")
        assert proc.returncode == 2
        assert "expected lo:hi" in proc.stderr

    def test_report_includes_coverage_block(self, capsys):
        main(["run", "--model", "server-main", "--seed", "3", "--tests", "30"])
        out = capsys.readouterr().out
        assert any(line.startswith("coverage server-main states ")
                   for line in out.splitlines())

    def test_zero_latency_flag(self):
        code = main(["run", "--model", "server-main", "--seed", "3",
                     "--tests", "30", "--latency", "zero"])
        assert code == 0

    def test_port_exhaustion_is_backend_error_not_test_failure(self, capsys):
        # a 1-port range with a 2-test cooldown cannot serve a second test
        code = main(["run", "--model", "minimalist", "--backend", "real", "--seed", "3",
                     "--tests", "5", "--port-range", "21000:21000"])
        assert code == 2
        assert "port" in capsys.readouterr().err

    def test_sim_opens_no_port_so_a_one_port_range_is_enough(self, tmp_path, capsys):
        # The sim numbers its own ports: --port-range is only validated.
        narrow, default = tmp_path / "narrow.trace", tmp_path / "default.trace"
        common = ["run", "--model", "server-main", "--seed", "1", "--tests", "3"]
        assert main([*common, "--port-range", "20000:20000", "--trace-out", str(narrow)]) == 0
        assert main([*common, "--trace-out", str(default)]) == 0
        assert "error" not in capsys.readouterr().err
        assert narrow.read_bytes() == default.read_bytes()


class TestReplayCommand:
    def test_replay_matches_and_exits_zero(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        main(["run", "--model", "server-main", "--seed", "5", "--tests", "5",
              "--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["replay", "--replay", str(trace)]) == 0
        out = capsys.readouterr().out
        assert out.count("MATCH verdict=PASS") == 5

    def test_replay_of_failures_exits_one_same_step(self, tmp_path, capsys):
        from netmbt.trace import parse_traces

        trace = tmp_path / "t.trace"
        main(["run", "--model", "server-main", "--seed", "9", "--tests", "100",
              "--fault", "duplicate-bytes", "--trace-out", str(trace)])
        capsys.readouterr()
        recorded_steps = {
            str(t.test_index): str(t.failing_step_index)
            for t in parse_traces(trace.read_text()) if t.verdict == "FAIL"
        }
        assert recorded_steps
        assert main(["replay", "--replay", str(trace), "--fault", "duplicate-bytes"]) == 1
        replay_out = capsys.readouterr().out
        replayed = 0
        for line in replay_out.splitlines():
            if "verdict=FAIL" in line:
                test_id = line.split()[2].rstrip(":")
                step = line.rsplit("step ", 1)[1]
                assert recorded_steps.get(test_id) == step
                replayed += 1
        assert replayed == len(recorded_steps)

    def test_replay_with_wrong_flags_diverges_exit_two(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        main(["run", "--model", "server-main", "--seed", "9", "--tests", "50",
              "--fault", "duplicate-bytes", "--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["replay", "--replay", str(trace)]) == 2  # fault flag omitted
        assert "DIVERGED" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        "netmbt-trace v1 seed=abc test=0 backend=sim\nverdict PASS\n",
        "netmbt-trace v1 seed=1 backend=sim\nverdict PASS\n",
        "hello\n",
        # out of range: the rng would mask 2**64 + s to s and replay s as a match
        "netmbt-trace v1 seed=18446744073709551616 test=0 backend=sim\nverdict PASS\n",
        "netmbt-trace v1 seed=-1 test=0 backend=sim\nverdict PASS\n",
        "netmbt-trace v1 seed=1 test=-1 backend=sim\nverdict PASS\n",
        "netmbt-trace v1 seed=1 test=0 backend=bogus\nverdict PASS\n",
        # the version is exactly v1, not a prefix of the header
        "netmbt-trace v10 seed=1 test=0 backend=sim\nverdict PASS\n",
        "netmbt-trace v2 seed=1 test=0 backend=sim\nverdict PASS\n",
        # each header field exactly once, and nothing else
        "netmbt-trace v1 seed=1 test=0 backend=sim seed=2\nverdict PASS\n",
        "netmbt-trace v1 seed=1 test=0 backend=sim junk=x\nverdict PASS\n",
        "netmbt-trace v1 seed=1 test=0 backend=sim stray\nverdict PASS\n",
    ])
    def test_malformed_file_exits_two_with_one_line(self, tmp_path, text):
        path = tmp_path / "bad.trace"
        path.write_text(text)
        proc = run_cli("replay", "--replay", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: line 1: ")
        assert proc.stderr.count("\n") == 1

    def test_text_after_verdict_pass_is_a_malformed_line(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        main(["run", "--model", "minimalist", "--seed", "1", "--tests", "3",
              "--trace-out", str(path)])
        lines = path.read_text().splitlines()
        n = lines.index("verdict PASS") + 1
        lines[n - 1] = "verdict PASS stray words"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["replay", "--replay", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: line {n}: verdict PASS carries no "
                                           "message: 'verdict PASS stray words'\n")

    @pytest.mark.parametrize("text, error", [
        ("", "no traces in file"),
        ("netmbt-trace v1 seed=1 test=0 backend=sim\nverdict PASS\n",
         "no trace has a record to name the root model"),
    ])
    def test_unusable_file_exits_two_with_one_error_line(self, tmp_path, capsys, text, error):
        path = tmp_path / "bad.trace"
        path.write_text(text)
        assert main(["replay", "--replay", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_root_is_inferred_past_an_empty_first_block(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        main(["run", "--model", "minimalist", "--seed", "5", "--tests", "1",
              "--trace-out", str(trace)])
        path = tmp_path / "empty-first.trace"
        path.write_text("netmbt-trace v1 seed=1 test=0 backend=sim\nverdict PASS\n"
                        + trace.read_text())
        capsys.readouterr()
        assert main(["replay", "--replay", str(path)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["replay test 0: DIVERGED at step 0", "  expected: <missing>"]
        assert out[2].startswith("  actual:   0 1 minimalist <init> - ")

    def test_real_backend_file_replays(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        assert main(["run", "--model", "minimalist", "--backend", "real", "--seed", "5",
                     "--tests", "5", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["replay", "--replay", str(trace)]) == 0
        out = capsys.readouterr().out
        assert out.count("note: real-backend replay is best-effort") == 1
        assert out.count("MATCH verdict=PASS") == 5

    @pytest.mark.parametrize("flags, error", [
        (["--port-range", "5:4"], "invalid port range 5:4"),
        (["--latency", "zero"], "a latency model requires the sim backend"),
    ])
    def test_real_file_config_error_leaves_stdout_empty(self, tmp_path, capsys, flags, error):
        # The configuration is checked before the best-effort note is printed,
        # and before any socket is opened.
        path = tmp_path / "real.trace"
        path.write_text("netmbt-trace v1 seed=1 test=0 backend=real\n"
                        "0 1 minimalist <init> - bound\nverdict PASS\n")
        assert main(["replay", "--replay", str(path), *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_mixed_backend_file_exits_two_with_one_error_line(self, tmp_path, capsys):
        blocks = []
        for backend in ("sim", "real"):
            trace = tmp_path / f"{backend}.trace"
            main(["run", "--model", "minimalist", "--backend", backend, "--seed", "5",
                  "--tests", "2", "--trace-out", str(trace)])
            blocks.append(trace.read_text())
        mixed = tmp_path / "mixed.trace"
        mixed.write_text("".join(blocks))
        capsys.readouterr()
        assert main(["replay", "--replay", str(mixed)]) == 2
        assert capsys.readouterr() == ("", "error: trace file mixes backends real and sim\n")

    def test_mixed_root_file_exits_two_with_one_error_line(self, tmp_path, capsys):
        blocks = []
        for model in ("server-main", "minimalist"):
            trace = tmp_path / f"{model}.trace"
            main(["run", "--model", model, "--seed", "5", "--tests", "2",
                  "--trace-out", str(trace)])
            blocks.append(trace.read_text())
        mixed = tmp_path / "mixed.trace"
        mixed.write_text("".join(blocks))
        capsys.readouterr()
        assert main(["replay", "--replay", str(mixed)]) == 2
        assert capsys.readouterr() == (
            "", "error: trace file mixes root models minimalist and server-main\n")

    def test_binary_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"\xff\xfe")
        assert main(["replay", "--replay", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_file_exits_two(self, capsys):
        assert main(["replay", "--replay", "/nonexistent/file.trace"]) == 2


class TestOtherCommands:
    def test_list_models_names(self, capsys):
        assert main(["list-models"]) == 0
        names = capsys.readouterr().out.split()
        assert names == list(MODEL_REGISTRY)

    def test_export_dot_all_models(self, capsys):
        for name in MODEL_REGISTRY:
            assert main(["export-dot", "--model", name]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f'digraph "{name}"')

    def test_export_dot_unknown_model(self):
        assert main(["export-dot", "--model", "nope"]) == 2

    def test_command_required(self):
        proc = run_cli()
        assert proc.returncode == 2


README = Path(__file__).parent.parent / "README.md"


class TestReadmeFlags:
    """README's "Flags for `run`" and "Flags for `replay`" paragraphs name
    exactly the options of that subcommand's parser, help aside."""

    @pytest.mark.parametrize("command", ["run", "replay"])
    def test_readme_paragraph_names_the_parser_options(self, command):
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {opt for action in sub.choices[command]._actions
                   for opt in action.option_strings} - {"-h", "--help"}
        paragraph, = (p for p in README.read_text(encoding="utf-8").split("\n\n")
                      if p.startswith(f"Flags for `{command}`:"))
        assert set(re.findall(r"--[a-z][a-z-]*", paragraph)) == options

    def test_p_close_is_an_unrecognized_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--model", "minimalist", "--tests", "1", "--p-close", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --p-close 0.1" in capsys.readouterr().err

    def test_replay_model_is_an_unrecognized_argument(self, tmp_path, capsys):
        # replay takes its root model from the file's records alone
        trace = tmp_path / "t.trace"
        main(["run", "--model", "minimalist", "--seed", "5", "--tests", "2",
              "--trace-out", str(trace)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["replay", "--replay", str(trace), "--model", "minimalist"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --model minimalist" in capsys.readouterr().err


class TestClosedStdout:
    """A reader that stopped reading (``netmbt run ... | head -1``) is not an
    error: exit 141 (128 + SIGPIPE) with nothing on stderr, whether stdout
    is buffered or not."""

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [
        ("run", "--model", "minimalist", "--seed", "1", "--tests", "5"),
        ("list-models",),
    ], ids=["run", "list-models"])
    def test_closed_stdout_exits_141_quietly(self, tmp_path, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "netmbt", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, cwd=tmp_path,
                env=dict(child_env(), PYTHONUNBUFFERED=unbuffered))
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, "")


_LISTED = "import sys; print(*sorted(sys.modules))"


class TestLeanStartUp:
    """A run imports only what it runs: no dataclasses or inspect machinery,
    no hashing for a seed, and sockets only for --backend real."""

    def test_cli_import_adds_no_heavy_module(self):
        bare = set(run_python(_LISTED).split())
        added = set(run_python("import netmbt.cli; " + _LISTED).split()) - bare
        assert "netmbt.cli" in added
        heavy = {"dataclasses", "inspect", "secrets", "hashlib", "socket", "selectors",
                 "netmbt.realnet"}
        assert not added & heavy

    def test_sim_run_leaves_realnet_unloaded(self):
        out = run_python(
            "import sys; from netmbt.cli import main; "
            "code = main(['run', '--model', 'server-main', '--seed', '3', '--tests', '20']); "
            "print(code, 'netmbt.realnet' in sys.modules, 'socket' in sys.modules)")
        assert out.splitlines()[-1] == "0 False False"

    def test_real_run_loads_every_package_module(self):
        # A module no run reaches (only tests import it) belongs under tests/.
        # __main__ is left out: ``python -m netmbt`` runs it as __main__.
        out = run_python(
            "import sys; from netmbt.cli import main; "
            "code = main(['run', '--model', 'minimalist', '--backend', 'real', "
            "'--seed', '5', '--tests', '1']); "
            "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'netmbt'))")
        package = Path(netmbt.__file__).parent
        expected = {f"netmbt.{f.stem}" for f in package.glob("*.py")} - {
            "netmbt.__init__", "netmbt.__main__"}
        assert out.splitlines()[-1].split() == ["0", "netmbt", *sorted(expected)]

    def test_real_run_still_passes(self, tmp_path):
        proc = run_cli("run", "--model", "minimalist", "--backend", "real", "--seed", "5",
                       "--tests", "3", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "result: 3 passed, 0 failed" in proc.stdout

    def test_omitted_seed_is_a_u64_that_reproduces_the_run(self, tmp_path):
        first = run_cli("run", "--model", "server-main", "--tests", "5",
                        "--trace-out", "first.trace", cwd=tmp_path)
        assert first.returncode == 0, first.stderr
        seed_line = first.stdout.splitlines()[0]
        assert seed_line.startswith("seed ")
        seed = int(seed_line.split()[1])
        assert 0 <= seed < 1 << 64
        again = run_cli("run", "--model", "server-main", "--tests", "5", "--seed", str(seed),
                        "--trace-out", "again.trace", cwd=tmp_path)
        assert again.returncode == 0, again.stderr
        assert again.stdout.splitlines()[0] == seed_line
        assert (tmp_path / "again.trace").read_bytes() == (tmp_path / "first.trace").read_bytes()


def _dev_cli(*argv, cwd):
    """``python -X dev -W error::ResourceWarning -m netmbt *argv``: a socket
    or file left for the collector to close is an error printed on stderr."""
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "netmbt", *argv],
        capture_output=True, text=True, cwd=cwd, env=child_env(),
    )


class TestResourceHygiene:
    """A run and a replay close every socket and file they open."""

    RUN = ("run", "--model", "server-main", "--seed", "5", "--tests", "20")

    def test_sim_run_and_its_replay_leave_nothing_open(self, tmp_path):
        run = _dev_cli(*self.RUN, "--trace-out", "t.trace", cwd=tmp_path)
        assert (run.returncode, run.stderr) == (0, "")
        assert "result: 20 passed, 0 failed" in run.stdout
        replayed = _dev_cli("replay", "--replay", "t.trace", cwd=tmp_path)
        assert (replayed.returncode, replayed.stderr) == (0, "")
        assert replayed.stdout.count("MATCH verdict=PASS") == 20

    def test_real_run_leaves_nothing_open(self, tmp_path):
        run = _dev_cli(*self.RUN, "--backend", "real", cwd=tmp_path)
        assert (run.returncode, run.stderr) == (0, "")
        assert "result: 20 passed, 0 failed" in run.stdout
