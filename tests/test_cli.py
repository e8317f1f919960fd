"""End-to-end tests of the command-line interface."""

import re

import pytest

from repro.cli import main
from repro.systems import philosophers

COPIER = """
copier = input?x:NAT -> wire!x -> copier;
recopier = wire?y:NAT -> output!y -> recopier;
network = chan wire; (copier || recopier)
"""

PROTOCOL = """
sender = input?y:M -> q[y];
q[x:M] = wire!x -> (wire?y:{ACK} -> sender | wire?y:{NACK} -> q[x]);
receiver = wire?z:M -> (wire!ACK -> output!z -> receiver | wire!NACK -> receiver);
protocol = chan wire; (sender || receiver)
"""

#: p0 recurses through the channel it hides.
HIDDEN_RECURSION = "p0 = chan b; b?x:{0,1} -> p0; p1 = b!0 -> p1; sys = p0 || p1\n"

DEADLOCKER = """
p = w!1 -> out!1 -> STOP;
q = w?x:{2..3} -> STOP;
net = p || q
"""


@pytest.fixture
def copier_file(tmp_path):
    path = tmp_path / "copier.csp"
    path.write_text(COPIER)
    return str(path)


@pytest.fixture
def protocol_file(tmp_path):
    path = tmp_path / "protocol.csp"
    path.write_text(PROTOCOL)
    return str(path)


@pytest.fixture
def deadlock_file(tmp_path):
    path = tmp_path / "net.csp"
    path.write_text(DEADLOCKER)
    return str(path)


def _plan_lines(out):
    """The engine plan that ``stats --explain-plan`` prints."""
    return [
        line
        for line in out.splitlines()
        if line.startswith(("engine plan:", "  rank ", "  totals:"))
    ]


class TestParse:
    def test_pretty_prints(self, copier_file, capsys):
        assert main(["parse", copier_file]) == 0
        out = capsys.readouterr().out
        assert "copier = input?x:NAT -> wire!x -> copier" in out

    def test_missing_file(self, capsys):
        assert main(["parse", "/nonexistent.csp"]) == 2

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.csp"
        path.write_text("p = wire!")
        assert main(["parse", str(path)]) == 2
        assert "error" in capsys.readouterr().err


class TestTraces:
    def test_lists_traces(self, copier_file, capsys):
        assert main(["traces", copier_file, "--process", "copier", "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "input.0" in out and "wire.0" in out

    def test_default_process_is_last_equation(self, copier_file, capsys):
        assert main(["traces", copier_file, "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "input" in out

    def test_unknown_process(self, copier_file, capsys):
        assert main(["traces", copier_file, "--process", "ghost"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no process named 'ghost'")

    def test_operational_engine(self, copier_file, capsys):
        assert (
            main(
                [
                    "traces",
                    copier_file,
                    "--depth",
                    "2",
                    "--engine",
                    "operational",
                ]
            )
            == 0
        )


class TestCheck:
    def test_holds(self, copier_file, capsys):
        code = main(
            ["check", copier_file, "--process", "copier", "--spec", "wire <= input"]
        )
        assert code == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_violated_with_counterexample(self, copier_file, capsys):
        code = main(
            ["check", copier_file, "--process", "copier", "--spec", "input <= wire"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "violated" in out

    def test_named_set_binding(self, protocol_file, capsys):
        code = main(
            [
                "check",
                protocol_file,
                "--process",
                "protocol",
                "--spec",
                "output <= input",
                "--set",
                "M=0,1",
                "--with-cancel",
                "f",
                "--depth",
                "4",
                "--sample",
                "3",
            ]
        )
        assert code == 0

    def test_bad_set_syntax(self, protocol_file, capsys):
        code = main(
            ["check", protocol_file, "--spec", "output <= input", "--set", "M"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --set expects")


class TestProve:
    def test_proves_network(self, copier_file, capsys):
        code = main(
            [
                "prove",
                copier_file,
                "--goal",
                "network",
                "--invariant",
                "copier=wire <= input",
                "--invariant",
                "recopier=output <= wire",
                "--invariant",
                "network=output <= input",
            ]
        )
        assert code == 0
        assert "checked" in capsys.readouterr().out

    def test_show_proof(self, copier_file, capsys):
        code = main(
            [
                "prove",
                copier_file,
                "--goal",
                "copier",
                "--invariant",
                "copier=wire <= input",
                "--show-proof",
            ]
        )
        assert code == 0
        assert "[recursion]" in capsys.readouterr().out

    def test_false_invariant_fails(self, copier_file, capsys):
        code = main(
            [
                "prove",
                copier_file,
                "--goal",
                "copier",
                "--invariant",
                "copier=input <= wire",
            ]
        )
        assert code == 1
        assert "PROOF FAILED" in capsys.readouterr().out

    def test_malformed_invariant_is_parse_exit(self, copier_file, capsys):
        code = main(["prove", copier_file, "--invariant", "copier"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --invariant expects")

    def test_array_invariant_uses_definition_parameter(self, protocol_file, capsys):
        code = main(
            [
                "prove",
                protocol_file,
                "--goal",
                "sender",
                "--set",
                "M=0,1",
                "--with-cancel",
                "f",
                "--invariant",
                "sender=f(wire) <= input",
                "--invariant",
                "q=f(wire) <= x ^ input",
            ]
        )
        assert code == 0
        assert "sender sat" in capsys.readouterr().out


class TestSimulateAndDeadlocks:
    def test_simulate_runs(self, copier_file, capsys):
        code = main(
            ["simulate", copier_file, "--process", "copier", "--steps", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "input" in out

    def test_simulate_reports_deadlock(self, deadlock_file, capsys):
        code = main(["simulate", deadlock_file, "--process", "net", "--steps", "5"])
        assert code == 1
        assert "DEADLOCK" in capsys.readouterr().out

    def test_deadlocks_found(self, deadlock_file, capsys):
        code = main(["deadlocks", deadlock_file, "--process", "net", "--depth", "2"])
        assert code == 1
        assert "deadlocking" in capsys.readouterr().out

    def test_no_deadlocks(self, copier_file, capsys):
        code = main(["deadlocks", copier_file, "--process", "copier", "--depth", "3"])
        assert code == 0
        assert "no deadlock" in capsys.readouterr().out


class TestBudgetsAndExitCodes:
    """The robustness contract: budget flags, partial results, exit taxonomy."""

    @pytest.fixture(autouse=True)
    def cold_kernel(self):
        # --max-nodes counts fresh interner misses; the interner is
        # process-global, so start these tests from a cold kernel.
        from repro.traces.trie import clear_interner

        clear_interner()

    def test_check_max_nodes_partial(self, copier_file, capsys):
        code = main(
            [
                "check",
                copier_file,
                "--process",
                "copier",
                "--spec",
                "wire <= input",
                "--depth",
                "8",
                "--max-nodes",
                "15",
            ]
        )
        assert code == 4
        captured = capsys.readouterr()
        assert "PARTIAL" in captured.out
        assert "verified to depth" in captured.err

    def test_check_deadline_zero_is_budget_exit(self, copier_file, capsys):
        code = main(
            [
                "check",
                copier_file,
                "--process",
                "copier",
                "--spec",
                "wire <= input",
                "--deadline",
                "0",
            ]
        )
        assert code == 4
        assert "budget exhausted" in capsys.readouterr().err

    def test_check_with_ample_budget_still_holds(self, copier_file, capsys):
        code = main(
            [
                "check",
                copier_file,
                "--process",
                "copier",
                "--spec",
                "wire <= input",
                "--max-nodes",
                "1000000",
            ]
        )
        assert code == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_traces_partial_lists_verified_prefix(self, copier_file, capsys):
        code = main(
            [
                "traces",
                copier_file,
                "--process",
                "copier",
                "--depth",
                "8",
                "--max-nodes",
                "15",
            ]
        )
        assert code == 4
        captured = capsys.readouterr()
        assert "PARTIAL" in captured.out
        assert "input.0" in captured.out  # the sound prefix is still printed

    def test_deadlocks_budget_partial(self, copier_file, tmp_path, capsys):
        # the copier network keeps running, so a one-state budget trips
        code = main(
            [
                "deadlocks",
                copier_file,
                "--process",
                "network",
                "--depth",
                "4",
                "--max-states",
                "1",
            ]
        )
        assert code == 4
        captured = capsys.readouterr()
        assert "PARTIAL" in captured.out
        assert "budget exhausted" in captured.err

        # A trip after the deadlocks of depth 3 were found lists them.
        table = tmp_path / "philosophers.csp"
        table.write_text(philosophers.source(3))
        code = main(
            [
                "deadlocks",
                str(table),
                "--process",
                "table",
                "--sample",
                "3",
                "--depth",
                "12",
                "--max-states",
                "20",
            ]
        )
        assert code == 4
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "PARTIAL: search stopped early with 6 deadlocking trace(s) found "
            "so far:",
            "  ⟨grab[0].0, grab[1].1, grab[2].2⟩",
            "  ⟨grab[0].0, grab[2].2, grab[1].1⟩",
            "  ⟨grab[1].1, grab[0].0, grab[2].2⟩",
            "  ⟨grab[1].1, grab[2].2, grab[0].0⟩",
            "  ⟨grab[2].2, grab[0].0, grab[1].1⟩",
            "  ⟨grab[2].2, grab[1].1, grab[0].0⟩",
        ]

    def test_deadlocks_trip_in_initial_tau_closure_claims_no_depth(
        self, tmp_path, capsys
    ):
        # ⟨⟩ deadlocks once the hidden w-communication is done, so a trip
        # inside the initial τ-closure has scanned no depth at all.
        path = tmp_path / "tau.csp"
        path.write_text(
            "p = w!1 -> STOP; q = w?x:{1} -> STOP; net = chan w; (p || q)"
        )
        argv = ["deadlocks", str(path), "--process", "net", "--depth", "2"]
        assert main(argv) == 1
        assert "  ⟨⟩" in capsys.readouterr().out.splitlines()
        assert main(argv + ["--max-states", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "PARTIAL: search stopped early with 0 deadlocking trace(s) found "
            "so far:"
        ]
        assert "partial result: deadlock: no depth completed" in captured.err
        assert "verified to depth" not in captured.err

    @pytest.mark.parametrize("op", ["traces", "check", "deadlocks"])
    def test_explorer_overflow_is_a_recursion_budget_trip(
        self, op, tmp_path, capsys
    ):
        # p0 recurses through its own hidden channel: every τ-step nests
        # the configuration deeper, until the recursion limit stops it.
        path = tmp_path / "hidden.csp"
        path.write_text(HIDDEN_RECURSION)
        argv = [op, str(path), "--process", "sys", "--depth", "1"]
        if op != "deadlocks":
            argv += ["--engine", "operational", "--no-cache"]
        if op == "check":
            argv += ["--spec", "#b >= 1"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "budget exhausted: recursion-depth" in err
        assert "Traceback" not in err

    def test_ungoverned_supply_trip_completes_no_sat_depth(
        self, tmp_path, capsys
    ):
        # ⟨⟩ violates the spec, but the explorer trips before the check
        # judges a single trace: the trip claims no depth of the check.
        path = tmp_path / "hidden.csp"
        path.write_text(HIDDEN_RECURSION)
        argv = [
            "check", str(path), "--process", "sys", "--depth", "1",
            "--engine", "operational", "--no-cache", "--spec", "#b >= 1",
        ]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == (
            "PARTIAL: sys sat #b >= 1 — no counterexample found\n"
        )
        assert "partial result: sat: no depth completed" in captured.err
        assert "explore:" not in captured.err

    def test_deadlocks_reports_states_touched(self, deadlock_file, capsys):
        code = main(["deadlocks", deadlock_file, "--process", "net", "--depth", "2"])
        assert code == 1
        assert "states touched" in capsys.readouterr().out

    def test_stats_appends_governor_counters(self, copier_file, capsys):
        code = main(
            [
                "stats",
                copier_file,
                "--process",
                "copier",
                "--depth",
                "3",
                "--max-nodes",
                "1000000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resource governor" in out
        assert "max-nodes=1000000" in out

    def test_semantics_error_exit_code(self, protocol_file, capsys):
        # protocol needs --set M=…; without it the semantics layer fails
        code = main(
            ["check", protocol_file, "--process", "protocol", "--spec", "output <= input"]
        )
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csp"
        bad.write_text("p = wire!")
        assert main(["check", str(bad), "--spec", "wire <= input"]) == 2

    def test_debug_reraises(self, copier_file):
        with pytest.raises(Exception):
            main(["check", "/nonexistent.csp", "--spec", "x <= y", "--debug"])

    def test_reproduce_deadline_zero_skips_everything(self, capsys):
        code = main(["reproduce", "--quick", "--deadline", "0"])
        assert code == 4
        out = capsys.readouterr().out
        assert "SKIPPED (budget exhausted)" in out
        assert "partial under the active budget" in out


class TestEngineFlags:
    """--cache-dir / --no-cache / --explain-plan plumbing."""

    def test_check_warm_cache_second_run(self, copier_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "check", copier_file, "--process", "copier",
            "--spec", "wire <= input", "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        assert "HOLDS" in capsys.readouterr().out
        snapshots = list((tmp_path / "cache").glob("snapshot-*.json"))
        assert len(snapshots) == 1
        assert main(argv) == 0  # warm start, same verdict
        assert "HOLDS" in capsys.readouterr().out

    def test_no_cache_writes_nothing(self, copier_file, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = [
            "check", copier_file, "--process", "copier",
            "--spec", "wire <= input", "--cache-dir", str(cache_dir),
            "--no-cache",
        ]
        assert main(argv) == 0
        assert not cache_dir.exists()

    def test_budgeted_run_writes_only_checkpoint_slots(
        self, copier_file, tmp_path, capsys
    ):
        import json
        import re

        cache_dir = tmp_path / "cache"
        argv = [
            "traces", copier_file, "--process", "copier", "--depth", "3",
            "--cache-dir", str(cache_dir), "--deadline", "30",
        ]
        assert main(argv) == 0
        # Governed runs persist per-completed-depth checkpoint slots —
        # and nothing from the general (ungoverned) slot vocabulary.
        snapshots = list(cache_dir.glob("snapshot-*.json"))
        assert len(snapshots) == 1
        roots = json.loads(snapshots[0].read_text())["roots"]
        assert roots
        assert all(re.fullmatch(r"fix:.+@level\d+", slot) for slot in roots)
        first = capsys.readouterr().out
        # A rerun resumes from the checkpoint slots and prints the same
        # traces (invocation-determinism).
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "source,argv",
        [
            (
                philosophers.source(3),
                ["check", "--process", "table", "--sample", "3", "--depth", "6",
                 "--spec", "eat <= grab", "--engine", "operational",
                 "--max-nodes", "8"],
            ),
            (
                COPIER,
                ["traces", "--process", "network", "--depth", "6",
                 "--engine", "operational", "--max-nodes", "6"],
            ),
        ],
        ids=["philosophers-check", "copier-traces"],
    )
    def test_governed_operational_run_same_with_and_without_cache(
        self, source, argv, tmp_path, capsys
    ):
        # A cache directory must not lift --max-nodes off the explorer:
        # the budget trips exactly where it does with --no-cache.
        path = tmp_path / "system.csp"
        path.write_text(source)
        argv = [argv[0], str(path), *argv[1:]]
        uncached = main(argv + ["--no-cache"])
        expected = capsys.readouterr().out
        assert uncached == 4
        cache_dir = str(tmp_path / "cache")
        for _ in range(2):  # cold, then re-invoked on the same cache
            assert main(argv + ["--cache-dir", cache_dir]) == uncached
            assert capsys.readouterr().out == expected

    def test_snapshot_load_over_budget_keeps_the_file(
        self, copier_file, tmp_path, capsys
    ):
        # Decoding the 25-node snapshot would overrun --max-nodes 12: the
        # file is healthy, so it is kept, and the governed run goes on
        # as it would without a cache — on every invocation.
        cache_dir = tmp_path / "cache"
        where = ["--process", "network", "--depth", "8", "--cache-dir",
                 str(cache_dir)]
        check = ["check", copier_file, *where, "--spec", "output <= input"]
        assert main(check) == 0
        assert "HOLDS" in capsys.readouterr().out
        (snapshot,) = cache_dir.glob("snapshot-*.json")
        assert main(check + ["--max-nodes", "12"]) == 4
        assert capsys.readouterr().out.startswith("PARTIAL")
        assert snapshot.exists()
        assert not (cache_dir / "quarantine").exists()
        assert main(["stats", copier_file, *where]) == 0
        out = capsys.readouterr().out
        assert "snapshot cache: 1 hits, 0 misses" in out
        assert "rebuilt" not in out
        traces = ["traces", copier_file, "--process", "copier", "--depth",
                  "8", "--max-nodes", "15"]
        assert main(traces + ["--no-cache"]) == 4
        uncached = capsys.readouterr().out
        for _ in range(2):
            assert main(traces + ["--cache-dir", str(cache_dir)]) == 4
            assert capsys.readouterr().out == uncached

    def test_explain_plan_cold_then_warm(self, copier_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "stats", copier_file, "--explain-plan", "--depth", "3",
            "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "engine plan:" in cold
        assert "rank 0" in cold
        assert "definition-levels denoted" in cold
        assert "delta frontiers:" in cold
        assert "snapshot cache:" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        # A warm cache does not change the plan: every SCC is solved.
        assert _plan_lines(warm) == _plan_lines(cold)

    def test_cached_check_persists_only_the_target_slot(self, tmp_path, capsys):
        # The engine persists nothing of its own: the checker's traces:
        # slot is the one slot a cached check leaves and a cold stats
        # looks up.
        import json

        path = tmp_path / "philosophers.csp"
        path.write_text(philosophers.source(3))
        where = ["--process", "table", "--sample", "3", "--depth", "5"]
        check_cache = tmp_path / "check"
        assert main(["check", str(path), *where, "--spec", "eat <= grab",
                     "--cache-dir", str(check_cache)]) == 0
        (snapshot,) = check_cache.glob("snapshot-*.json")
        roots = json.loads(snapshot.read_text())["roots"]
        assert list(roots) == ["traces:denotational:table:d5"]
        capsys.readouterr()
        assert main(["stats", str(path), *where,
                     "--cache-dir", str(tmp_path / "stats")]) == 0
        assert "snapshot cache: 0 hits, 1 misses" in capsys.readouterr().out

    def test_traces_budget_trip_under_jobs(self, copier_file, capsys):
        code = main(
            ["traces", copier_file, "--process", "copier", "--depth", "6",
             "--deadline", "0"]
        )
        assert code == 4

    def test_worker_error_exit_code_without_debug(self, tmp_path, capsys):
        # two independent recursive definitions over an unbound set: the
        # first SCC fails during denotation, and the CLI must still map
        # the error to the semantics exit code
        path = tmp_path / "unbound.csp"
        path.write_text("p = a?x:S -> p; q = b?y:S -> q")
        code = main(["traces", str(path), "--process", "p", "--no-cache"])
        assert code == 3
        assert "unbound" in capsys.readouterr().err

    def test_worker_error_debug_reraises_original_class(self, tmp_path):
        from repro.errors import UnboundVariableError

        path = tmp_path / "unbound.csp"
        path.write_text("p = a?x:S -> p; q = b?y:S -> q")
        with pytest.raises(UnboundVariableError):
            main(
                ["traces", str(path), "--process", "p", "--no-cache",
                 "--debug"]
            )


class TestServeParser:
    """The serve/--server surface (daemon behavior itself is covered by
    tests/server/)."""

    def _parse(self, argv):
        from repro.cli import build_parser

        return build_parser().parse_args(argv)

    def test_serve_requires_socket(self):
        with pytest.raises(SystemExit):
            self._parse(["serve"])

    def test_serve_defaults(self):
        args = self._parse(["serve", "--socket", "/tmp/repro.sock"])
        assert args.jobs == 2
        assert args.queue_limit == 16
        assert args.request_timeout == 300.0
        assert args.grace == 2.0
        assert args.max_attempts == 3
        assert args.max_requests is None
        assert args.inject is None

    def test_check_accepts_server_flag(self):
        args = self._parse(
            ["check", "file.csp", "--spec", "a <= b",
             "--server", "/tmp/repro.sock"]
        )
        assert args.server == "/tmp/repro.sock"

    def test_server_refused_maps_to_exit_9(self, copier_file, capsys):
        # no daemon behind the socket: the client exhausts its retries
        # and the CLI maps the failure to the server exit code
        code = main(
            ["check", copier_file, "--spec", "wire <= input",
             "--server", "/nonexistent/repro.sock"]
        )
        assert code == 9
        assert "error" in capsys.readouterr().err


class TestStats:
    def test_stats_reports_kernel_counters(self, copier_file, capsys):
        code = main(["stats", copier_file, "--process", "network", "--depth", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trie nodes" in out
        assert "interner" in out
        assert "memo tables" in out

    def test_explain_plan_prints_each_kernel_account_once(self, protocol_file, capsys):
        code = main(
            ["stats", protocol_file, "--set", "M=0,1", "--depth", "5",
             "--no-cache", "--explain-plan"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine plan:" in out
        assert len(re.findall(r"^  delta frontiers: \d+ walks", out, re.M)) == 1
        assert out.count("delta frontiers:") == 1
        assert out.count("arena:") == 1

    def test_stats_with_spec_checks_and_reports(self, copier_file, capsys):
        code = main(
            [
                "stats",
                copier_file,
                "--process",
                "network",
                "--depth",
                "4",
                "--spec",
                "output <= input",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "HOLDS" in out
        assert "interner" in out


class TestOptionBounds:
    """An out-of-range numeric flag is a usage error: exit 2 with an
    argparse message, never a traceback or a wrong answer."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{file}", "--spec", "wire <= input", "--depth", "-1"],
            ["traces", "{file}", "--depth", "-1"],
            ["stats", "{file}", "--depth", "-1"],
            ["deadlocks", "{file}", "--depth", "-1"],
            ["check", "{file}", "--spec", "wire <= input", "--sample", "0"],
            ["traces", "{file}", "--sample", "0"],
            ["stats", "{file}", "--sample", "0"],
            ["simulate", "{file}", "--sample", "0"],
            ["check", "{file}", "--spec", "wire <= input", "--deadline", "-1"],
            ["reproduce", "--deadline", "-1"],
            ["traces", "{file}", "--max-nodes", "-1"],
            ["traces", "{file}", "--max-states", "-1"],
            ["serve", "--socket", "{socket}", "--jobs", "0"],
            ["serve", "--socket", "{socket}", "--queue-limit", "-1"],
            ["serve", "--socket", "{socket}", "--max-attempts", "0"],
            ["serve", "--socket", "{socket}", "--max-requests", "0"],
            ["serve", "--socket", "{socket}", "--max-requests", "-1"],
            ["check", "{file}", "--spec", "wire <= input", "--max-nodes", "-1"],
            ["check", "{file}", "--spec", "wire <= input", "--max-states", "-1"],
            ["stats", "{file}", "--max-states", "-1"],
            ["simulate", "{file}", "--steps", "-2"],
        ],
    )
    def test_rejected_with_exit_2(self, argv, copier_file, tmp_path, capsys):
        socket_path = str(tmp_path / "repro.sock")
        argv = [a.format(file=copier_file, socket=socket_path) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be at least" in err
        assert "Traceback" not in err

    def test_jobs_is_a_serve_flag_only(self, copier_file, capsys):
        # check/traces/stats solve one SCC after another and take no
        # --jobs: the flag is a usage error there, not a silent no-op.
        for argv in (
            ["check", copier_file, "--spec", "wire <= input", "--jobs", "2"],
            ["traces", copier_file, "--jobs", "2"],
            ["stats", copier_file, "--jobs", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments: --jobs 2" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, wording",
        [
            # -1 broke every request (``Timeout value out of range``);
            # 0 made worker sockets non-blocking.
            (["serve", "--socket", "{socket}", "--request-timeout", "-1"],
             "must be greater than 0"),
            (["serve", "--socket", "{socket}", "--request-timeout", "0"],
             "must be greater than 0"),
            (["serve", "--socket", "{socket}", "--grace", "-5"],
             "must be greater than 0"),
            (["serve", "--socket", "{socket}", "--grace", "0"],
             "must be greater than 0"),
            (["serve", "--socket", "{socket}", "--request-timeout", "inf"],
             "must be finite"),
            (["serve", "--socket", "{socket}", "--grace", "nan"],
             "must be finite"),
            (["check", "{file}", "--spec", "wire <= input", "--deadline",
              "inf"], "must be finite"),
        ],
    )
    def test_seconds_must_be_positive_and_finite(
        self, argv, wording, copier_file, tmp_path, capsys
    ):
        socket_path = str(tmp_path / "repro.sock")
        argv = [a.format(file=copier_file, socket=socket_path) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert wording in err
        assert "Traceback" not in err

    def test_lower_bounds_are_accepted(self, copier_file, capsys):
        code = main(
            ["traces", copier_file, "--process", "copier", "--depth", "0",
             "--sample", "1", "--deadline", "0", "--no-cache"]
        )
        assert code in (0, 4)  # a zero deadline may trip, soundly
        code = main(
            ["check", copier_file, "--process", "copier", "--spec",
             "wire <= input", "--depth", "0", "--max-nodes", "0",
             "--max-states", "0", "--no-cache"]
        )
        assert code in (0, 4)
        code = main(
            ["simulate", copier_file, "--process", "copier", "--steps", "0"]
        )
        assert code == 0

    def test_serve_lower_bounds_are_accepted(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--socket", "/tmp/repro.sock", "--request-timeout",
             "0.5", "--grace", "0.01", "--max-requests", "1"]
        )
        assert (args.request_timeout, args.grace, args.max_requests) == (
            0.5, 0.01, 1
        )

    def test_non_numeric_keeps_argparse_wording(self, copier_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["traces", copier_file, "--depth", "many"])
        assert exc.value.code == 2
        assert "invalid int value: 'many'" in capsys.readouterr().err


class TestUndecodableFile:
    """A definitions file that is not UTF-8 is a parse error (exit 2, one
    ``error:`` line naming the file) on every command that reads one —
    including ``--server``, whose client parses the file itself."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["parse", "{file}"],
            ["traces", "{file}"],
            ["check", "{file}", "--spec", "a <= a"],
            ["deadlocks", "{file}"],
            ["check", "{file}", "--spec", "a <= a",
             "--server", "/nonexistent/repro.sock"],
        ],
    )
    def test_parse_exit(self, argv, tmp_path, capsys):
        path = tmp_path / "latin1.csp"
        path.write_bytes("p = a!\xe9 -> STOP".encode("latin-1"))
        code = main([a.format(file=path) for a in argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not UTF-8 text")
        assert err.count("\n") == 1
