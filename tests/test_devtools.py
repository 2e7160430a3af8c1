"""Suite for ``reprolint`` — the project-invariant static analyser.

Three layers:

* a fixture corpus per rule (violating / clean / suppressed-with-reason
  snippets linted through :func:`lint_source` under virtual paths, so a
  snippet can impersonate ``src/repro/serve/pool.py``), asserting exact
  rule id and line;
* the suppression protocol itself (reason mandatory, unknown ids rejected,
  standalone comment lines target the next line);
* the self-gate: the repository's own tree must lint clean under
  ``--strict``, every gated public module must be fully annotated, and —
  when mypy happens to be installed (the ``[dev]`` extra; CI always has
  it) — ``mypy --config-file mypy.ini`` must pass.
"""

from __future__ import annotations

import ast
import csv
import io
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools import (
    ALL_RULES,
    Finding,
    Severity,
    format_findings,
    lint_paths,
    lint_source,
    rules_by_id,
)
from repro.devtools.cli import main as reprolint_main
from repro.errors import LintError

REPO = Path(__file__).resolve().parent.parent


def lint(source: str, path: str):
    """Dedent + lint a snippet as though it lived at ``path``."""
    return lint_source(textwrap.dedent(source), path)


def hits(source: str, path: str, rule: str) -> list[Finding]:
    """Unsuppressed findings of one rule, sorted by line."""
    report = lint(source, path)
    return [f for f in report.findings if f.rule == rule]


def lines_of(source: str, path: str, rule: str) -> list[int]:
    return [f.line for f in hits(source, path, rule)]


# ----------------------------------------------------------------------
# R001 — shm blocks released on all paths
# ----------------------------------------------------------------------
class TestShmReleaseRule:
    def test_discarded_acquisition_flagged(self):
        src = """\
        def leak(index):
            ShmIndexSegment.publish(index)
        """
        assert lines_of(src, "src/repro/x.py", "R001") == [2]

    def test_fall_through_close_flagged(self):
        src = """\
        def leak(index):
            segment = ShmIndexSegment.publish(index)
            do_work(segment.manifest)
            segment.close()
        """
        findings = hits(src, "src/repro/x.py", "R001")
        assert [f.line for f in findings] == [2]
        assert "fall-through" in findings[0].message

    def test_never_released_flagged(self):
        src = """\
        def leak(index):
            segment = ShmIndexSegment.publish(index)
            return segment.manifest
        """
        findings = hits(src, "src/repro/x.py", "R001")
        assert [f.line for f in findings] == [2]
        assert "never released" in findings[0].message

    def test_with_block_clean(self):
        src = """\
        def ok(index):
            with ShmIndexSegment.publish(index) as segment:
                return use(segment.manifest)
        """
        assert hits(src, "src/repro/x.py", "R001") == []

    def test_try_finally_clean(self):
        src = """\
        def ok(index):
            segment = ShmIndexSegment.publish(index)
            try:
                return use(segment)
            finally:
                segment.close()
        """
        assert hits(src, "src/repro/x.py", "R001") == []

    def test_atexit_handoff_clean(self):
        src = """\
        def ok(manifest):
            block = ShmArrayBlock.attach(manifest)
            atexit.register(block.close)
            return compute(block)
        """
        assert hits(src, "src/repro/x.py", "R001") == []

    def test_escape_via_attribute_clean(self):
        src = """\
        def ok(self, index):
            segment = ShmIndexSegment.publish(index)
            self._segment = segment
        """
        assert hits(src, "src/repro/x.py", "R001") == []

    def test_returned_handle_clean(self):
        src = """\
        def ok(index):
            segment = ShmIndexSegment.publish(index)
            return segment
        """
        assert hits(src, "src/repro/x.py", "R001") == []

    def test_manifest_argument_is_not_a_handoff(self):
        # passing derived data (segment.manifest) must NOT count as a release
        src = """\
        def leak(index):
            segment = ShmIndexSegment.publish(index)
            spawn_worker(segment.manifest)
        """
        assert lines_of(src, "src/repro/x.py", "R001") == [2]

    def test_suppressed_with_reason(self):
        src = """\
        def lifecycle_test(index):
            # reprolint: disable=R001 (manual lifecycle is the subject under test)
            segment = ShmIndexSegment.publish(index)
            segment.close()
        """
        report = lint(src, "tests/test_x.py")
        assert [f.rule for f in report.findings] == []
        assert [f.rule for f in report.suppressed] == ["R001"]
        assert report.suppressed[0].suppression_reason == (
            "manual lifecycle is the subject under test"
        )


# ----------------------------------------------------------------------
# R002 — the serve pipe hot path stays pickle-free
# ----------------------------------------------------------------------
class TestPipePurityRule:
    POOL = "src/repro/serve/pool.py"

    def test_pickle_import_flagged(self):
        assert lines_of("import pickle\n", self.POOL, "R002") == [1]

    def test_pickle_from_import_flagged(self):
        assert lines_of("from pickle import dumps\n", self.POOL, "R002") == [1]

    def test_pickle_call_flagged(self):
        src = """\
        def send(conn, payload):
            conn.send_bytes(pickle.dumps(payload))
        """
        assert lines_of(src, self.POOL, "R002") == [2]

    def test_object_dtype_flagged(self):
        src = """\
        def pack(rows):
            return np.array(rows, dtype=object)
        """
        assert lines_of(src, self.POOL, "R002") == [2]

    def test_object_dtype_string_flagged(self):
        src = 'payload = np.empty(4, dtype="O")\n'
        assert lines_of(src, self.POOL, "R002") == [1]

    def test_int64_payload_clean(self):
        src = """\
        def pack(pairs):
            return np.asarray(pairs, dtype=np.int64)
        """
        assert hits(src, self.POOL, "R002") == []

    def test_rule_is_scoped_to_pool(self):
        assert hits("import pickle\n", "src/repro/core/store.py", "R002") == []


# ----------------------------------------------------------------------
# R003 — hot-path numpy allocations carry explicit dtypes
# ----------------------------------------------------------------------
class TestExplicitDtypeRule:
    KERNEL = "src/repro/core/fastbuild.py"

    def test_bare_zeros_flagged(self):
        assert lines_of("counts = np.zeros(n)\n", self.KERNEL, "R003") == [1]

    def test_bare_array_flagged(self):
        assert lines_of("hubs = np.array(rows)\n", self.KERNEL, "R003") == [1]

    def test_keyword_dtype_clean(self):
        src = "counts = np.zeros(n, dtype=np.int64)\n"
        assert hits(src, self.KERNEL, "R003") == []

    def test_positional_dtype_clean(self):
        assert hits("counts = np.zeros(n, np.int64)\n", self.KERNEL, "R003") == []
        assert hits("a = np.full(n, 0, np.int64)\n", self.KERNEL, "R003") == []

    def test_full_needs_third_argument(self):
        assert lines_of("a = np.full(n, 0)\n", self.KERNEL, "R003") == [1]

    def test_scoped_to_kernel_and_store_files(self):
        for path in (
            "src/repro/core/procbuild.py",
            "src/repro/digraph/fastbuild.py",
            "src/repro/core/store.py",
            "src/repro/core/compact.py",
            "src/repro/core/engine.py",
        ):
            assert lines_of("x = np.empty(3)\n", path, "R003") == [1]
        assert hits("x = np.empty(3)\n", "src/repro/graph/graph.py", "R003") == []

    def test_suppressed_with_reason(self):
        src = (
            "x = np.array(json.dumps(h))"
            "  # reprolint: disable=R003 (unicode scalar, width is data-dependent)\n"
        )
        report = lint(src, self.KERNEL)
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["R003"]


# ----------------------------------------------------------------------
# R004 — deterministic timing and RNG in tests/benchmarks
# ----------------------------------------------------------------------
class TestDeterministicTestRule:
    def test_time_time_flagged_as_warning(self):
        findings = hits("start = time.time()\n", "tests/test_x.py", "R004")
        assert [f.line for f in findings] == [1]
        assert findings[0].severity is Severity.WARNING

    def test_unseeded_default_rng_flagged(self):
        src = "rng = np.random.default_rng()\n"
        assert lines_of(src, "benchmarks/bench_x.py", "R004") == [1]

    def test_global_numpy_draw_flagged(self):
        src = "pairs = np.random.randint(0, 9, size=8)\n"
        assert lines_of(src, "tests/test_x.py", "R004") == [1]

    def test_global_random_draw_flagged(self):
        assert lines_of("x = random.uniform(0, 1)\n", "tests/test_x.py", "R004") == [1]

    def test_seeded_rng_and_perf_counter_clean(self):
        src = """\
        rng = np.random.default_rng(17)
        local = random.Random(3)
        start = time.perf_counter()
        """
        assert hits(src, "tests/test_x.py", "R004") == []

    def test_library_code_out_of_scope(self):
        assert hits("start = time.time()\n", "src/repro/api.py", "R004") == []


# ----------------------------------------------------------------------
# R005 — the asyncio serving twin never blocks the loop
# ----------------------------------------------------------------------
class TestAsyncNoBlockRule:
    HTTP = "src/repro/serve/http.py"

    def test_time_sleep_in_async_def_flagged(self):
        src = """\
        async def handler(request):
            time.sleep(0.1)
        """
        findings = hits(src, self.HTTP, "R005")
        assert [f.line for f in findings] == [2]
        assert "asyncio.sleep" in findings[0].message

    def test_unawaited_kernel_call_flagged(self):
        src = """\
        async def handler(service, pairs):
            return service.query_batch(pairs)
        """
        findings = hits(src, "src/repro/serve/async_service.py", "R005")
        assert [f.line for f in findings] == [2]
        assert "run_in_executor" in findings[0].message

    def test_awaited_kernel_call_clean(self):
        src = """\
        async def handler(service, pairs):
            return await service.query_batch(pairs)
        """
        assert hits(src, "src/repro/serve/async_service.py", "R005") == []

    def test_executor_dispatch_clean(self):
        src = """\
        async def handler(loop, pool, shard):
            return await loop.run_in_executor(None, pool.dispatch, shard)
        """
        assert hits(src, self.HTTP, "R005") == []

    def test_sync_def_out_of_scope(self):
        src = """\
        def warmup():
            time.sleep(0.1)
        """
        assert hits(src, self.HTTP, "R005") == []

    def test_nested_sync_def_not_attributed_to_coroutine(self):
        src = """\
        async def handler(loop):
            def blocking_work():
                time.sleep(0.1)
            return await loop.run_in_executor(None, blocking_work)
        """
        assert hits(src, self.HTTP, "R005") == []

    def test_other_modules_out_of_scope(self):
        src = """\
        async def helper():
            time.sleep(0.1)
        """
        assert hits(src, "src/repro/experiments/harness.py", "R005") == []


# ----------------------------------------------------------------------
# R006 — no bare except; raised project errors derive from repro.errors
# ----------------------------------------------------------------------
class TestTypedErrorsRule:
    def test_bare_except_flagged_everywhere(self):
        src = """\
        try:
            risky()
        except:
            pass
        """
        assert lines_of(src, "tests/test_x.py", "R006") == [3]
        assert lines_of(src, "src/repro/x.py", "R006") == [3]

    def test_builtin_raise_in_library_flagged(self):
        src = """\
        def parse(value):
            raise ValueError("bad " + value)
        """
        findings = hits(src, "src/repro/x.py", "R006")
        assert [f.line for f in findings] == [2]
        assert "repro.errors" in findings[0].message

    def test_builtin_raise_in_tests_allowed(self):
        src = """\
        def boom():
            raise RuntimeError("test scaffolding may raise anything")
        """
        assert hits(src, "tests/test_x.py", "R006") == []

    def test_repro_error_and_derived_class_clean(self):
        src = """\
        from repro.errors import ServeError

        class _HttpError(ServeError):
            pass

        def fail():
            raise _HttpError("mapped")

        def fail2():
            raise ServeError("typed")
        """
        assert hits(src, "src/repro/serve/x.py", "R006") == []

    def test_transitive_derivation_clean(self):
        src = """\
        from repro.errors import ReproError

        class Base(ReproError):
            pass

        class Leaf(Base):
            pass

        def fail():
            raise Leaf("still typed")
        """
        assert hits(src, "src/repro/x.py", "R006") == []

    def test_notimplemented_and_assertion_allowed(self):
        src = """\
        def abstract():
            raise NotImplementedError

        def invariant():
            raise AssertionError("self-check")
        """
        assert hits(src, "src/repro/x.py", "R006") == []

    def test_reraise_of_caught_variable_clean(self):
        src = """\
        def passthrough():
            try:
                risky()
            except Exception as exc:
                raise
        """
        assert hits(src, "src/repro/x.py", "R006") == []


# ----------------------------------------------------------------------
# R007 — spawn targets must be module-level callables
# ----------------------------------------------------------------------
class TestSpawnPicklableRule:
    def test_lambda_target_flagged(self):
        src = "p = multiprocessing.Process(target=lambda: work())\n"
        findings = hits(src, "src/repro/x.py", "R007")
        assert [f.line for f in findings] == [1]
        assert "lambda" in findings[0].message

    def test_nested_function_target_flagged(self):
        src = """\
        def launch(ctx):
            def child():
                work()
            return ctx.Process(target=child)
        """
        findings = hits(src, "src/repro/x.py", "R007")
        assert [f.line for f in findings] == [4]
        assert "nested" in findings[0].message

    def test_bound_method_target_flagged(self):
        src = """\
        class Pool:
            def launch(self):
                return multiprocessing.Process(target=self._serve)
        """
        findings = hits(src, "src/repro/x.py", "R007")
        assert [f.line for f in findings] == [3]
        assert "bound method" in findings[0].message

    def test_module_level_target_clean(self):
        src = """\
        def _worker_main(conn):
            serve(conn)

        def launch(ctx):
            return ctx.Process(target=_worker_main, args=(None,))
        """
        assert hits(src, "src/repro/x.py", "R007") == []

    def test_module_level_function_passed_inside_method_clean(self):
        src = """\
        def _worker_main(conn):
            serve(conn)

        class Pool:
            def launch(self):
                return self._ctx.Process(target=_worker_main)
        """
        assert hits(src, "src/repro/x.py", "R007") == []


# ----------------------------------------------------------------------
# R008 — monotonic clocks and no print() in library code
# ----------------------------------------------------------------------
class TestMonotonicNoPrintRule:
    def test_wall_clock_call_flagged(self):
        src = """\
        def timed(fn):
            start = time.time()
            fn()
            return time.time() - start
        """
        assert lines_of(src, "src/repro/serve/pool.py", "R008") == [2, 4]

    def test_print_in_library_code_flagged(self):
        src = "print('loaded', n, 'labels')\n"
        assert lines_of(src, "src/repro/core/index.py", "R008") == [1]

    def test_perf_counter_and_utc_datetime_clean(self):
        src = """\
        def timed(fn):
            start = time.perf_counter()
            fn()
            stamp = datetime.now(timezone.utc)
            return time.perf_counter() - start, stamp
        """
        assert hits(src, "src/repro/serve/pool.py", "R008") == []

    def test_print_allowed_in_cli_and_devtools(self):
        assert hits("print('done')\n", "src/repro/cli.py", "R008") == []
        assert hits("print('done')\n", "src/repro/devtools/cli.py", "R008") == []
        assert hits("print('done')\n", "src/repro/devtools/fmt.py", "R008") == []

    def test_outside_src_not_checked(self):
        assert hits("t = time.time()\n", "tests/test_x.py", "R008") == []
        assert hits("print('x')\n", "benchmarks/bench.py", "R008") == []

    def test_suppression_with_reason_honoured(self):
        src = (
            "stamp = time.time()  # reprolint: "
            "disable=R008 (epoch seconds are the wire format here)\n"
        )
        report = lint(src, "src/repro/serve/http.py")
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["R008"]


# ----------------------------------------------------------------------
# R009 — shard fleet manifests flow through the canonical helpers
# ----------------------------------------------------------------------
class TestFleetManifestRule:
    def test_hardcoded_fleet_tag_flagged(self):
        src = """\
        def sniff(manifest):
            return manifest.get("format") == "repro-fleet"
        """
        findings = hits(src, "src/repro/serve/pool.py", "R009")
        assert [f.line for f in findings] == [2]
        assert "is_fleet_manifest" in findings[0].message

    def test_fleet_tag_allowed_in_store(self):
        src = """\
        FLEET_FORMAT_NAME = "repro-fleet"
        """
        assert hits(src, "src/repro/core/store.py", "R009") == []

    def test_adhoc_fleet_manifest_dict_flagged(self):
        src = """\
        def hand_rolled(bounds, shards):
            return {"format": "x", "version": 1, "bounds": bounds, "shards": shards}
        """
        findings = hits(src, "src/repro/serve/pool.py", "R009")
        assert [f.line for f in findings] == [2]
        assert "build_fleet_manifest" in findings[0].message

    def test_adhoc_segment_manifest_dict_flagged(self):
        src = """\
        def hand_rolled(shm):
            return {"format": "seg", "shm_name": shm.name}
        """
        assert lines_of(src, "src/repro/serve/pool.py", "R009") == [2]

    def test_segment_manifest_allowed_in_shm(self):
        src = """\
        def publish_manifest(shm):
            return {"format": "seg", "shm_name": shm.name}
        """
        assert hits(src, "src/repro/serve/shm.py", "R009") == []

    def test_dict_call_augmentation_clean(self):
        src = """\
        def worker_manifest(manifest, owned):
            return dict(manifest, hot=list(owned))
        """
        assert hits(src, "src/repro/serve/pool.py", "R009") == []

    def test_unrelated_format_dict_clean(self):
        src = """\
        def csv_options():
            return {"format": "csv", "delimiter": ","}
        """
        assert hits(src, "src/repro/cli.py", "R009") == []

    def test_tests_and_devtools_out_of_scope(self):
        src = """\
        manifest = {"format": "repro-fleet", "bounds": [0, 5], "shards": []}
        """
        assert hits(src, "tests/test_shard.py", "R009") == []
        assert hits(src, "src/repro/devtools/fixtures.py", "R009") == []

    def test_suppression_with_reason_honoured(self):
        src = (
            'tag = "repro-fleet"  # reprolint: '
            "disable=R009 (docs example renders the literal tag)\n"
        )
        report = lint(src, "src/repro/serve/router.py")
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["R009"]


# ----------------------------------------------------------------------
# the suppression protocol (R000)
# ----------------------------------------------------------------------
class TestSuppressionProtocol:
    def test_reason_is_mandatory(self):
        # built by concatenation so this test file itself does not carry a
        # reasonless suppression when the repo lints its own tree
        src = "x = np.zeros(n)  # reprolint: " + "disable=R003\n"
        report = lint(src, "src/repro/core/fastbuild.py")
        rules = sorted(f.rule for f in report.findings)
        # the disable without a reason does not suppress: both the R000
        # protocol finding and the original R003 finding surface
        assert rules == ["R000", "R003"]
        assert report.suppressed == []

    def test_unknown_rule_id_rejected(self):
        src = "x = 1  # reprolint: " + "disable=R999 (whatever)\n"
        report = lint(src, "src/repro/x.py")
        assert [f.rule for f in report.findings] == ["R000"]
        assert "unknown rule id" in report.findings[0].message

    def test_standalone_comment_suppresses_next_line(self):
        src = """\
        # reprolint: disable=R003 (width is data-dependent here)
        x = np.zeros(n)
        """
        report = lint(src, "src/repro/core/fastbuild.py")
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["R003"]

    def test_suppression_is_rule_specific(self):
        src = "x = np.zeros(n)  # reprolint: disable=R001 (wrong rule)\n"
        report = lint(src, "src/repro/core/fastbuild.py")
        assert [f.rule for f in report.findings] == ["R003"]

    def test_multiple_ids_one_comment(self):
        src = (
            "start = time.time()"
            "  # reprolint: disable=R004,R006 (measuring wall-clock drift itself)\n"
        )
        report = lint(src, "tests/test_x.py")
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["R004"]

    def test_syntax_error_reported_as_r000(self):
        report = lint_source("def broken(:\n", "src/repro/x.py")
        assert [f.rule for f in report.findings] == ["R000"]
        assert "does not parse" in report.findings[0].message


# ----------------------------------------------------------------------
# output formats and the CLI front-end
# ----------------------------------------------------------------------
class TestFormatterAndCli:
    FINDINGS = [
        Finding(rule="R003", path="src/a.py", line=4, message="no dtype"),
        Finding(
            rule="R004",
            path="tests/b.py",
            line=9,
            message="time.time()",
            severity=Severity.WARNING,
        ),
    ]

    def test_table_format(self):
        text = format_findings(self.FINDINGS)
        lines = text.splitlines()
        assert lines[0] == "reprolint findings"
        assert "file" in lines[1] and "rule" in lines[1]
        assert "src/a.py" in lines[3] and "R003" in lines[3]

    def test_table_clean(self):
        assert format_findings([]) == "reprolint findings: clean"

    def test_csv_format(self):
        rows = list(csv.reader(io.StringIO(format_findings(self.FINDINGS, fmt="csv"))))
        assert rows[0] == ["file", "line", "rule", "severity", "message"]
        assert rows[1][:3] == ["src/a.py", "4", "R003"]

    def test_json_format(self):
        rows = json.loads(format_findings(self.FINDINGS, fmt="json"))
        assert rows[0]["rule"] == "R003"
        assert rows[1]["severity"] == "warning"

    def test_unknown_format_raises_lint_error(self):
        with pytest.raises(LintError):
            format_findings(self.FINDINGS, fmt="yaml")

    def test_warning_gates_only_under_strict(self, tmp_path):
        target = tmp_path / "tests" / "test_w.py"
        target.parent.mkdir()
        target.write_text("start = time.time()\n")
        assert reprolint_main([str(target)]) == 0
        assert reprolint_main([str(target), "--strict"]) == 1

    def test_missing_path_exits_2(self, tmp_path):
        assert reprolint_main([str(tmp_path / "nope")]) == 2

    def test_unknown_rule_subset_exits_2(self, tmp_path):
        (tmp_path / "x.py").write_text("x = 1\n")
        assert reprolint_main([str(tmp_path / "x.py"), "--rules", "R999"]) == 2

    def test_rule_subset_runs_only_those_rules(self, tmp_path):
        target = tmp_path / "tests" / "test_w.py"
        target.parent.mkdir()
        target.write_text("start = time.time()\n")
        assert reprolint_main([str(target), "--rules", "R001", "--strict"]) == 0

    def test_repro_lint_subcommand_wired(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["lint", "--strict", "somewhere"])
        assert args.command == "lint"
        assert args.strict is True
        assert args.paths == ["somewhere"]


# ----------------------------------------------------------------------
# the self-gate: this repository must hold its own invariants
# ----------------------------------------------------------------------
class TestRepositoryIsClean:
    def test_whole_tree_lints_clean_under_strict(self):
        report = lint_paths(
            [str(REPO / "src"), str(REPO / "tests"), str(REPO / "benchmarks")]
        )
        assert report.findings == [], "\n".join(str(f) for f in report.findings)
        # every suppression that fired carries its mandatory reason
        assert all(f.suppression_reason for f in report.suppressed)

    def test_rule_ids_are_unique_and_documented(self):
        registry = rules_by_id()
        assert len(registry) == len(ALL_RULES) == 9
        assert sorted(registry) == [f"R00{i}" for i in range(1, 10)]
        for rule in ALL_RULES:
            assert rule.title, rule.rule_id
            assert (rule.__doc__ or "").strip(), rule.rule_id

    def test_gated_public_surface_is_fully_annotated(self):
        """Local stand-in for mypy's disallow_untyped_defs (CI runs mypy)."""
        targets = [REPO / "src/repro/api.py", REPO / "src/repro/errors.py",
                   REPO / "src/repro/core/store.py"]
        targets += sorted((REPO / "src/repro/serve").glob("*.py"))
        targets += sorted((REPO / "src/repro/devtools").glob("*.py"))
        problems = []
        for target in targets:
            tree = ast.parse(target.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                args = node.args
                named = args.posonlyargs + args.args + args.kwonlyargs
                if named and named[0].arg in ("self", "cls"):
                    named = named[1:]
                named += [a for a in (args.vararg, args.kwarg) if a is not None]
                for arg in named:
                    if arg.annotation is None:
                        problems.append(
                            f"{target.name}:{node.lineno} {node.name}(... {arg.arg})"
                        )
                if node.returns is None and node.name != "__init__":
                    problems.append(f"{target.name}:{node.lineno} {node.name}() -> ?")
        assert problems == [], "\n".join(problems)

    def test_mypy_passes_when_available(self):
        pytest.importorskip("mypy")
        result = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file", str(REPO / "mypy.ini")],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stdout + result.stderr
