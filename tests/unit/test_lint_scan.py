"""The determinism scan behind DET001–DET006 and the deep summaries.

The planted module (tests/fixtures/det_scan_planted.py) pins the exact
DET findings for the edge cases a single shared scan could get wrong:
module and class scope, import aliases, shadowing parameters, lambdas,
comprehensions, the ``observe/`` path gate and the ``batch=``
escalation.  The local and the deep engine must agree on every DET
finding, and a deep run scans each module exactly once.
"""

import ast
import os

import pytest

from repro.lint import LintEngine
from repro.lint.deep import summaries
from repro.lint.registry import ModuleSource
from repro.lint.rules_diversity import module_functions
from tests.fixtures.det_scan_planted import BATCHED_TAIL, SOURCE

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.relpath(os.path.join(HERE, "..", "fixtures"))
DET_RULES = ["DET001", "DET002", "DET003", "DET004", "DET005", "DET006"]

GLOBAL_RNG = ("draws from the shared, unseeded global RNG; construct "
              "random.Random(seed) and thread it explicitly")
SEEDLESS = "random.Random() without a seed is OS-entropy seeded; " \
           "pass an explicit seed"
WALL = ("time.time() reads the wall clock; use the virtual clock "
        "(environment.clock) for simulated time or time.perf_counter() "
        "for interval measurement")
SET_ORDER = "order varies with PYTHONHASHSEED; wrap in sorted()"
TRIAL_STREAM = ("repro.runtime.kernel.trial_stream(base_seed, index) so "
                "batch partitions stay byte-identical")


def _observe(call):
    return (f"{call} inside repro.observe bypasses the injected clock; "
            f"take timestamps from the telemetry session's bound clock "
            f"so traces and dumps stay byte-stable")


#: (rule, line, col, message) for SOURCE under a path with no
#: ``observe`` component.
PLANTED = [
    ("DET001", 8, 9, f"r.random() {GLOBAL_RNG}"),
    ("DET001", 12, 10, f"r.choice() {GLOBAL_RNG}"),
    ("DET001", 13, 11, f"choice() (from random import) {GLOBAL_RNG}"),
    ("DET004", 14, 30, "iterating a set: order varies with "
                       "PYTHONHASHSEED; wrap in sorted() or use a "
                       "list/dict (insertion ordered)"),
    ("DET001", 18, 4, f"random.shuffle() {GLOBAL_RNG}"),
    ("DET002", 19, 11, WALL),
    ("DET003", 23, 45, "builtin hash() varies with PYTHONHASHSEED for "
                       "str/bytes inputs; use repro._util.stable_int / "
                       "stable_fraction or zlib.crc32 for stable values"),
    ("DET004", 24, 30, "iterating os.environ: contents and order depend "
                       "on the launching environment; wrap in sorted() "
                       "and pin the variables you read"),
    ("DET004", 25, 39, f"iterating frozenset(...): {SET_ORDER}"),
    ("DET002", 31, 40, WALL),
    ("DET006", 35, 4, "random.seed() inside trial 'reseeding_trial' "
                      "re-seeds the global RNG; draw from "
                      f"{TRIAL_STREAM}"),
    ("DET006", 36, 10, "r.Random(seed) inside trial 'reseeding_trial' "
                       "hand-rolls a seed derivation; use "
                       f"{TRIAL_STREAM}"),
    ("DET006", 37, 4, "reseed() (from random import seed) inside trial "
                      "'reseeding_trial' hand-rolls re-seeding; use "
                      f"{TRIAL_STREAM}"),
    ("DET001", 38, 26, SEEDLESS),
    ("DET001", 42, 11, SEEDLESS),
]

#: The extra DET005 findings under an ``observe/`` path.
OBSERVE_ONLY = [
    ("DET005", 19, 11, _observe("time.time()")),
    ("DET005", 29, 12, _observe("time.perf_counter()")),
    ("DET005", 31, 11, _observe("time.perf_counter()")),
    ("DET005", 31, 40, _observe("time.time()")),
]


def _det(source, path):
    return LintEngine(select=DET_RULES).lint_source(source, path)


def _rows(findings):
    return [(f.rule, f.line, f.col, f.message) for f in findings]


def _ordered(rows):
    return sorted(rows, key=lambda row: (row[1], row[2], row[0]))


class TestPlantedEdgeCases:
    def test_pinned_findings(self):
        found = _det(SOURCE, "pkg/planted.py")
        assert _rows(found) == PLANTED
        assert {f.severity for f in found} == {"warning"}

    def test_observe_path_adds_only_det005(self):
        found = _det(SOURCE, "pkg/observe/planted.py")
        assert _rows(found) == _ordered(PLANTED + OBSERVE_ONLY)

    def test_batch_keyword_escalates_only_det006(self):
        found = _det(SOURCE + BATCHED_TAIL, "pkg/planted.py")
        assert _rows(found) == PLANTED
        assert [(f.rule, f.severity) for f in found
                if f.severity == "error"] == [("DET006", "error")] * 3


class TestLocalAndDeepAgree:
    def _det_rows(self, report):
        return [f.as_dict() for f in report.findings
                if f.rule.startswith("DET")]

    def test_fixture_tree(self):
        plain = LintEngine().run([FIXTURES])
        deep = LintEngine(deep=True).run([FIXTURES])
        assert self._det_rows(plain)
        assert self._det_rows(deep) == self._det_rows(plain)

    def test_planted_module(self, tmp_path):
        (tmp_path / "observe").mkdir()
        path = tmp_path / "observe" / "planted.py"
        path.write_text(SOURCE + BATCHED_TAIL)
        plain = LintEngine().run([str(path)])
        deep = LintEngine(deep=True).run([str(path)])
        assert len(self._det_rows(plain)) == len(PLANTED + OBSERVE_ONLY)
        assert self._det_rows(deep) == self._det_rows(plain)


class TestOneScan:
    def test_deep_run_scans_each_module_once(self, monkeypatch):
        scanned = []
        init = summaries.ModuleScan.__init__

        def counting(self, module):
            scanned.append(module.path)
            init(self, module)

        monkeypatch.setattr(summaries.ModuleScan, "__init__", counting)
        report = LintEngine(deep=True).run([FIXTURES])
        assert report.deep["summary_cache"]["enabled"] is False
        assert sorted(scanned) == sorted(set(scanned))
        assert len(scanned) == report.files

    @pytest.mark.parametrize("inner, call, col, trial", [
        ("inner_trial", "random.seed(seed)", 8, "inner_trial"),
        ("helper", "return random.Random(seed)", 15, "outer_trial"),
    ])
    def test_det006_names_the_innermost_trial_once(self, inner, call, col,
                                                   trial):
        source = ("import random\n\n\n"
                  "def outer_trial(seed):\n"
                  f"    def {inner}():\n"
                  f"        {call}\n"
                  f"    return {inner}\n")
        found = _det(source, "pkg/nested.py")
        assert [(f.rule, f.line, f.col) for f in found] == \
            [("DET006", 6, col)]
        assert f"inside trial {trial!r}" in found[0].message


class TestLinesFollowAst:
    """Only ``\\r\\n``, ``\\r`` and ``\\n`` end a line for ``ast``."""

    SOURCE = ("import random\n\x0c\n"
              "x = hash('a')  # lint: allow[DET003]\n"
              "\n\ndef f():\n    return '\x1c\u2028'\n")

    def test_lines_match_ast_numbering(self):
        module = ModuleSource.parse("m.py", self.SOURCE)
        assert module.lines[2] == "x = hash('a')  # lint: allow[DET003]"
        assert len(module.lines) == 7

    def test_pragma_after_a_form_feed_line_applies(self):
        assert LintEngine().lint_source(self.SOURCE, "m.py") == []

    def test_deep_code_fingerprint_reads_the_function(self, tmp_path):
        from repro.lint.deep import function_fingerprint

        module = ModuleSource.parse(str(tmp_path / "m.py"), self.SOURCE)
        fn = module.tree.body[-1]
        summary = summaries.summarize_module(module)
        assert summary.functions["f"].code == function_fingerprint(
            ast.get_source_segment(self.SOURCE, fn))


class TestSourceSegment:
    SOURCE = ("# caf\u00e9 \u2014 \u00fcml\u00e4uts\r\n"
              "class K:\r\n"
              "    def m(self, s='\u00e9\u00e8'):  # \u00e0\r\n"
              "        return s\r"
              "\n"
              "def g(x):\n    y = '\u4e2d\u6587'; return (x,\n"
              "        y)\n"
              "async def h(): return '\x0c'\n")

    def test_matches_get_source_segment_byte_for_byte(self):
        module = ModuleSource.parse("m.py", self.SOURCE)
        nodes = [node for node in ast.walk(module.tree)
                 if hasattr(node, "end_col_offset")]
        assert nodes
        for node in nodes:
            assert module.segment(node) == \
                ast.get_source_segment(self.SOURCE, node)

    def test_div001_functions_use_the_same_segments(self):
        module = ModuleSource.parse("m.py", self.SOURCE)
        assert [(name, segment)
                for name, _, segment in module_functions(module)] == [
            (name, ast.get_source_segment(self.SOURCE, node))
            for name, node, _ in module_functions(module)]
        assert [name for name, _, _ in module_functions(module)] == \
            ["K.m", "g", "h"]
