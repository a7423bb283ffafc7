"""Lint-framework mechanics: findings, suppressions, discovery, registry."""

from __future__ import annotations

from pathlib import Path, PurePath

import pytest

from repro.analysis.framework import (
    DEFAULT_RULES,
    Analyzer,
    FileContext,
    Finding,
    Rule,
    RuleRegistry,
)

FIXTURES = Path(__file__).parent / "fixtures"


def analyzer_for(*rule_ids: str) -> Analyzer:
    return Analyzer(rules=DEFAULT_RULES.create(rule_ids or None))


class TestFinding:
    def test_format_is_path_line_col_rule_message(self):
        finding = Finding(path="src/x.py", line=3, col=7, rule="R1",
                         message="boom")
        assert finding.format() == "src/x.py:3:7: R1 boom"

    def test_ordering_is_by_path_then_line(self):
        a = Finding("a.py", 9, 0, "R1", "m")
        b = Finding("b.py", 1, 0, "R1", "m")
        c = Finding("a.py", 2, 0, "R2", "m")
        assert sorted([a, b, c]) == [c, a, b]

    def test_to_dict_round_trips_fields(self):
        finding = Finding("x.py", 1, 2, "R3", "msg")
        assert finding.to_dict() == {"path": "x.py", "line": 1, "col": 2,
                                     "rule": "R3", "message": "msg"}


class TestFileContext:
    def test_module_anchored_at_repro_segment(self):
        ctx = FileContext(PurePath("src/repro/serve/service.py"), "x = 1\n")
        assert ctx.module == "repro.serve.service"

    def test_init_module_drops_stem(self):
        ctx = FileContext(PurePath("src/repro/serve/__init__.py"), "x = 1\n")
        assert ctx.module == "repro.serve"

    def test_module_outside_repro_is_bare_stem(self):
        ctx = FileContext(PurePath("tests/foo/bar.py"), "x = 1\n")
        assert ctx.module == "bar"

    def test_line_comment_extraction(self):
        ctx = FileContext(PurePath("x.py"), "a = 1  # guarded-by: _lock\nb = 2\n")
        assert "guarded-by: _lock" in ctx.line_comment(1)
        assert ctx.line_comment(2) == ""
        assert ctx.line_comment(99) == ""


class TestSuppressions:
    SOURCE = ("import numpy as np\n"
              "\n"
              "\n"
              "def draw():\n"
              "    return np.random.rand(3)  # repro-lint: disable=R1\n")

    def test_targeted_disable_suppresses_that_rule(self):
        assert analyzer_for("R1").check_source(self.SOURCE) == []

    def test_disable_of_other_rule_does_not_suppress(self):
        source = self.SOURCE.replace("disable=R1", "disable=R2")
        findings = analyzer_for("R1").check_source(source)
        assert [f.rule for f in findings] == ["R1"]

    def test_blanket_disable_suppresses_every_rule(self):
        source = self.SOURCE.replace("disable=R1", "disable")
        assert analyzer_for().check_source(source) == []

    def test_skip_file_pragma_skips_whole_file(self):
        source = "# repro-lint: skip-file\n" + self.SOURCE.replace(
            "  # repro-lint: disable=R1", "")
        assert analyzer_for().check_source(source) == []

    def test_skip_file_only_honored_in_first_ten_lines(self):
        source = self.SOURCE.replace("  # repro-lint: disable=R1", "")
        source += "\n" * 10 + "# repro-lint: skip-file\n"
        findings = analyzer_for("R1").check_source(source)
        assert [f.rule for f in findings] == ["R1"]


class TestSyntaxError:
    def test_unparseable_source_yields_e999(self):
        findings = analyzer_for().check_source("def broken(:\n")
        assert len(findings) == 1
        assert findings[0].rule == "E999"
        assert findings[0].line == 1


class TestDiscovery:
    def test_directory_discovery_is_sorted_and_deduplicated(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        analyzer = analyzer_for()
        found = analyzer.discover([str(tmp_path), str(tmp_path / "a.py")])
        assert [p.name for p in found] == ["a.py", "b.py"]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            analyzer_for().discover(["definitely/not/a/file"])

    def test_violations_package_excluded_by_default(self):
        src_root = Path(__file__).parents[2] / "src"
        analyzer = analyzer_for()
        found = analyzer.discover([str(src_root)])
        assert not [p for p in found if "violations" in p.parts]

    def test_violations_package_flagged_when_excludes_disabled(self):
        src_root = Path(__file__).parents[2] / "src"
        violations = src_root / "repro" / "analysis" / "violations"
        analyzer = Analyzer(rules=DEFAULT_RULES.create(), excludes=())
        # skip-file pragmas quarantine them from findings, but the *files*
        # are discovered once excludes are gone.
        found = analyzer.discover([str(violations)])
        assert {p.name for p in found} >= {"lock_order.py", "frozen.py",
                                           "global_rng.py"}
        # Strip the pragma and R1 fires on the seeded global-RNG demo.
        source = (violations / "global_rng.py").read_text()
        source = source.replace("# repro-lint: skip-file", "#")
        findings = Analyzer(rules=DEFAULT_RULES.create(["R1"])).check_source(
            source, PurePath("src/repro/analysis/violations/global_rng.py"))
        assert [f.rule for f in findings] == ["R1"]


class TestRegistry:
    def test_all_eight_rules_registered(self):
        assert DEFAULT_RULES.ids() == ["R1", "R2", "R3", "R4",
                                       "R5", "R6", "R7", "R8"]

    def test_every_rule_names_its_contract(self):
        for rule_id in DEFAULT_RULES.ids():
            rule_cls = DEFAULT_RULES.get(rule_id)
            assert rule_cls.name, rule_id
            assert rule_cls.description, rule_id
            assert rule_cls.contract, rule_id

    def test_duplicate_id_rejected(self):
        registry = RuleRegistry()

        class First(Rule):
            id = "X1"

        class Second(Rule):
            id = "X1"

        registry.register(First)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(Second)

    def test_missing_id_rejected(self):
        with pytest.raises(ValueError, match="has no id"):
            RuleRegistry().register(type("NoId", (Rule,), {}))

    def test_unknown_rule_lookup_raises(self):
        with pytest.raises(KeyError, match="unknown rule"):
            DEFAULT_RULES.get("R42")
