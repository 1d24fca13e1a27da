#!/usr/bin/env python3
"""Unit tests for tools/analyze.py and tools/bench_report.py.

Each rule gets at least one positive fixture (the finding fires) and one
negative fixture (idiomatic code passes), so a regex regression shows up
here instead of as silently-vanished CI coverage. Run via
`python3 tools/tools_test.py` (no third-party deps; a ctest test and part
of the `analyze` stage in tools/check_all.sh).
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import analyze  # noqa: E402
import bench_report  # noqa: E402


class FixtureTree:
    """A throwaway repo root: write src/-relative files, run a tool."""

    def __init__(self):
        self._dir = tempfile.TemporaryDirectory(prefix="reldiv_tools_test_")
        self.root = Path(self._dir.name)
        (self.root / "src").mkdir()

    def cleanup(self) -> None:
        self._dir.cleanup()

    def write(self, rel: str, text: str) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    def analyze_findings(self, rules, baseline=None):
        baseline_path = self.root / "baseline.json"
        if baseline is not None:
            baseline_path.write_text(json.dumps(baseline), encoding="utf-8")
        analyzer = analyze.Analyzer(
            self.root, backend=analyze.TokenizerBackend(),
            baseline_path=baseline_path, rules=rules)
        fresh = analyzer.run()
        return fresh, analyzer


GUARD = "#ifndef RELDIV_X_H_\n#define RELDIV_X_H_\n"


def rules_of(findings) -> list[str]:
    return [f.rule if hasattr(f, "rule") else f for f in findings]


# ---------------------------------------------------------------------------
# analyze.py rules
# ---------------------------------------------------------------------------

class AnalyzeRuleTest(unittest.TestCase):
    def setUp(self):
        self.tree = FixtureTree()
        self.addCleanup(self.tree.cleanup)

    def fresh(self, rules):
        findings, _ = self.tree.analyze_findings(rules)
        return findings

    def test_physical_op_fires_outside_allowlist(self):
        self.tree.write("src/exec/newop.cc",
                        "Status F() { return disk_->Read(0, 1, buf); }\n")
        found = self.fresh(["physical-op-charge"])
        self.assertEqual(rules_of(found), ["physical-op-charge"])

    def test_physical_op_allowlisted_file_clean(self):
        # The (file, method) pair below is in PHYSICAL_OP_ALLOWLIST.
        self.tree.write("src/exec/sort.cc",
                        "Status F() { return disk_->Read(0, 1, buf); }\n")
        self.assertEqual(self.fresh(["physical-op-charge"]), [])

    def test_physical_op_nonphysical_receiver_clean(self):
        # RecordFile::Read is a logical read; only disk-like receivers count.
        self.tree.write("src/exec/newop.cc",
                        "Status F() { return file_->Read(rid, &t); }\n")
        self.assertEqual(self.fresh(["physical-op-charge"]), [])

    def test_physical_op_suppression_with_rationale(self):
        self.tree.write(
            "src/exec/newop.cc",
            "Status F() { return disk_->Read(0, 1, buf); }"
            "  // NOLINT(reldiv/physical-op-charge): counted by caller\n")
        found, analyzer = self.tree.analyze_findings(["physical-op-charge"])
        self.assertEqual(found, [])
        self.assertEqual(analyzer.suppressed, 1)

    def test_bare_suppression_reports_missing_rationale(self):
        self.tree.write(
            "src/exec/newop.cc",
            "Status F() { return disk_->Read(0, 1, buf); }"
            "  // NOLINT(reldiv/physical-op-charge)\n")
        found = self.fresh(["physical-op-charge"])
        self.assertIn("suppression-rationale", rules_of(found))
        self.assertIn("physical-op-charge", rules_of(found))

    def test_kernel_purity_fires_on_counter_type(self):
        self.tree.write("src/exec/kernels/k.h",
                        GUARD + "void F(CpuCounters* c);\n#endif\n")
        found = self.fresh(["kernel-purity"])
        self.assertEqual(rules_of(found), ["kernel-purity"])

    def test_kernel_purity_fires_on_include(self):
        self.tree.write("src/exec/kernels/k.cc",
                        '#include "common/counters.h"\n')
        found = self.fresh(["kernel-purity"])
        self.assertEqual(rules_of(found), ["kernel-purity"])

    def test_kernel_purity_fires_on_operator_include(self):
        self.tree.write("src/exec/kernels/k.cc",
                        '#include "exec/operator.h"\n')
        found = self.fresh(["kernel-purity"])
        self.assertEqual(rules_of(found), ["kernel-purity"])

    def test_kernel_purity_fires_on_next_batch_call(self):
        self.tree.write("src/exec/kernels/k.cc",
                        "void F(Operator* op) { op->NextBatch(&b, &m); }\n")
        found = self.fresh(["kernel-purity"])
        self.assertEqual(rules_of(found), ["kernel-purity"])

    def test_kernel_purity_comment_mention_clean(self):
        self.tree.write("src/exec/kernels/k.cc",
                        "// the caller charges CpuCounters, not us\n"
                        "void F(const int64_t* a, size_t n);\n")
        self.assertEqual(self.fresh(["kernel-purity"]), [])

    def test_mutex_without_guarded_by_fires(self):
        self.tree.write("src/exec/a.h",
                        GUARD + "class C {\n  Mutex mu_;\n  int x_;\n};\n"
                        "#endif\n")
        found = self.fresh(["mutex-guarded-by"])
        self.assertEqual(rules_of(found), ["mutex-guarded-by"])

    def test_mutex_with_guarded_by_clean(self):
        self.tree.write(
            "src/exec/a.h",
            GUARD + "class C {\n  mutable Mutex mu_;\n"
            "  int x_ GUARDED_BY(mu_);\n};\n#endif\n")
        self.assertEqual(self.fresh(["mutex-guarded-by"]), [])

    def test_mutex_with_requires_only_clean(self):
        self.tree.write(
            "src/exec/a.h",
            GUARD + "class C {\n  void F() REQUIRES(mu_);\n"
            "  Mutex mu_;\n};\n#endif\n")
        self.assertEqual(self.fresh(["mutex-guarded-by"]), [])

    def test_std_mutex_fires(self):
        self.tree.write("src/exec/a.h",
                        GUARD + "class C {\n  std::mutex mu_;\n"
                        "  int x_ GUARDED_BY(mu_);\n};\n#endif\n")
        found = self.fresh(["mutex-guarded-by"])
        self.assertEqual(rules_of(found), ["mutex-guarded-by"])
        self.assertIn("std::mutex", found[0].message)

    def test_raw_thread_fires(self):
        self.tree.write("src/exec/a.cc",
                        "void F() { std::thread t([] {}); t.join(); }\n")
        found = self.fresh(["raw-thread"])
        self.assertEqual(rules_of(found), ["raw-thread"])

    def test_raw_thread_allowlisted_scheduler_clean(self):
        self.tree.write("src/exec/scheduler.cc",
                        "void F() { workers_.emplace_back(std::thread()); }\n")
        self.assertEqual(self.fresh(["raw-thread"]), [])

    def test_naked_new_fires(self):
        self.tree.write("src/exec/a.cc", "int* P() { return new int(3); }\n")
        found = self.fresh(["naked-new"])
        self.assertEqual(rules_of(found), ["naked-new"])

    def test_deleted_member_clean(self):
        self.tree.write("src/exec/a.h",
                        GUARD + "class C {\n"
                        "  C(const C&) = delete;\n};\n#endif\n")
        self.assertEqual(self.fresh(["naked-new"]), [])

    def test_telemetry_name_literal_fires(self):
        self.tree.write(
            "src/exec/a.cc",
            'void F(MetricRegistry* r) { r->FindOrCreateCounter("x"); }\n')
        found = self.fresh(["telemetry-names"])
        self.assertEqual(rules_of(found), ["telemetry-names"])
        self.assertIn("metric_names.h", found[0].message)

    def test_telemetry_name_wrapped_literal_fires(self):
        # The formatter may break the call after the open paren; the literal
        # on the next line must still be caught.
        self.tree.write(
            "src/exec/a.cc",
            "void F(MetricRegistry* r) {\n"
            "  r->FindOrCreateHistogram(\n"
            '      "grant_latency_micros", "pool", "default");\n'
            "}\n")
        found = self.fresh(["telemetry-names"])
        self.assertEqual(rules_of(found), ["telemetry-names"])
        # Reported at the call site, not the wrapped literal's line.
        self.assertEqual(found[0].lineno, 2)

    def test_telemetry_name_constant_clean(self):
        # Label values after the name constant may be literals; only the
        # metric name itself is schema.
        self.tree.write(
            "src/exec/a.cc",
            "void F(MetricRegistry* r) {\n"
            "  r->FindOrCreateCounter(metric_names::kSchedTasksTotal);\n"
            "  r->FindOrCreateGauge(metric_names::kGaugeRestarts);\n"
            '  r->FindOrCreateHistogram(metric_names::kQueryWallMicros,\n'
            '                           "algorithm", "hash");\n'
            "}\n")
        self.assertEqual(self.fresh(["telemetry-names"]), [])

    def test_bare_assert_fires(self):
        self.tree.write("src/a.cc", "void F() { assert(x > 0); }\n")
        self.assertEqual(rules_of(self.fresh(["bare-assert"])),
                         ["bare-assert"])

    def test_static_assert_and_check_clean(self):
        self.tree.write("src/a.cc",
                        "static_assert(sizeof(int) == 4);\n"
                        "void F() { RELDIV_CHECK(x > 0); }\n"
                        "// assert(x) in a comment\n")
        self.assertEqual(self.fresh(["bare-assert"]), [])

    def test_include_guard_fires_on_wrong_guard(self):
        self.tree.write("src/exec/a.h",
                        "#ifndef WRONG_H\n#define WRONG_H\n#endif\n")
        found = self.fresh(["include-guard"])
        self.assertEqual(rules_of(found), ["include-guard"])
        self.assertIn("RELDIV_EXEC_A_H_", found[0].message)

    def test_include_guard_clean(self):
        self.tree.write(
            "src/exec/a.h",
            "#ifndef RELDIV_EXEC_A_H_\n#define RELDIV_EXEC_A_H_\n"
            "#endif  // RELDIV_EXEC_A_H_\n")
        self.assertEqual(self.fresh(["include-guard"]), [])

    def test_no_rand_fires(self):
        self.tree.write("src/a.cc", "int R() { return std::rand(); }\n")
        self.assertEqual(rules_of(self.fresh(["no-rand"])), ["no-rand"])

    def test_rng_header_clean(self):
        self.tree.write("src/a.cc",
                        "int R(Rng* rng) { return rng->Next() + operand(); "
                        "}\n")
        self.assertEqual(self.fresh(["no-rand"]), [])

    BATCH_ONLY = (GUARD + "class Op : public Operator {\n"
                  "  Status NextBatch(TupleBatch* b, bool* m) override;\n"
                  "};\n#endif\n")

    def test_batch_overrides_fires_without_open_close(self):
        self.tree.write("src/exec/a.h", self.BATCH_ONLY)
        found = self.fresh(["batch-overrides"])
        self.assertEqual(rules_of(found), ["batch-overrides"])
        self.assertEqual(found[0].lineno, 3)  # the class line
        self.assertIn("Open/Close", found[0].message)

    def test_batch_overrides_clean_with_open_close(self):
        self.tree.write(
            "src/exec/a.h",
            GUARD + "class Op : public Operator {\n"
            "  Status Open() override;\n"
            "  Status NextBatch(TupleBatch* b, bool* m) override;\n"
            "  Status Close() override;\n"
            "};\n#endif\n")
        self.assertEqual(self.fresh(["batch-overrides"]), [])

    def test_batch_overrides_suppressed_on_class_line(self):
        self.tree.write("src/exec/a.h", self.BATCH_ONLY.replace(
            "{\n", "{  // NOLINT(reldiv/batch-overrides): wraps Open/Close\n",
            1))
        found, analyzer = self.tree.analyze_findings(["batch-overrides"])
        self.assertEqual(found, [])
        self.assertEqual(analyzer.suppressed, 1)

    BASE_OPERATOR = (GUARD + "class Operator {\n"
                     "  virtual Status Next(Tuple* tuple, bool* has_next);\n"
                     "};\n#endif\n")

    def test_tuple_lane_base_declaration_clean(self):
        self.tree.write("src/exec/operator.h", self.BASE_OPERATOR)
        self.assertEqual(self.fresh(["tuple-lane"]), [])

    def test_tuple_lane_fires_on_override_and_definition(self):
        self.tree.write("src/exec/operator.h", self.BASE_OPERATOR.replace(
            "};\n", "};\nclass Scan : public Operator {\n"
            "  Status Next(Tuple* t, bool* h) override;\n};\n"))
        self.tree.write("src/exec/scan.cc",
                        "Status Scan::Next(Tuple* tuple,\n"
                        "                  bool* has_next) { return {}; }\n")
        found = self.fresh(["tuple-lane"])
        self.assertEqual(rules_of(found), ["tuple-lane", "tuple-lane"])
        self.assertEqual(sorted((f.file, f.lineno) for f in found),
                         [("src/exec/operator.h", 7), ("src/exec/scan.cc", 1)])

    def test_tuple_lane_private_step_and_calls_clean(self):
        self.tree.write(
            "src/exec/sort.cc",
            "Status Sort::Step(Tuple* tuple, bool* has_next) {\n"
            "  return input_.Pull(tuple, has_next);\n}\n"
            "Status Run(Scan* s, Tuple* t, bool* h) {\n"
            "  return s->Next(t, h);\n}\n")
        self.assertEqual(self.fresh(["tuple-lane"]), [])

    def test_failpoint_site_unlisted_fires(self):
        self.tree.write(
            "src/testing/failpoint.h",
            GUARD + 'inline constexpr const char* kFailpointSites[] = {\n'
            '    "disk/read",\n};\n#endif\n')
        self.tree.write("src/storage/x.cc",
                        'Status F() { RELDIV_FAILPOINT("disk/write"); '
                        'return Status::OK(); }\n')
        found = self.fresh(["failpoint-site"])
        self.assertEqual(rules_of(found), ["failpoint-site"])

    def test_failpoint_site_listed_clean(self):
        self.tree.write(
            "src/testing/failpoint.h",
            GUARD + 'inline constexpr const char* kFailpointSites[] = {\n'
            '    "disk/read",\n};\n#endif\n')
        self.tree.write("src/storage/x.cc",
                        'Status F() { RELDIV_FAILPOINT("disk/read"); '
                        'return Status::OK(); }\n')
        self.assertEqual(self.fresh(["failpoint-site"]), [])

    def test_failpoint_coverage_fires_when_site_lost(self):
        # Every wired file exists but one lost all of its sites.
        for rel, sites in analyze.FAILPOINT_COVERAGE.items():
            body = "".join(f'RELDIV_FAILPOINT("{s}");\n' for s in sites)
            if rel == "src/storage/disk.cc":
                body = ""  # all three sim_disk sites lost
            self.tree.write(rel, body)
        found = self.fresh(["failpoint-coverage"])
        self.assertEqual(set(rules_of(found)), {"failpoint-coverage"})
        self.assertEqual(len(found), 3)

    def test_failpoint_coverage_clean_when_wired(self):
        for rel, sites in analyze.FAILPOINT_COVERAGE.items():
            body = "".join(f'RELDIV_FAILPOINT("{s}");\n' for s in sites)
            self.tree.write(rel, body)
        self.assertEqual(self.fresh(["failpoint-coverage"]), [])

    REPLAN_WIRED = (
        "void R() {\n"
        "  MetricRegistry::Global()\n"
        '      .FindOrCreateCounter(metric_names::kReplansTotal, "trigger",\n'
        '                           name)->Increment();\n'
        '  EventLog::Flight().Record("fallback", "replan", detail, seen);\n'
        "}\n")

    def test_replan_metric_without_flight_event_fires(self):
        self.tree.write("src/planner/adaptive.cc", self.REPLAN_WIRED)
        self.tree.write(
            "src/exec/other.cc",
            "void F() {\n"
            "  MetricRegistry::Global()\n"
            "      .FindOrCreateCounter(metric_names::kReplansTotal,\n"
            '                           "trigger", name)->Increment();\n'
            "}\n")
        found = self.fresh(["replan-flight-log"])
        self.assertEqual(rules_of(found), ["replan-flight-log"])
        self.assertEqual(found[0].file, "src/exec/other.cc")

    def test_replan_metric_with_flight_event_clean(self):
        self.tree.write("src/planner/adaptive.cc", self.REPLAN_WIRED)
        self.assertEqual(self.fresh(["replan-flight-log"]), [])

    def test_replan_coverage_fires_when_recorder_call_lost(self):
        # The adaptive planner keeps the counter but loses the flight event.
        self.tree.write(
            "src/planner/adaptive.cc",
            "void R() {\n"
            "  MetricRegistry::Global()\n"
            "      .FindOrCreateCounter(metric_names::kReplansTotal,\n"
            '                           "trigger", name)->Increment();\n'
            "}\n")
        found = self.fresh(["replan-flight-log"])
        rules = rules_of(found)
        self.assertEqual(set(rules), {"replan-flight-log"})
        # Both the per-file rule and the coverage invariant fire.
        self.assertEqual(len(found), 2)

    def test_replan_coverage_fires_when_wired_file_missing(self):
        found = self.fresh(["replan-flight-log"])
        self.assertEqual(rules_of(found), ["replan-flight-log"])
        self.assertIn("missing", found[0].message)

    QCACHE_WIRED = (
        "void I() {\n"
        "  MetricRegistry::Global()\n"
        "      .FindOrCreateCounter(metric_names::kQcacheInvalidationsTotal)\n"
        "      ->Add(1);\n"
        "}\n"
        "void B() { SyncVersions(); }\n")

    def test_qcache_metric_without_sync_fires(self):
        self.tree.write("src/service/quotient_cache.cc", self.QCACHE_WIRED)
        self.tree.write(
            "src/exec/other.cc",
            "void F() {\n"
            "  MetricRegistry::Global()\n"
            "      .FindOrCreateCounter(metric_names::kQcacheInvalidations"
            "Total)\n"
            "      ->Add(1);\n"
            "}\n")
        found = self.fresh(["qcache-version-sync"])
        self.assertEqual(rules_of(found), ["qcache-version-sync"])
        self.assertEqual(found[0].file, "src/exec/other.cc")

    def test_qcache_metric_with_sync_clean(self):
        self.tree.write("src/service/quotient_cache.cc", self.QCACHE_WIRED)
        self.assertEqual(self.fresh(["qcache-version-sync"]), [])

    def test_qcache_coverage_fires_when_sync_call_lost(self):
        # The cache keeps the counter but loses the version re-stamp.
        self.tree.write(
            "src/service/quotient_cache.cc",
            "void I() {\n"
            "  MetricRegistry::Global()\n"
            "      .FindOrCreateCounter(metric_names::kQcacheInvalidations"
            "Total)\n"
            "      ->Add(1);\n"
            "}\n")
        found = self.fresh(["qcache-version-sync"])
        rules = rules_of(found)
        self.assertEqual(set(rules), {"qcache-version-sync"})
        # Both the per-file rule and the coverage invariant fire.
        self.assertEqual(len(found), 2)

    def test_qcache_coverage_fires_when_wired_file_missing(self):
        found = self.fresh(["qcache-version-sync"])
        self.assertEqual(rules_of(found), ["qcache-version-sync"])
        self.assertIn("missing", found[0].message)


class BaselineTest(unittest.TestCase):
    def setUp(self):
        self.tree = FixtureTree()
        self.addCleanup(self.tree.cleanup)
        self.tree.write("src/exec/a.cc",
                        "int* P() { return new int(3); }\n")

    def test_baselined_finding_does_not_fail(self):
        findings, analyzer = self.tree.analyze_findings(["naked-new"])
        self.assertEqual(len(findings), 1)
        baseline = {"version": 1,
                    "findings": [findings[0].baseline_entry()]}
        fresh, analyzer = self.tree.analyze_findings(["naked-new"],
                                                     baseline=baseline)
        self.assertEqual(fresh, [])
        self.assertEqual(analyzer.baselined, 1)
        self.assertEqual(analyzer.stale_baseline, [])

    def test_stale_baseline_entry_is_flagged(self):
        baseline = {"version": 1,
                    "findings": [{"rule": "naked-new",
                                  "file": "src/exec/gone.cc",
                                  "key": "int* q = new int;"}]}
        _, analyzer = self.tree.analyze_findings(["naked-new"],
                                                 baseline=baseline)
        self.assertEqual(len(analyzer.stale_baseline), 1)

    def test_baseline_survives_line_drift(self):
        findings, _ = self.tree.analyze_findings(["naked-new"])
        baseline = {"version": 1,
                    "findings": [findings[0].baseline_entry()]}
        # Same offending line, shifted down two lines.
        self.tree.write("src/exec/a.cc",
                        "#include <x>\n\nint* P() { return new int(3); }\n")
        fresh, analyzer = self.tree.analyze_findings(["naked-new"],
                                                     baseline=baseline)
        self.assertEqual(fresh, [])
        self.assertEqual(analyzer.baselined, 1)


class BenchReportSchemaTest(unittest.TestCase):
    """bench_report.py's key sets are parsed from metric_names.h."""

    def test_real_header_is_in_sync(self):
        self.assertEqual(bench_report.check_schema_source(), [])

    def test_parse_blocks_reads_sections(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "metric_names.h"
            path.write_text(
                "// bench-schema: counters\n"
                'inline constexpr char kComparisons[] = "comparisons";\n'
                'inline constexpr char kHashes[] = "hashes";\n'
                "// bench-schema: end\n"
                "// unrelated constant outside any block\n"
                'inline constexpr char kOther[] = "other";\n',
                encoding="utf-8")
            self.assertEqual(
                bench_report.parse_schema_blocks(str(path)),
                {"counters": ("comparisons", "hashes")})

    def test_unparseable_line_in_block_raises(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "metric_names.h"
            path.write_text(
                "// bench-schema: io\n"
                "int not_a_constant;\n"
                "// bench-schema: end\n", encoding="utf-8")
            with self.assertRaises(ValueError):
                bench_report.parse_schema_blocks(str(path))

    def test_duplicate_section_raises(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "metric_names.h"
            path.write_text(
                "// bench-schema: io\n// bench-schema: end\n"
                "// bench-schema: io\n// bench-schema: end\n",
                encoding="utf-8")
            with self.assertRaises(ValueError):
                bench_report.parse_schema_blocks(str(path))


class RepoIsCleanTest(unittest.TestCase):
    """The real tree must be clean — this is the CI gate's own invariant."""

    def test_analyze_clean(self):
        root = Path(__file__).resolve().parent.parent
        analyzer = analyze.Analyzer(root,
                                    backend=analyze.TokenizerBackend())
        self.assertEqual(analyzer.run(), [])
        self.assertEqual(analyzer.stale_baseline, [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
