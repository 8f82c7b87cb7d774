#!/usr/bin/env python3
"""Unit suite for scripts/radio_lint.py.

Every rule gets a positive fixture (each seeded violation is caught by its
rule at the expected line), a negative fixture (zero findings), and a
suppressed fixture (justified allow() silences the finding). Suppression
mechanics (missing justification, unused allow, unknown rule) are covered in
suppression_errors.cpp. Run directly or via ctest target lint.rule_suite.
"""

import os
import sys
import unittest

THIS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(THIS_DIR))
FIXTURE_ROOT = os.path.join(THIS_DIR, "fixtures")
LAYERING_ROOT = os.path.join(FIXTURE_ROOT, "layering")
LAYERS_JSON = os.path.join(LAYERING_ROOT, "layers.json")

sys.path.insert(0, os.path.join(REPO_ROOT, "scripts"))
import radio_lint  # noqa: E402


def scan(rel_path):
    sf = radio_lint.load_source(rel_path, FIXTURE_ROOT)
    return radio_lint.scan_file(sf)


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


class NoRawParse(unittest.TestCase):
    def test_positive(self):
        findings = scan("src/sim/raw_parse_violation.cpp")
        hits = by_rule(findings, radio_lint.RULE_NO_RAW_PARSE)
        self.assertEqual([f.line for f in hits], [7, 11, 15, 19])
        self.assertIn("'atoi'", hits[0].message)
        self.assertIn("'stoull'", hits[1].message)
        self.assertIn("'strtod'", hits[2].message)
        self.assertIn("'sscanf'", hits[3].message)

    def test_negative(self):
        self.assertEqual(scan("src/sim/raw_parse_clean.cpp"), [])

    def test_suppressed(self):
        self.assertEqual(scan("src/sim/raw_parse_suppressed.cpp"), [])

    def test_util_parse_is_allowlisted(self):
        self.assertEqual(scan("src/util/parse.cpp"), [])


class NoGlobalRng(unittest.TestCase):
    def test_positive(self):
        findings = scan("src/sim/global_rng_violation.cpp")
        hits = by_rule(findings, radio_lint.RULE_NO_GLOBAL_RNG)
        self.assertEqual([f.line for f in hits], [6, 7, 8, 9])

    def test_util_rng_is_allowlisted(self):
        self.assertEqual(scan("src/util/rng.cpp"), [])

    def test_suppressed(self):
        self.assertEqual(scan("src/sim/global_rng_suppressed.cpp"), [])


class RngStreamDiscipline(unittest.TestCase):
    def test_positive(self):
        findings = scan("src/sim/stream_discipline_violation.cpp")
        hits = by_rule(findings, radio_lint.RULE_RNG_STREAM)
        self.assertEqual([f.line for f in hits], [21])
        self.assertIn("for_stream", hits[0].message)

    def test_negative(self):
        self.assertEqual(scan("src/sim/stream_discipline_clean.cpp"), [])

    def test_suppressed(self):
        self.assertEqual(scan("src/sim/stream_discipline_suppressed.cpp"), [])

    def test_real_trial_runner_is_clean(self):
        sf = radio_lint.load_source("src/analysis/trial_runner.hpp", REPO_ROOT)
        self.assertEqual(radio_lint.scan_file(sf), [])


class NoWallclockInSim(unittest.TestCase):
    def test_positive(self):
        findings = scan("src/sim/wallclock_violation.cpp")
        hits = by_rule(findings, radio_lint.RULE_NO_WALLCLOCK)
        self.assertEqual([f.line for f in hits], [7, 8, 9])

    def test_bench_is_allowlisted(self):
        self.assertEqual(scan("bench/wallclock_clean.cpp"), [])

    def test_suppressed_and_token_boundaries(self):
        self.assertEqual(scan("src/sim/wallclock_suppressed.cpp"), [])

    def test_real_bench_runner_is_allowlisted(self):
        sf = radio_lint.load_source("src/analysis/bench_runner.cpp", REPO_ROOT)
        self.assertEqual(
            by_rule(radio_lint.scan_file(sf), radio_lint.RULE_NO_WALLCLOCK), [])


class NoIostreamInKernel(unittest.TestCase):
    def test_positive_and_suppressed(self):
        findings = scan("src/sim/channel_kernel.cpp")
        hits = by_rule(findings, radio_lint.RULE_NO_IOSTREAM)
        self.assertEqual([f.line for f in hits], [3, 4, 7, 8])

    def test_clean_kernel_file(self):
        self.assertEqual(scan("src/graph/bfs.hpp"), [])

    def test_non_kernel_file_out_of_scope(self):
        self.assertEqual(scan("src/sim/iostream_elsewhere_clean.cpp"), [])

    def test_missing_kernel_file_reported(self):
        hits = radio_lint.check_kernel_files_exist(
            FIXTURE_ROOT, ("src/sim/channel_kernel.cpp", "src/sim/gone.cpp"))
        self.assertEqual(len(hits), 1)
        self.assertEqual(hits[0].rule, radio_lint.RULE_NO_IOSTREAM)
        self.assertIn("'src/sim/gone.cpp'", hits[0].message)
        self.assertTrue(hits[0].path.endswith("scripts/radio_lint.py"))

    def test_real_kernel_files_all_exist(self):
        self.assertEqual(radio_lint.check_kernel_files_exist(REPO_ROOT), [])

    def test_whole_tree_run_reports_missing_kernel_files(self):
        import contextlib
        import io
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = radio_lint.main(["--root", FIXTURE_ROOT])
        self.assertEqual(code, 1)
        stale = [l for l in out.getvalue().splitlines()
                 if "KERNEL_FILES entry" in l]
        missing = [p for p in radio_lint.KERNEL_FILES
                   if not os.path.isfile(os.path.join(FIXTURE_ROOT, p))]
        self.assertEqual(len(stale), len(missing))
        self.assertGreater(len(missing), 0)


class NoUnorderedIterationToOutput(unittest.TestCase):
    def test_positive(self):
        findings = scan("src/sim/unordered_output_violation.cpp")
        hits = by_rule(findings, radio_lint.RULE_NO_UNORDERED_OUT)
        self.assertEqual([f.line for f in hits], [11, 19])

    def test_negative(self):
        self.assertEqual(scan("src/sim/unordered_output_clean.cpp"), [])

    def test_suppressed(self):
        self.assertEqual(scan("src/sim/unordered_output_suppressed.cpp"), [])


class NoXorSeedDerivation(unittest.TestCase):
    def test_positive(self):
        findings = scan("src/sim/xor_seed_violation.cpp")
        hits = by_rule(findings, radio_lint.RULE_NO_XOR_SEED)
        self.assertEqual([f.line for f in hits], [6, 8, 9])
        self.assertIn("derive_row_seed", hits[0].message)
        self.assertIn("'config_seed'", hits[0].message)

    def test_negative(self):
        self.assertEqual(scan("src/sim/xor_seed_clean.cpp"), [])

    def test_suppressed(self):
        self.assertEqual(scan("src/sim/xor_seed_suppressed.cpp"), [])

    def test_real_rng_header_is_allowlisted(self):
        sf = radio_lint.load_source("src/util/rng.hpp", REPO_ROOT)
        self.assertEqual(
            by_rule(radio_lint.scan_file(sf), radio_lint.RULE_NO_XOR_SEED), [])


class StreamTagRegistry(unittest.TestCase):
    def test_positive(self):
        findings = scan("src/sim/stream_tag_violation.cpp")
        hits = by_rule(findings, radio_lint.RULE_STREAM_TAG)
        self.assertEqual([f.line for f in hits], [9, 12, 13, 15])
        self.assertIn("'kLocalArrivalTag'", hits[0].message)
        self.assertIn("shift-into-high-bits", hits[1].message)
        self.assertIn("integer literal '42'", hits[2].message)
        self.assertIn("stable_row_tag", hits[3].message)

    def test_negative(self):
        self.assertEqual(scan("src/sim/stream_tag_clean.cpp"), [])

    def test_suppressed(self):
        self.assertEqual(scan("src/sim/stream_tag_suppressed.cpp"), [])

    def test_real_registry_is_allowlisted(self):
        sf = radio_lint.load_source("src/util/stream_tags.hpp", REPO_ROOT)
        self.assertEqual(radio_lint.scan_file(sf), [])

    def test_real_stream_session_is_clean(self):
        sf = radio_lint.load_source("src/sim/stream/stream_session.hpp",
                                    REPO_ROOT)
        self.assertEqual(
            by_rule(radio_lint.scan_file(sf), radio_lint.RULE_STREAM_TAG), [])


class LayerConformance(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lm = radio_lint.load_layer_map(LAYERS_JSON)
        cls.sources = {}
        cls.grouped = radio_lint.check_layer_conformance(
            cls.lm, LAYERING_ROOT, cls.sources)

    def suppressed(self, path):
        return radio_lint.scan_file(
            self.sources[path], (), extra=self.grouped.get(path, ()))

    def test_upward_include_reported_with_chain(self):
        hits = self.suppressed("src/util/upward_violation.hpp")
        self.assertEqual([f.rule for f in hits], [radio_lint.RULE_LAYER])
        self.assertEqual(hits[0].line, 3)
        self.assertIn("layer util", hits[0].message)
        self.assertIn("layer analysis", hits[0].message)
        self.assertIn(
            "src/util/upward_violation.hpp -> src/analysis/report.hpp",
            hits[0].message)

    def test_cycle_reported_with_full_chain(self):
        hits = self.suppressed("src/sim/cycle_a.hpp")
        self.assertEqual(len(hits), 1)
        self.assertIn(
            "src/sim/cycle_a.hpp -> src/sim/cycle_b.hpp -> "
            "src/sim/cycle_a.hpp", hits[0].message)
        # one canonical report per cycle, anchored at the smallest member
        self.assertEqual(self.suppressed("src/sim/cycle_b.hpp"), [])

    def test_undeclared_external_reported(self):
        hits = self.suppressed("src/sim/external_violation.cpp")
        self.assertEqual(len(hits), 1)
        self.assertIn("<thread>", hits[0].message)

    def test_unmapped_file_reported(self):
        hits = self.suppressed("src/orphan/nolayer.cpp")
        self.assertEqual(len(hits), 1)
        self.assertIn("matches no layer", hits[0].message)

    def test_clean_files_have_no_findings(self):
        for path in ("src/sim/engine_clean.cpp", "src/util/base.hpp",
                     "src/analysis/report.hpp"):
            self.assertNotIn(path, self.grouped)

    def test_justified_suppression_silences(self):
        self.assertEqual(self.suppressed("src/util/upward_suppressed.hpp"), [])

    def test_bare_allow_is_a_finding(self):
        hits = self.suppressed("src/util/upward_bare_allow.hpp")
        self.assertEqual(len(hits), 1)
        self.assertIn("missing a justification", hits[0].message)

    def test_cli_end_to_end(self):
        import contextlib
        import io
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = radio_lint.main(
                ["--root", LAYERING_ROOT, "--layers", LAYERS_JSON,
                 "--rule", "layer-conformance"])
        self.assertEqual(code, 1, out.getvalue())
        lines = [l for l in out.getvalue().splitlines() if l]
        # upward + bare-allow + cycle + external + unmapped
        self.assertEqual(len(lines), 5, out.getvalue())

    def test_real_tree_is_conformant(self):
        lm = radio_lint.load_layer_map(
            os.path.join(REPO_ROOT, "scripts", "layers.json"))
        grouped = radio_lint.check_layer_conformance(lm, REPO_ROOT, {})
        self.assertEqual(grouped, {})


class SuppressionMechanics(unittest.TestCase):
    def test_errors(self):
        findings = scan("src/sim/suppression_errors.cpp")
        rules = sorted(f.rule for f in findings)
        self.assertEqual(
            rules, ["no-raw-parse", "unknown-rule", "unused-suppression"])
        missing = by_rule(findings, "no-raw-parse")[0]
        self.assertIn("missing a justification", missing.message)


class Tokenizer(unittest.TestCase):
    def test_strings_and_comments_never_flag(self):
        self.assertEqual(scan("src/sim/strings_and_comments_clean.cpp"), [])

    def test_scrub_preserves_line_count(self):
        text = 'int a; /* multi\nline */ const char* s = "x\\"y";\n// tail\n'
        self.assertEqual(radio_lint.scrub_source(text).count("\n"),
                         text.count("\n"))

    def test_edge_cases_are_scrubbed(self):
        # raw strings, //-in-string, comment/string continuations,
        # suppression text inside a string literal
        self.assertEqual(scan("src/sim/tokenizer_edges_clean.cpp"), [])

    def test_line_numbers_survive_edge_cases(self):
        findings = scan("src/sim/tokenizer_edges_violation.cpp")
        self.assertEqual([(f.rule, f.line) for f in findings],
                         [(radio_lint.RULE_NO_RAW_PARSE, 11)])

    def test_raw_string_preserves_line_count(self):
        text = 'auto s = R"(a\nb\nc)";\nint x = atoi("1");\n'
        scrubbed = radio_lint.scrub_source(text)
        self.assertEqual(scrubbed.count("\n"), text.count("\n"))
        self.assertNotIn("atoi", scrubbed.splitlines()[0])
        self.assertIn("atoi", scrubbed.splitlines()[3])

    def test_identifier_ending_in_R_is_not_raw_prefix(self):
        text = 'auto s = HDR"atoi( still a plain string";\nint t;\n'
        self.assertNotIn("atoi", radio_lint.scrub_source(text))


class EndToEnd(unittest.TestCase):
    def test_cli_over_fixture_tree_reports_all_violations(self):
        import contextlib
        import io
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = radio_lint.main(["--root", FIXTURE_ROOT, "src", "bench"])
        self.assertEqual(code, 1)
        lines = [l for l in out.getvalue().splitlines() if l]
        # 4 raw-parse + 4 global-rng + 1 stream + 3 wallclock + 4 iostream
        # + 2 unordered + 3 xor-seed + 3 suppression-mechanics
        # + 4 stream-tag + 1 tokenizer-edge findings
        self.assertEqual(len(lines), 29)
        for line in lines:
            self.assertRegex(line, r"^[^:]+:\d+: radio-lint\([a-z-]+\): ")

    def test_cli_on_real_tree_is_clean(self):
        import contextlib
        import io
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = radio_lint.main(["--root", REPO_ROOT, "src", "bench"])
        self.assertEqual(code, 0, out.getvalue())


if __name__ == "__main__":
    unittest.main(verbosity=2)
