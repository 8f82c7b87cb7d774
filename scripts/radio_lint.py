#!/usr/bin/env python3
"""radio-lint: project-invariant checker for the radio_random_graphs tree.

The repo's correctness story rests on a handful of conventions that normal
compilers cannot enforce: every untrusted token is parsed through
``util/parse``, every random draw flows from ``Rng::for_stream`` so trial
results are bit-identical at any thread count, simulation code never reads
wall clocks, hot kernels never touch stream I/O, stream/tag constants live in
one compile-checked registry, and the layer map in ``docs/architecture.md``
actually holds. This tool machine-checks those conventions as named,
suppressible rules, in the same one-line diagnostic format ``util/parse``
uses:

    src/foo.cpp:42: radio-lint(no-raw-parse): call to 'atoi' ...

Rules (see docs/static-analysis.md for the catalogue with rationale):

  no-raw-parse                    raw numeric parsing outside util/parse
  no-global-rng                   global/stdlib RNG outside util/rng
  rng-stream-discipline           Rng construction inside `#pragma omp
                                  parallel` regions must use Rng::for_stream
  no-wallclock-in-sim             wall-clock reads outside bench/ and the
                                  bench_runner timing code
  no-iostream-in-kernel           stream I/O / printf in hot kernel files;
                                  on whole-tree runs, KERNEL_FILES entries
                                  that name no file
  no-unordered-iteration-to-output
                                  ranged-for over unordered containers whose
                                  body writes to output sinks (tables, CSV,
                                  JSON, streams)
  no-xor-seed-derivation          seeds combined with '^' outside util/rng —
                                  XOR offsets collide; derive per-row seeds
                                  with derive_row_seed()
  stream-tag-registry             magic stream/tag constants (integer
                                  literals, shift-into-high-bits expressions,
                                  literal stable_row_tag strings) adjacent to
                                  Rng::for_stream / derive_row_seed outside
                                  src/util/stream_tags.hpp
  layer-conformance               #include-graph conformance against the
                                  machine-readable layer map in
                                  scripts/layers.json: upward includes,
                                  cross-subsystem cycles, undeclared external
                                  headers (whole-tree pass over the
                                  layers.json scan roots)

Suppression: append on the flagged line (or on a comment-only line directly
above it)::

    // radio-lint: allow(<rule>) -- <justification>

The justification is mandatory; a bare ``allow(...)`` is itself reported.

File discovery for the per-file rules: translation units listed in
``compile_commands.json`` (``--compile-commands``, default
``build/compile_commands.json`` when present and no explicit paths were
given) unioned with every ``*.cpp`` / ``*.hpp`` under the scan roots
(default: ``src bench examples``), so headers — which never appear in the
compile database — are always covered. The layer-conformance pass needs the
whole include graph, so it always walks the scan roots declared in
``layers.json`` (default: ``scripts/layers.json`` next to this script); it
runs when no explicit paths were given or when requested via ``--rule
layer-conformance``. Exits 0 when clean, 1 with one diagnostic per line when
not, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Iterable

# --------------------------------------------------------------------------
# Rule table
# --------------------------------------------------------------------------

RULE_NO_RAW_PARSE = "no-raw-parse"
RULE_NO_GLOBAL_RNG = "no-global-rng"
RULE_RNG_STREAM = "rng-stream-discipline"
RULE_NO_WALLCLOCK = "no-wallclock-in-sim"
RULE_NO_IOSTREAM = "no-iostream-in-kernel"
RULE_NO_UNORDERED_OUT = "no-unordered-iteration-to-output"
RULE_NO_XOR_SEED = "no-xor-seed-derivation"
RULE_STREAM_TAG = "stream-tag-registry"
RULE_LAYER = "layer-conformance"

ALL_RULES = (
    RULE_NO_RAW_PARSE,
    RULE_NO_GLOBAL_RNG,
    RULE_RNG_STREAM,
    RULE_NO_WALLCLOCK,
    RULE_NO_IOSTREAM,
    RULE_NO_UNORDERED_OUT,
    RULE_NO_XOR_SEED,
    RULE_STREAM_TAG,
    RULE_LAYER,
)

# Paths are matched on '/'-separated repo-relative form.

# no-raw-parse: the strict boundary lives here and may use the raw calls.
RAW_PARSE_ALLOWED = ("src/util/parse.cpp", "src/util/parse.hpp")
RAW_PARSE_RE = re.compile(
    r"\b(?:std\s*::\s*)?"
    r"(atoi|atol|atoll|strtol|strtoll|strtoul|strtoull|strtof|strtod|strtold"
    r"|stoi|stol|stoll|stoul|stoull|stof|stod|stold|sscanf|fscanf|scanf)"
    r"\s*\("
)

# no-global-rng: only util/rng may talk to stdlib randomness.
GLOBAL_RNG_ALLOWED = ("src/util/rng.cpp", "src/util/rng.hpp")
GLOBAL_RNG_RE = re.compile(
    r"\b(?:std\s*::\s*)?"
    r"(rand|srand|srandom|rand_r|drand48|lrand48|random_device"
    r"|mt19937|mt19937_64|minstd_rand|minstd_rand0|default_random_engine"
    r"|ranlux24|ranlux48|knuth_b)\b"
)

# no-wallclock-in-sim: timing belongs to the bench harness, not simulations.
WALLCLOCK_ALLOWED_PREFIXES = ("bench/",)
WALLCLOCK_ALLOWED_FILES = (
    # The runner's wall_seconds / generated_at provenance is the one
    # sanctioned timing site outside bench/.
    "src/analysis/bench_runner.cpp",
)
WALLCLOCK_RE = re.compile(
    r"\b(steady_clock|system_clock|high_resolution_clock)\b"
    r"|\b(?:std\s*::\s*)?(time|clock|gettimeofday|clock_gettime|timespec_get)\s*\("
)

# no-iostream-in-kernel: files on the round-fold / BFS hot path. A whole-tree
# run reports any entry that names no file (check_kernel_files_exist).
KERNEL_FILES = (
    "src/sim/channel_kernel.cpp",
    "src/sim/channel_kernel.hpp",
    "src/sim/engine.cpp",
    "src/sim/engine.hpp",
    "src/sim/light_session.hpp",
    "src/sim/batch/batch_engine.cpp",
    "src/sim/batch/batch_engine.hpp",
    "src/sim/batch/batch_runner.cpp",
    "src/sim/stream/message_queue.hpp",
    "src/sim/stream/stream_session.hpp",
    "src/gossip/gossip_session.cpp",
    "src/gossip/gossip_session.hpp",
    "src/graph/bfs.cpp",
    "src/graph/bfs.hpp",
    "src/graph/implicit_gnp.cpp",
    "src/graph/implicit_gnp.hpp",
)
IOSTREAM_INCLUDE_RE = re.compile(
    r'#\s*include\s*[<"](iostream|ostream|istream|fstream|sstream|cstdio|stdio\.h)[>"]'
)
IOSTREAM_CALL_RE = re.compile(
    r"\bstd\s*::\s*(cout|cerr|clog)\b"
    r"|\b(printf|fprintf|sprintf|snprintf|puts|fputs|fwrite)\s*\("
)

# no-unordered-iteration-to-output: sinks that make iteration order
# observable in results.
UNORDERED_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s*"
    r"&?\s*([A-Za-z_]\w*)\s*[;({=,)]"
)
RANGED_FOR_RE = re.compile(r"\bfor\s*\(")
OUTPUT_SINK_RE = re.compile(
    r"<<"
    r"|\b(printf|fprintf|fputs|fwrite)\s*\("
    r"|\.\s*cell\s*\("
    r"|\bwrite_csv\b|\bto_csv\b"
    r"|\.\s*set\s*\(|\.\s*append\s*\("
    r"|\bpush_back\b.*\b(csv|json|row|line|out)"
)

# no-xor-seed-derivation: XOR-offset seed derivations (`config.seed ^ tag`)
# collide whenever two tags XOR to the same mask, silently sharing RNG
# streams between rows. Only util/rng may mix seed bits directly (its
# derivations avalanche through SplitMix64 between injections).
XOR_SEED_ALLOWED = ("src/util/rng.cpp", "src/util/rng.hpp")
XOR_OP_RE = re.compile(r"\^=?")
IDENT_BEFORE_XOR_RE = re.compile(r"([A-Za-z_]\w*)\s*$")
IDENT_AFTER_XOR_RE = re.compile(r"^\s*\(*\s*([A-Za-z_]\w*)")

OMP_PARALLEL_RE = re.compile(r"#\s*pragma\s+omp\s.*\bparallel\b")
RNG_CONSTRUCT_RE = re.compile(
    r"\bRng\s+[A-Za-z_]\w*\s*[({=]|\bRng\s*[({]"
)

# stream-tag-registry: only the registry (and util/rng, whose derivations the
# registry is built from) may hold stream/tag magic constants.
STREAM_TAG_ALLOWED = (
    "src/util/stream_tags.hpp",
    "src/util/rng.cpp",
    "src/util/rng.hpp",
)
STREAM_CALL_RE = re.compile(r"\b(for_stream|derive_row_seed)\s*\(")
INT_LITERAL_ARG_RE = re.compile(
    r"^\(*\s*(?:0[xX][0-9a-fA-F']+|[0-9][0-9']*)"
    r"(?:[uUlL]+|_[A-Za-z]\w*)?\s*\)*$"
)
SHIFT_LITERAL_RE = re.compile(r"<<\s*[0-9]|\b[0-9][0-9']*\s*(?:[uUlL]+)?\s*<<")
ROW_TAG_LITERAL_RE = re.compile(r"\bstable_row_tag\s*\(\s*\"")
TAG_CONSTANT_DEF_RE = re.compile(
    r"\bconstexpr\s+(?:std\s*::\s*)?uint64_t\s+(k\w*(?:Tag|Stream)\w*)\s*="
)

SUPPRESS_RE = re.compile(
    r"radio-lint:\s*allow\(\s*([a-z0-9-]+)\s*\)\s*(?:--|:)?\s*(.*\S)?\s*$"
)

CPP_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh", ".inl")

# Include extraction is two-step: the scrubbed line proves the directive is
# real code (not commented out), the raw line still holds the quoted target
# (the scrubber blanks string-literal contents).
INCLUDE_DETECT_RE = re.compile(r"#\s*include\b")
INCLUDE_RE = re.compile(r'#\s*include\s*(?:"([^"]+)"|<([^>]+)>)')


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: radio-lint({self.rule}): {self.message}"


@dataclass
class Suppression:
    rule: str
    justification: str
    own_line: int  # 1-based line the comment sits on
    comment_only: bool
    used: bool = False


@dataclass
class SourceFile:
    path: str  # repo-relative, '/'-separated
    raw_lines: list[str] = field(default_factory=list)
    code_lines: list[str] = field(default_factory=list)  # comments/strings blanked
    suppressions: list[Suppression] = field(default_factory=list)


# --------------------------------------------------------------------------
# Tokenizer: blank comments and string/char literals, keep line structure
# --------------------------------------------------------------------------

# A raw-string prefix (R, u8R, LR, UR, uR) only counts when it is a token of
# its own — `HDR"%d"` is macro/string concatenation, not a raw string.
RAW_PREFIX_RE = re.compile(r"(?:u8|[uUL])?R$")


def _scan_source(text: str) -> tuple[str, list[tuple[int, int, str]]]:
    """Core tokenizer. Returns ``(scrubbed, comments)`` where ``scrubbed`` is
    `text` with comment and string/char literal *contents* replaced by spaces
    (newlines survive so findings keep their line numbers) and ``comments``
    lists every ``//`` comment as ``(line_no, column, text)`` — 1-based line
    of the ``//``, 0-based column, and the comment's full text including any
    backslash-continued lines. Handles //, /* */, "..." with escapes
    (including escaped newlines), '...', raw strings R"delim(...)delim", and
    backslash line continuations inside // comments."""
    out: list[str] = []
    comments: list[tuple[int, int, str]] = []
    i, n = 0, len(text)
    line_no, col = 1, 0
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW = range(6)
    state = NORMAL
    raw_terminator = ""
    comment_start: tuple[int, int] = (0, 0)
    comment_text: list[str] = []

    def emit(replacement: str, source: str) -> None:
        """Appends `replacement` for consumed `source`, tracking line/col."""
        nonlocal line_no, col
        out.append(replacement)
        for ch in source:
            if ch == "\n":
                line_no += 1
                col = 0
            else:
                col += 1

    while i < n:
        c = text[i]
        if state == NORMAL:
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                state = LINE_COMMENT
                comment_start = (line_no, col)
                comment_text = []
                emit("  ", "//")
                i += 2
                continue
            if c == "/" and i + 1 < n and text[i + 1] == "*":
                state = BLOCK_COMMENT
                emit("  ", "/*")
                i += 2
                continue
            if c == '"':
                # Raw string? Look back for a stand-alone R / u8R / LR / UR /
                # uR prefix (an identifier merely *ending* in R, e.g. a macro
                # `HDR"%d"`, is string concatenation, not a raw string).
                m = RAW_PREFIX_RE.search(text[max(0, i - 3): i])
                if m:
                    before = i - (3 - m.start()) if i >= 3 else m.start()
                    prev = text[before - 1] if before > 0 else ""
                    if prev and (prev.isalnum() or prev == "_"):
                        m = None
                if m:
                    j = text.find("(", i + 1)
                    if j != -1 and j - i - 1 <= 16:
                        raw_terminator = ")" + text[i + 1: j] + '"'
                        state = RAW
                        emit('"' + " " * (j - i), text[i: j + 1])
                        i = j + 1
                        continue
                state = STRING
                emit('"', '"')
                i += 1
                continue
            if c == "'":
                state = CHAR
                emit("'", "'")
                i += 1
                continue
            emit(c, c)
            i += 1
        elif state == LINE_COMMENT:
            if c == "\\" and i + 1 < n and text[i + 1] == "\n":
                # Backslash continuation: the comment swallows the next line.
                comment_text.append(" ")
                emit(" \n", "\\\n")
                i += 2
            elif c == "\n":
                state = NORMAL
                comments.append(
                    (comment_start[0], comment_start[1], "".join(comment_text)))
                emit("\n", "\n")
                i += 1
            else:
                comment_text.append(c)
                emit(" ", c)
                i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                state = NORMAL
                emit("  ", "*/")
                i += 2
            else:
                emit("\n" if c == "\n" else " ", c)
                i += 1
        elif state == STRING:
            if c == "\\" and i + 1 < n:
                # Escaped char; an escaped newline continues the string onto
                # the next line and must keep the line count intact.
                nxt = text[i + 1]
                emit(" " + ("\n" if nxt == "\n" else " "), text[i: i + 2])
                i += 2
            elif c == '"':
                state = NORMAL
                emit('"', '"')
                i += 1
            else:
                emit("\n" if c == "\n" else " ", c)
                i += 1
        elif state == CHAR:
            if c == "\\" and i + 1 < n:
                nxt = text[i + 1]
                emit(" " + ("\n" if nxt == "\n" else " "), text[i: i + 2])
                i += 2
            elif c == "'":
                state = NORMAL
                emit("'", "'")
                i += 1
            else:
                emit(" ", c)
                i += 1
        else:  # RAW
            if text.startswith(raw_terminator, i):
                state = NORMAL
                emit(" " * (len(raw_terminator) - 1) + '"', raw_terminator)
                i += len(raw_terminator)
            else:
                emit("\n" if c == "\n" else " ", c)
                i += 1
    if state == LINE_COMMENT:
        comments.append(
            (comment_start[0], comment_start[1], "".join(comment_text)))
    return "".join(out), comments


def scrub_source(text: str) -> str:
    """Returns `text` with comment and string/char literal *contents* replaced
    by spaces. Newlines survive so findings keep their line numbers."""
    return _scan_source(text)[0]


def load_source(path: str, repo_root: str) -> SourceFile:
    abs_path = os.path.join(repo_root, path)
    with open(abs_path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    raw_lines = text.splitlines()
    scrubbed, comments = _scan_source(text)
    code_lines = scrubbed.splitlines()
    # scrub preserves line count except trailing-newline trivia; pad to match.
    while len(code_lines) < len(raw_lines):
        code_lines.append("")
    sf = SourceFile(path=path, raw_lines=raw_lines, code_lines=code_lines)
    # Suppressions are read from ACTUAL // comments (the tokenizer's comment
    # list), never from string literals that merely contain the marker text.
    for line_no, column, comment in comments:
        m = SUPPRESS_RE.search(comment)
        if not m:
            continue
        raw = raw_lines[line_no - 1] if line_no - 1 < len(raw_lines) else ""
        comment_only = raw[:column].strip() == ""
        sf.suppressions.append(
            Suppression(
                rule=m.group(1),
                justification=(m.group(2) or "").strip(),
                own_line=line_no,
                comment_only=comment_only,
            )
        )
    return sf


# --------------------------------------------------------------------------
# Rule implementations. Each yields Finding (line numbers 1-based).
# --------------------------------------------------------------------------

def check_no_raw_parse(sf: SourceFile) -> Iterable[Finding]:
    if sf.path in RAW_PARSE_ALLOWED:
        return
    for idx, line in enumerate(sf.code_lines, start=1):
        for m in RAW_PARSE_RE.finditer(line):
            yield Finding(
                sf.path, idx, RULE_NO_RAW_PARSE,
                f"call to '{m.group(1)}' outside util/parse — route untrusted "
                "tokens through radio::parse_u64/parse_int/parse_double/"
                "parse_bool (src/util/parse.hpp)",
            )


def check_no_global_rng(sf: SourceFile) -> Iterable[Finding]:
    if sf.path in GLOBAL_RNG_ALLOWED:
        return
    for idx, line in enumerate(sf.code_lines, start=1):
        for m in GLOBAL_RNG_RE.finditer(line):
            yield Finding(
                sf.path, idx, RULE_NO_GLOBAL_RNG,
                f"use of '{m.group(1)}' outside util/rng — derive randomness "
                "from radio::Rng::for_stream(seed, stream) so trials stay "
                "reproducible at any thread count",
            )


def _statement_tail(lines: list[str], start_idx: int, max_lines: int = 5) -> str:
    """Joins lines[start_idx:] (0-based) until a ';' closes the statement."""
    parts: list[str] = []
    for line in lines[start_idx: start_idx + max_lines]:
        parts.append(line)
        if ";" in line:
            break
    return " ".join(parts)


def _omp_region_bounds(code_lines: list[str], pragma_idx: int) -> tuple[int, int]:
    """Returns (first, last) 0-based line indices of the parallel region that
    the `#pragma omp ... parallel` on `pragma_idx` governs: scans forward for
    the first '{' and tracks brace depth until it closes. Falls back to the
    single following statement when the region is brace-less."""
    depth = 0
    seen_brace = False
    last = pragma_idx
    for j in range(pragma_idx + 1, min(len(code_lines), pragma_idx + 400)):
        line = code_lines[j]
        for ch in line:
            if ch == "{":
                depth += 1
                seen_brace = True
            elif ch == "}":
                depth -= 1
        last = j
        if seen_brace and depth <= 0:
            return (pragma_idx + 1, last)
        if not seen_brace and ";" in line:
            # brace-less `#pragma omp parallel for` over a single statement
            return (pragma_idx + 1, last)
    return (pragma_idx + 1, last)


def check_rng_stream_discipline(sf: SourceFile) -> Iterable[Finding]:
    lines = sf.code_lines
    for idx, line in enumerate(lines):
        if not OMP_PARALLEL_RE.search(line):
            continue
        first, last = _omp_region_bounds(lines, idx)
        for j in range(first, last + 1):
            if not RNG_CONSTRUCT_RE.search(lines[j]):
                continue
            stmt = _statement_tail(lines, j)
            if "for_stream" in stmt:
                continue
            yield Finding(
                sf.path, j + 1, RULE_RNG_STREAM,
                "Rng constructed inside an OpenMP parallel region without "
                "Rng::for_stream — per-trial streams are the only "
                "thread-count-independent way to draw randomness "
                "(src/analysis/trial_runner.hpp)",
            )


def check_no_wallclock(sf: SourceFile) -> Iterable[Finding]:
    if sf.path in WALLCLOCK_ALLOWED_FILES:
        return
    if any(sf.path.startswith(p) for p in WALLCLOCK_ALLOWED_PREFIXES):
        return
    for idx, line in enumerate(sf.code_lines, start=1):
        for m in WALLCLOCK_RE.finditer(line):
            name = m.group(1) or m.group(2)
            yield Finding(
                sf.path, idx, RULE_NO_WALLCLOCK,
                f"wall-clock read '{name}' outside bench/ — simulated time is "
                "round-counted; real time belongs to the bench harness and "
                "bench_runner provenance only",
            )


def check_kernel_files_exist(
        repo_root: str,
        kernel_files: Iterable[str] = KERNEL_FILES) -> list[Finding]:
    """Whole-tree half of no-iostream-in-kernel: an entry naming no file
    guards nothing, so a deleted or renamed kernel file would silently drop
    out of the rule. Reported at the entry's line in this script."""
    script = os.path.abspath(__file__)
    with open(script, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rel = os.path.relpath(script, repo_root).replace(os.sep, "/")
    findings = []
    for path in kernel_files:
        if os.path.isfile(os.path.join(repo_root, path)):
            continue
        line = next((i for i, text in enumerate(lines, start=1)
                     if f'"{path}",' in text), 1)
        findings.append(Finding(
            rel, line, RULE_NO_IOSTREAM,
            f"KERNEL_FILES entry '{path}' names no file in the tree — the "
            "rule guards nothing there; drop the entry or point it at the "
            "file's new path",
        ))
    return findings


def check_no_iostream_in_kernel(sf: SourceFile) -> Iterable[Finding]:
    if sf.path not in KERNEL_FILES:
        return
    for idx, line in enumerate(sf.code_lines, start=1):
        m = IOSTREAM_INCLUDE_RE.search(line)
        if m:
            yield Finding(
                sf.path, idx, RULE_NO_IOSTREAM,
                f"<{m.group(1)}> included in a hot kernel file — stream I/O "
                "in the dense-round/BFS path wrecks both codegen and "
                "cache behaviour; log from the caller instead",
            )
            continue
        m = IOSTREAM_CALL_RE.search(line)
        if m:
            name = m.group(1) or m.group(2)
            yield Finding(
                sf.path, idx, RULE_NO_IOSTREAM,
                f"stream I/O call '{name}' in a hot kernel file — return data "
                "and let the caller do the printing",
            )


def _loop_body_bounds(code_lines: list[str], for_idx: int) -> tuple[int, int]:
    """Bounds (0-based, inclusive) of a for statement's body starting at the
    line holding `for (`."""
    depth = 0
    seen_brace = False
    paren = 0
    seen_paren = False
    last = for_idx
    for j in range(for_idx, min(len(code_lines), for_idx + 200)):
        for ch in code_lines[j]:
            if ch == "(":
                paren += 1
                seen_paren = True
            elif ch == ")":
                paren -= 1
            elif ch == "{" and seen_paren and paren == 0:
                depth += 1
                seen_brace = True
            elif ch == "}" and seen_brace:
                depth -= 1
        last = j
        if seen_brace and depth <= 0:
            return (for_idx, last)
        if not seen_brace and seen_paren and paren == 0 and ";" in code_lines[j]:
            return (for_idx, last)
    return (for_idx, last)


def check_no_unordered_iteration_to_output(sf: SourceFile) -> Iterable[Finding]:
    lines = sf.code_lines
    unordered_vars = set()
    for line in lines:
        for m in UNORDERED_DECL_RE.finditer(line):
            unordered_vars.add(m.group(1))
    for idx, line in enumerate(lines):
        m = RANGED_FOR_RE.search(line)
        if m is None:
            continue
        header = _statement_tail(lines, idx, max_lines=3)
        colon = re.search(r"\bfor\s*\(([^;]*?):([^)]*)\)", header)
        if colon is None:
            continue  # classic for, not ranged
        range_expr = colon.group(2)
        iterates_unordered = "unordered_" in range_expr or any(
            re.search(rf"\b{re.escape(v)}\b", range_expr) for v in unordered_vars
        )
        if not iterates_unordered:
            continue
        first, last = _loop_body_bounds(lines, idx)
        body = " ".join(lines[first: last + 1])
        if OUTPUT_SINK_RE.search(body):
            yield Finding(
                sf.path, idx + 1, RULE_NO_UNORDERED_OUT,
                "ranged-for over an unordered container feeds an output sink "
                "— iteration order is implementation-defined, so results/CSV/"
                "JSON become nondeterministic; copy to a vector and sort "
                "first",
            )


def check_no_xor_seed_derivation(sf: SourceFile) -> Iterable[Finding]:
    if sf.path in XOR_SEED_ALLOWED:
        return
    for idx, line in enumerate(sf.code_lines, start=1):
        for m in XOR_OP_RE.finditer(line):
            before = IDENT_BEFORE_XOR_RE.search(line[: m.start()])
            after = IDENT_AFTER_XOR_RE.search(line[m.end():])
            names = [g.group(1) for g in (before, after) if g]
            seedy = [name for name in names if "seed" in name.lower()]
            if not seedy:
                continue
            yield Finding(
                sf.path, idx, RULE_NO_XOR_SEED,
                f"'{seedy[0]}' combined with '^' — XOR offsets collide "
                "(seed ^ a == seed ^ b whenever a and b share a mask), so "
                "rows silently reuse RNG streams; derive per-row seeds with "
                "derive_row_seed(seed, experiment, tag) and per-trial "
                "streams with Rng::for_stream (src/util/rng.hpp)",
            )
            break  # one finding per line is enough


def _call_args(lines: list[str], line_idx: int, open_col: int,
               max_lines: int = 8) -> list[tuple[str, int]]:
    """Splits the argument list of a call whose '(' sits at
    (``line_idx`` 0-based, ``open_col``) into top-level arguments. Returns
    ``[(arg_text, start_line_1based), ...]``; empty when the call never
    closes within `max_lines` (macro soup — skip it)."""
    args: list[tuple[str, int]] = []
    current: list[str] = []
    current_line = line_idx + 1
    depth = 0
    angle = 0  # template args: static_cast<std::uint64_t>(...)
    started = False
    for j in range(line_idx, min(len(lines), line_idx + max_lines)):
        line = lines[j]
        col = open_col if j == line_idx else 0
        while col < len(line):
            ch = line[col]
            if ch == "(":
                depth += 1
                if depth == 1:
                    started = True
                    current_line = j + 1
                    col += 1
                    continue
            elif ch == ")":
                depth -= 1
                if started and depth == 0:
                    text = "".join(current).strip()
                    if text or args:
                        args.append((text, current_line))
                    return args
            elif ch == "<":
                angle += 1
            elif ch == ">":
                angle = max(0, angle - 1)
            elif ch == "," and depth == 1 and angle == 0:
                args.append(("".join(current).strip(), current_line))
                current = []
                current_line = j + 1
                col += 1
                continue
            if started:
                if not current:
                    current_line = j + 1
                current.append(ch)
            col += 1
        if started and current:
            current.append(" ")
    return []


def check_stream_tag_registry(sf: SourceFile) -> Iterable[Finding]:
    if sf.path in STREAM_TAG_ALLOWED:
        return
    lines = sf.code_lines
    for idx, line in enumerate(lines):
        # (a) stream/tag constants defined outside the registry.
        m = TAG_CONSTANT_DEF_RE.search(line)
        if m:
            stmt = _statement_tail(lines, idx)
            if SHIFT_LITERAL_RE.search(stmt):
                yield Finding(
                    sf.path, idx + 1, RULE_STREAM_TAG,
                    f"stream/tag constant '{m.group(1)}' defined outside the "
                    "registry — register it in src/util/stream_tags.hpp so "
                    "its value is compile-checked against every other tag",
                )
        # (b) magic constants in the tag positions of the derivation calls.
        for call in STREAM_CALL_RE.finditer(line):
            fn = call.group(1)
            open_col = line.find("(", call.end() - 1)
            if open_col < 0:
                continue
            args = _call_args(lines, idx, open_col)
            for arg_text, arg_line in args[1:]:
                reason = None
                if INT_LITERAL_ARG_RE.match(arg_text):
                    reason = f"integer literal '{arg_text}'"
                elif SHIFT_LITERAL_RE.search(arg_text):
                    reason = f"shift-into-high-bits literal '{arg_text}'"
                elif ROW_TAG_LITERAL_RE.search(arg_text):
                    reason = "literal stable_row_tag(\"...\") string"
                if reason is None:
                    continue
                yield Finding(
                    sf.path, arg_line, RULE_STREAM_TAG,
                    f"{reason} as a stream/tag argument of {fn}() — register "
                    "a named constant in src/util/stream_tags.hpp (its "
                    "static_asserts prove the value collides with no other "
                    "registered tag)",
                )


RULE_CHECKS = {
    RULE_NO_RAW_PARSE: check_no_raw_parse,
    RULE_NO_GLOBAL_RNG: check_no_global_rng,
    RULE_RNG_STREAM: check_rng_stream_discipline,
    RULE_NO_WALLCLOCK: check_no_wallclock,
    RULE_NO_IOSTREAM: check_no_iostream_in_kernel,
    RULE_NO_UNORDERED_OUT: check_no_unordered_iteration_to_output,
    RULE_NO_XOR_SEED: check_no_xor_seed_derivation,
    RULE_STREAM_TAG: check_stream_tag_registry,
    # RULE_LAYER is a whole-tree pass, not a per-file check; see LayerMap.
}


# --------------------------------------------------------------------------
# layer-conformance: #include-graph conformance against scripts/layers.json
# --------------------------------------------------------------------------

@dataclass
class Layer:
    name: str
    paths: list[str]
    may_include: list[str]
    externals: list[str]


class LayerMap:
    """The machine-readable layer map (scripts/layers.json): named layers in
    dependency order, each with path prefixes, the lower layers it may
    include, and the external headers it may use. `may_include` is closed
    transitively — declaring the direct lower neighbours is enough."""

    def __init__(self, spec: dict, json_path: str):
        self.json_path = json_path
        self.roots: list[str] = spec.get("roots", ["src"])
        self.include_dirs: list[str] = spec.get("include_dirs", ["src"])
        self.exclude: list[str] = spec.get("exclude", [])
        groups: dict[str, list[str]] = spec.get("external_groups", {})
        self.layers: list[Layer] = []
        for entry in spec.get("layers", []):
            externals: list[str] = []
            for item in entry.get("externals", []):
                if item.startswith("@"):
                    if item[1:] not in groups:
                        raise SystemExit(
                            f"radio-lint: {json_path}: layer "
                            f"'{entry['name']}' references unknown external "
                            f"group '{item}'")
                    externals.extend(groups[item[1:]])
                else:
                    externals.append(item)
            self.layers.append(Layer(
                name=entry["name"],
                paths=entry.get("paths", []),
                may_include=entry.get("may_include", []),
                externals=externals,
            ))
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            raise SystemExit(f"radio-lint: {json_path}: duplicate layer name")
        by_name = {l.name: l for l in self.layers}
        for l in self.layers:
            for dep in l.may_include:
                if dep != "*" and dep not in by_name:
                    raise SystemExit(
                        f"radio-lint: {json_path}: layer '{l.name}' may_include "
                        f"unknown layer '{dep}'")
        # Transitive closure of may_include.
        self._reach: dict[str, set[str]] = {}
        for l in self.layers:
            if "*" in l.may_include:
                self._reach[l.name] = set(names)
                continue
            seen: set[str] = {l.name}
            frontier = list(l.may_include)
            while frontier:
                dep = frontier.pop()
                if dep in seen:
                    continue
                seen.add(dep)
                frontier.extend(by_name[dep].may_include)
            self._reach[l.name] = seen

    def layer_of(self, path: str) -> Layer | None:
        best: Layer | None = None
        best_len = -1
        for layer in self.layers:
            for p in layer.paths:
                if (path == p or (p.endswith("/") and path.startswith(p))) \
                        and len(p) > best_len:
                    best = layer
                    best_len = len(p)
        return best

    def reachable(self, frm: str, to: str) -> bool:
        return to in self._reach.get(frm, set())

    def external_allowed(self, layer: Layer, header: str) -> bool:
        return "*" in layer.externals or header in layer.externals


def load_layer_map(json_path: str) -> LayerMap:
    try:
        with open(json_path, encoding="utf-8") as fh:
            return LayerMap(json.load(fh), json_path)
    except (OSError, ValueError) as e:
        raise SystemExit(f"radio-lint: cannot read {json_path}: {e}")


def _layer_files(lm: LayerMap, repo_root: str) -> list[str]:
    files = files_from_roots(lm.roots, repo_root)
    return sorted(
        f for f in set(files)
        if not any(f == e or (e.endswith("/") and f.startswith(e))
                   for e in lm.exclude)
    )


def _resolve_include(inc: str, including: str, repo_root: str,
                     include_dirs: Iterable[str]) -> str | None:
    """Repo-relative path of the included header, or None when external."""
    candidates = [os.path.join(os.path.dirname(including), inc)]
    candidates += [os.path.join(d, inc) if d != "." else inc
                   for d in include_dirs]
    for cand in candidates:
        cand = os.path.normpath(cand).replace(os.sep, "/")
        if os.path.isfile(os.path.join(repo_root, cand)):
            return cand
    return None


def check_layer_conformance(
        lm: LayerMap, repo_root: str,
        sources: dict[str, SourceFile]) -> dict[str, list[Finding]]:
    """The whole-tree pass: walks the layers.json roots, extracts the
    #include graph, and reports (a) includes of layers not reachable from the
    includer's layer, (b) external headers the layer does not declare, and
    (c) include cycles, each with the full offending chain. Returns findings
    grouped by path so per-file suppressions can be applied."""
    findings: dict[str, list[Finding]] = {}
    # path -> list of (target_path, line_no) project-include edges
    edges: dict[str, list[tuple[str, int]]] = {}

    def get_source(path: str) -> SourceFile:
        if path not in sources:
            sources[path] = load_source(path, repo_root)
        return sources[path]

    files = _layer_files(lm, repo_root)
    for path in files:
        sf = get_source(path)
        layer = lm.layer_of(path)
        if layer is None:
            findings.setdefault(path, []).append(Finding(
                path, 1, RULE_LAYER,
                f"file matches no layer in {os.path.relpath(lm.json_path, repo_root)}"
                " — declare its directory in a layer's 'paths'",
            ))
            continue
        file_edges: list[tuple[str, int]] = []
        for idx, line in enumerate(sf.code_lines, start=1):
            if not INCLUDE_DETECT_RE.search(line):
                continue
            m = INCLUDE_RE.search(sf.raw_lines[idx - 1]) \
                if idx - 1 < len(sf.raw_lines) else None
            if not m:
                continue
            inc = m.group(1) or m.group(2)
            target = _resolve_include(inc, path, repo_root, lm.include_dirs)
            if target is None:
                if not lm.external_allowed(layer, inc):
                    allowed = ", ".join(sorted(layer.externals)) or "(none)"
                    findings.setdefault(path, []).append(Finding(
                        path, idx, RULE_LAYER,
                        f"external header <{inc}> is not declared for layer "
                        f"'{layer.name}' (allowed: {allowed}) — add it to "
                        "that layer's externals in scripts/layers.json or "
                        "drop the dependency",
                    ))
                continue
            file_edges.append((target, idx))
            target_layer = lm.layer_of(target)
            if target_layer is None:
                continue  # the target reports itself as unmapped
            if target_layer.name == layer.name:
                continue
            if not lm.reachable(layer.name, target_layer.name):
                reach = sorted(lm._reach.get(layer.name, set()) - {layer.name})
                findings.setdefault(path, []).append(Finding(
                    path, idx, RULE_LAYER,
                    f"'{path}' (layer {layer.name}) includes '{target}' "
                    f"(layer {target_layer.name}) — an upward or "
                    "cross-subsystem dependency; a layer may only include "
                    f"{{{', '.join(reach) or 'nothing'}}}. Move the shared "
                    "declaration down a layer or invert the dependency "
                    "(chain: " + path + " -> " + target + ")",
                ))
        edges[path] = file_edges

    # Include cycles: DFS over the project-include graph; every distinct
    # cycle is reported once, anchored at its lexicographically smallest
    # member, with the full chain.
    seen_cycles: set[tuple[str, ...]] = set()
    WHITE, GREY, BLACK = 0, 1, 2
    color: dict[str, int] = {}
    stack: list[str] = []

    def dfs(u: str) -> None:
        color[u] = GREY
        stack.append(u)
        for v, _line in edges.get(u, ()):
            if color.get(v, WHITE) == GREY:
                cycle = stack[stack.index(v):]
                pivot = min(range(len(cycle)), key=lambda k: cycle[k])
                canon = tuple(cycle[pivot:] + cycle[:pivot])
                if canon in seen_cycles:
                    continue
                seen_cycles.add(canon)
                first = canon[0]
                nxt = canon[1] if len(canon) > 1 else canon[0]
                line = next((l for t, l in edges.get(first, ()) if t == nxt), 1)
                chain = " -> ".join(canon + (canon[0],))
                findings.setdefault(first, []).append(Finding(
                    first, line, RULE_LAYER,
                    f"include cycle: {chain} — break it by moving the shared "
                    "declarations into a header below both files",
                ))
            elif color.get(v, WHITE) == WHITE:
                dfs(v)
        stack.pop()
        color[u] = BLACK

    for path in files:
        if color.get(path, WHITE) == WHITE:
            dfs(path)
    return findings


# --------------------------------------------------------------------------
# Suppression application
# --------------------------------------------------------------------------

def apply_suppressions(sf: SourceFile, findings: list[Finding]) -> list[Finding]:
    """Drops findings covered by a justified allow() on the same line or on a
    comment-only line directly above. Unjustified or unused suppressions are
    themselves findings."""
    kept: list[Finding] = []
    for f in findings:
        covered = None
        for s in sf.suppressions:
            if s.rule != f.rule:
                continue
            if s.own_line == f.line or (s.comment_only and s.own_line == f.line - 1):
                covered = s
                break
        if covered is None:
            kept.append(f)
        elif not covered.justification:
            covered.used = True
            kept.append(
                Finding(
                    sf.path, covered.own_line, f.rule,
                    f"suppression of '{f.rule}' is missing a justification — "
                    "write `// radio-lint: allow(" + f.rule + ") -- <why>`",
                )
            )
        else:
            covered.used = True
    for s in sf.suppressions:
        if s.rule not in ALL_RULES:
            kept.append(
                Finding(
                    sf.path, s.own_line, "unknown-rule",
                    f"allow() names unknown rule '{s.rule}' — known rules: "
                    + ", ".join(ALL_RULES),
                )
            )
        elif not s.used:
            kept.append(
                Finding(
                    sf.path, s.own_line, "unused-suppression",
                    f"allow({s.rule}) suppresses nothing on this or the next "
                    "line — delete it or move it next to the violation",
                )
            )
    return kept


def collect_rule_findings(sf: SourceFile,
                          rules: Iterable[str] = ALL_RULES) -> list[Finding]:
    findings: list[Finding] = []
    for rule in rules:
        if rule in RULE_CHECKS:
            findings.extend(RULE_CHECKS[rule](sf))
    return findings


def scan_file(sf: SourceFile, rules: Iterable[str] = ALL_RULES,
              extra: Iterable[Finding] = ()) -> list[Finding]:
    findings = collect_rule_findings(sf, rules)
    findings.extend(extra)
    findings.sort(key=lambda f: (f.line, f.rule))
    return apply_suppressions(sf, findings)


# --------------------------------------------------------------------------
# File discovery
# --------------------------------------------------------------------------

def files_from_compile_commands(cc_path: str, repo_root: str) -> list[str]:
    try:
        with open(cc_path, encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, ValueError) as e:
        raise SystemExit(f"radio-lint: cannot read {cc_path}: {e}")
    result = []
    root = os.path.realpath(repo_root)
    for entry in entries:
        f = entry.get("file", "")
        if not os.path.isabs(f):
            f = os.path.join(entry.get("directory", ""), f)
        f = os.path.realpath(f)
        if not f.startswith(root + os.sep):
            continue
        rel = os.path.relpath(f, root).replace(os.sep, "/")
        if rel.startswith(("build", "tests/")):
            continue
        result.append(rel)
    return result


def files_from_roots(roots: Iterable[str], repo_root: str) -> list[str]:
    result = []
    for r in roots:
        base = os.path.join(repo_root, r)
        if os.path.isfile(base):
            result.append(os.path.relpath(base, repo_root).replace(os.sep, "/"))
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            for name in filenames:
                if name.endswith(CPP_EXTENSIONS):
                    rel = os.path.relpath(
                        os.path.join(dirpath, name), repo_root
                    ).replace(os.sep, "/")
                    result.append(rel)
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="radio-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        help="files or directories to scan "
                             "(default: src bench examples)")
    parser.add_argument("--compile-commands", metavar="JSON",
                        help="compile_commands.json to union with the scan "
                             "roots (default: build/compile_commands.json "
                             "when present and no explicit paths were given)")
    parser.add_argument("--rule", action="append", choices=ALL_RULES,
                        help="check only this rule (repeatable)")
    parser.add_argument("--layers", metavar="JSON",
                        help="layer map for layer-conformance (default: "
                             "scripts/layers.json under the repo root)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule names and exit")
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of scripts/)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(rule)
        return 0

    repo_root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    roots = args.paths or ["src", "bench", "examples"]
    files = set(files_from_roots(roots, repo_root))

    cc = args.compile_commands
    if cc is None and not args.paths:
        default_cc = os.path.join(repo_root, "build", "compile_commands.json")
        if os.path.isfile(default_cc):
            cc = default_cc
    if cc:
        files.update(files_from_compile_commands(cc, repo_root))

    rules = tuple(args.rule) if args.rule else ALL_RULES

    # The layer-conformance pass always needs the full include graph, so it
    # walks the layers.json roots — it runs on a default invocation (no
    # explicit paths) or when asked for by name, and silently skips when the
    # repo has no layer map unless it was asked for by name.
    sources: dict[str, SourceFile] = {}
    tree_findings: dict[str, list[Finding]] = {}
    if RULE_LAYER in rules and (not args.paths or (args.rule and
                                                   RULE_LAYER in args.rule)):
        layers_path = args.layers or os.path.join(
            repo_root, "scripts", "layers.json")
        if os.path.isfile(layers_path):
            lm = load_layer_map(layers_path)
            tree_findings = check_layer_conformance(lm, repo_root, sources)
        elif args.rule and RULE_LAYER in args.rule:
            print(f"radio-lint: no layer map at {layers_path}", file=sys.stderr)
            return 2

    findings: list[Finding] = []
    per_file_rules = tuple(r for r in rules if r in RULE_CHECKS)
    for path in sorted(files | set(tree_findings)):
        abs_path = os.path.join(repo_root, path)
        if not os.path.isfile(abs_path):
            print(f"radio-lint: no such file: {path}", file=sys.stderr)
            return 2
        if path not in sources:
            sources[path] = load_source(path, repo_root)
        scan_rules = per_file_rules if path in files else ()
        findings.extend(scan_file(sources[path], scan_rules,
                                  extra=tree_findings.get(path, ())))
    if RULE_NO_IOSTREAM in rules and not args.paths:
        findings.extend(check_kernel_files_exist(repo_root))

    for f in findings:
        print(f.render())
    if findings:
        print(f"radio-lint: {len(findings)} violation(s) in "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
