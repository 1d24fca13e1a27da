#!/usr/bin/env python3
"""Project-rule analyzer for the reldiv tree.

The one rule engine for src/: the project contracts stated in DESIGN.md
§8–§13 — rules that need cross-file knowledge (the failpoint catalog),
receiver resolution (which object a `->Read(...)` lands on), or a curated
allowlist with written rationale — and the syntactic hygiene checks
clang-tidy cannot express. Rules:

  physical-op-charge   every SimDisk / BufferManager / Interconnect
                       physical-op call site (Read/Write/Seek, Fix,
                       Ship/Broadcast) must charge Table 1 counters or be
                       explicitly allowlisted below with a rationale
                       saying WHERE the charge happens. A new call site
                       is a finding until its accounting story is
                       written down (Graefe §4, Table 1 methodology).
  kernel-purity        src/exec/kernels/ never references CpuCounters,
                       DiskStats, or ExecContext, never includes the
                       counter/context/storage/operator headers, and never
                       calls NextBatch. Kernels are pure data-in/data-out
                       loops over plain arrays, below the operator tree;
                       the CALLER charges Table 1 (DESIGN.md §12).
  mutex-guarded-by     every mutex member uses the annotated capability
                       types (reldiv::Mutex / RecursiveMutex from
                       common/mutex.h — a raw std::mutex is invisible to
                       Clang's thread-safety analysis) and is referenced
                       by at least one GUARDED_BY / PT_GUARDED_BY /
                       REQUIRES in the same file. A mutex guarding
                       nothing is either dead or — worse — guarding
                       something silently.
  failpoint-site       every RELDIV_FAILPOINT("...") site literal must be
                       listed in kFailpointSites (testing/failpoint.h):
                       an unlisted site can be armed by name yet silently
                       never fire after a typo or a rename.
  failpoint-coverage   the files wired for fault injection (DESIGN.md
                       §10.1) must keep their registered sites.
  raw-thread           std::thread / pthread_create outside
                       exec/scheduler.{h,cc}: all intra-node parallelism
                       goes through TaskScheduler::ParallelFor
                       (DESIGN.md §11).
  naked-new            new/delete expressions in src/; the codebase is
                       RAII throughout.
  telemetry-names      every MetricRegistry::FindOrCreate{Counter,Gauge,
                       Histogram} registration site must pass a constant
                       from common/metric_names.h as the metric name, not
                       a raw string literal. A literal bypasses the single
                       source of truth the exporters and
                       tools/bench_report.py validate against, so a typo
                       silently forks a new time series.
  replan-flight-log    every file that bumps the re-plan metric family
                       (metric_names::kReplansTotal) must also record the
                       decision in the flight ring
                       (EventLog::Flight().Record), and the adaptive
                       planner keeps both. A re-plan that only shows up as
                       a counter is undiagnosable post-mortem: the metric
                       says HOW OFTEN, only the flight event says WHICH
                       query, WHICH trigger, WHEN (DESIGN.md §15).
  qcache-version-sync  every file that counts a quotient-cache
                       invalidation (metric_names::
                       kQcacheInvalidationsTotal) must also re-stamp the
                       entry's synced store versions (SyncVersions), and
                       the cache itself keeps both. An invalidation that
                       rebuilds without re-stamping leaves the entry
                       permanently behind the stores' version counters,
                       so every later lookup re-counts an invalidation
                       and rebuilds — a silent cache-off failure the
                       metric alone cannot distinguish from honest churn
                       (DESIGN.md §16).
  bare-assert          `assert(...)` — use RELDIV_CHECK / RELDIV_DCHECK
                       (common/check.h) so the intent survives NDEBUG
                       builds deliberately. static_assert is fine.
  include-guard        every header must open with the canonical
                       `RELDIV_<DIR>_<FILE>_H_` guard (#ifndef + #define).
  no-rand              `rand()` / `srand()` / `std::rand` — experiments must
                       be reproducible; use common/rng.h (deterministic
                       xorshift128+) instead.
  batch-overrides      a header class overriding `NextBatch` must also
                       override `Open` and `Close`: its stream carries
                       state that Open must reset and Close must release
                       (see exec/operator.h).
  tuple-lane           no `Next(Tuple*, bool*)` declaration in src/ other
                       than the leftover base one on class Operator in
                       exec/operator.h: NextBatch is the one pull, and a
                       per-tuple producer keeps its step private and fills
                       batches with FillBatch (DESIGN.md §6).

Suppression syntax (modeled on clang-tidy triage): a finding is silenced
by `NOLINT(reldiv/<rule>): <rationale>` on the same line, or
`NOLINTNEXTLINE(reldiv/<rule>): <rationale>` on the line above. The
rationale is REQUIRED — a bare marker is itself reported
(suppression-rationale) so that every exception to a contract carries its
justification in the diff that introduces it.

A baseline file (tools/analyze_baseline.json, ships empty) absorbs
pre-existing findings when a new rule lands against an old tree;
--update-baseline rewrites it. Baselined findings are reported as
suppressed, and stale entries are flagged so the file only shrinks.

Backends: with python-clang (libclang) installed, mutex declarations and
physical-op call sites are resolved from the AST (receiver *types*, not
receiver spellings). Without it — the common case in CI images — a
tokenizer backend applies the same rules using receiver-name heuristics.
`--backend` forces one; `auto` picks libclang when importable and
degrades silently.

Usage: tools/analyze.py [--root DIR] [--backend auto|tokenizer|libclang]
                        [--baseline FILE] [--update-baseline]
Exit status: 0 when clean (suppressed/baselined findings allowed),
1 when any unsuppressed finding is reported.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

SOURCE_DIRS = ("src",)
SOURCE_SUFFIXES = (".h", ".cc")

RULES = (
    "physical-op-charge",
    "kernel-purity",
    "mutex-guarded-by",
    "failpoint-site",
    "failpoint-coverage",
    "raw-thread",
    "naked-new",
    "telemetry-names",
    "replan-flight-log",
    "qcache-version-sync",
    "bare-assert",
    "include-guard",
    "no-rand",
    "batch-overrides",
    "tuple-lane",
    "suppression-rationale",
)

# NOLINT(reldiv/<rule>): <rationale>  /  NOLINTNEXTLINE(reldiv/<rule>): ...
SUPPRESS_RE = re.compile(
    r"NOLINT(NEXTLINE)?\(reldiv/([a-z-]+)\)(?::[ \t]*(\S[^\n]*))?")


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and string/char literals so rules do not fire
    on prose or examples. (Block comments are handled per-file.)"""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in ("\"", "'"):
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            out.append(quote + quote)
        else:
            out.append(c)
        i += 1
    return "".join(out)


def mask_block_comments(text: str) -> str:
    """Blanks /* ... */ regions (keeps newlines so line numbers hold)."""

    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    return re.sub(r"/\*.*?\*/", blank, text, flags=re.DOTALL)


@dataclasses.dataclass(frozen=True)
class Finding:
    rule: str
    file: str  # repo-relative, forward slashes
    lineno: int
    message: str
    key: str  # content key for baseline matching (line drift tolerant)

    def __str__(self) -> str:
        return f"{self.file}:{self.lineno}: [{self.rule}] {self.message}"

    def baseline_entry(self) -> dict:
        return {"rule": self.rule, "file": self.file, "key": self.key}


# ---------------------------------------------------------------------------
# physical-op-charge allowlist: (file, method) -> where the Table 1 charge
# happens. Every entry is a claim the reviewer of this file has verified;
# a new call site must either charge counters or extend this table.
# ---------------------------------------------------------------------------

PHYSICAL_OP_ALLOWLIST: dict[tuple[str, str], str] = {
    ("src/exec/sort.cc", "Write"):
        "run spill: SimDisk::Write self-accounts DiskStats (seeks, sector "
        "reads/writes, transfer time) under its own mutex",
    ("src/exec/sort.cc", "Read"):
        "merge fan-in: SimDisk::Read self-accounts DiskStats under its own "
        "mutex",
    ("src/storage/buffer_manager.cc", "Write"):
        "WriteBack: SimDisk self-accounts DiskStats; BufferStats.writebacks "
        "charged at the same REQUIRES(mu_) site",
    ("src/storage/buffer_manager.cc", "Read"):
        "ReadIn: SimDisk self-accounts DiskStats; BufferStats.misses charged "
        "by the Fix path that called ReadIn",
    ("src/storage/record_file.cc", "Fix"):
        "BufferManager::Fix self-accounts BufferStats (fixes/hits/misses) "
        "under its recursive mutex; disk reads on a miss land in DiskStats "
        "via ReadIn",
    ("src/storage/btree.cc", "Fix"):
        "same as record_file.cc: BufferManager::Fix self-accounts "
        "BufferStats; misses reach DiskStats via ReadIn",
    ("src/parallel/parallel_hash_division.cc", "Ship"):
        "Interconnect::TrySend self-accounts NetworkStats (messages, bytes, "
        "per-link matrix) before the receive failpoint",
    ("src/parallel/parallel_hash_division.cc", "Broadcast"):
        "Broadcast fans out through TrySend, which self-accounts "
        "NetworkStats per wire message",
}

# mutex-guarded-by: files allowed to hold raw std::mutex members.
STD_MUTEX_ALLOWLIST: dict[str, str] = {
    "src/common/mutex.h":
        "the capability wrapper itself owns the raw std::mutex; everything "
        "else must go through reldiv::Mutex so Clang can track the lock set",
}

# raw-thread: the one component allowed to own threads, with the reason.
RAW_THREAD_ALLOWLIST: dict[str, str] = {
    "src/exec/scheduler.h":
        "TaskScheduler owns the worker pool; DESIGN.md §11",
    "src/exec/scheduler.cc":
        "TaskScheduler owns the worker pool; DESIGN.md §11",
}

# failpoint-coverage: fault-injection wiring (DESIGN.md §10.1) that must
# keep its registered sites.
FAILPOINT_COVERAGE = {
    "src/storage/disk.cc": ("sim_disk/read", "sim_disk/write",
                            "sim_disk/seek"),
    "src/storage/buffer_manager.cc": ("buffer/fix",),
    "src/storage/memory_manager.cc": ("memory/reserve",),
    "src/storage/virtual_device.cc": ("virtual_device/append",),
    "src/storage/record_file.cc": ("extent_file/append",),
    "src/parallel/network.cc": ("network/send", "network/recv"),
}

# replan-flight-log: re-plan decision points (DESIGN.md §15). Files that
# must keep BOTH the metric bump and the flight-ring record.
REPLAN_FLIGHT_COVERAGE = ("src/planner/adaptive.cc",)
REPLAN_METRIC_RE = re.compile(r"\bmetric_names::kReplansTotal\b")
REPLAN_RECORDER_RE = re.compile(r"\bEventLog::Flight\(\)\s*\.\s*Record\b")

# qcache-version-sync: quotient-cache invalidation points (DESIGN.md §16).
# Files that count an invalidation must also re-stamp the entry's synced
# store versions, or the rebuilt entry stays permanently stale.
QCACHE_SYNC_COVERAGE = ("src/service/quotient_cache.cc",)
QCACHE_METRIC_RE = re.compile(r"\bmetric_names::kQcacheInvalidationsTotal\b")
QCACHE_SYNC_RE = re.compile(r"\bSyncVersions\s*\(")

FAILPOINT_USE_RE = re.compile(r'RELDIV_FAILPOINT(?:_DENIED)?\s*\(\s*"([^"]+)"')
FAILPOINT_CATALOG_RE = re.compile(r"kFailpointSites\[\]\s*=\s*\{(.*?)\};",
                                  re.DOTALL)


# ---------------------------------------------------------------------------
# Backends: discover mutex declarations and physical-op call sites.
# ---------------------------------------------------------------------------

PHYSICAL_METHODS = {
    # method -> (receiver classes for the AST backend,
    #            receiver-name substrings for the tokenizer backend)
    "Read": (("SimDisk",), ("disk",)),
    "Write": (("SimDisk",), ("disk",)),
    "Seek": (("SimDisk",), ("disk",)),
    "Fix": (("BufferManager",), ("buffer_manager", "bm")),
    "Ship": (("Interconnect",), ("interconnect", "net")),
    "Broadcast": (("Interconnect",), ("interconnect", "net")),
}

PHYS_CALL_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:->|\.)\s*(" + "|".join(PHYSICAL_METHODS) +
    r")\s*\(")

MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:reldiv::)?(Mutex|RecursiveMutex)\s+"
    r"([A-Za-z_]\w*)\s*;")
STD_MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?std::(?:recursive_|shared_|timed_)*mutex\s+"
    r"([A-Za-z_]\w*)")


class TokenizerBackend:
    """Receiver-name heuristics over comment-stripped source lines. No
    compiler needed; this is the backend CI images actually run."""

    name = "tokenizer"

    def physical_ops(self, path: Path, lines: list[str]):
        """Yields (lineno, method) for physical-op call sites."""
        for lineno, line in enumerate(lines, start=1):
            for receiver, method in PHYS_CALL_RE.findall(line):
                needles = PHYSICAL_METHODS[method][1]
                base = receiver.lower().rstrip("_")
                if any(n in base for n in needles) or base in ("bm",):
                    yield lineno, method

    def mutex_decls(self, path: Path, lines: list[str]):
        """Yields (lineno, kind, name); kind is 'capability' or 'std'."""
        for lineno, line in enumerate(lines, start=1):
            m = MUTEX_DECL_RE.match(line)
            if m:
                yield lineno, "capability", m.group(2)
                continue
            m = STD_MUTEX_DECL_RE.match(line)
            if m:
                yield lineno, "std", m.group(1)


class LibclangBackend:
    """AST-backed site discovery: receiver *types* for physical ops and
    real field declarations for mutexes. Falls back per-file to the
    tokenizer on any parse failure, so a broken libclang install can
    never hide findings."""

    name = "libclang"

    def __init__(self, root: Path):
        import clang.cindex as cindex  # raises ImportError when absent
        self._cindex = cindex
        self._index = cindex.Index.create()  # raises when libclang.so absent
        self._root = root
        self._fallback = TokenizerBackend()
        self._args = ["-std=c++20", "-xc++", f"-I{root / 'src'}"]

    def _parse(self, path: Path):
        tu = self._index.parse(str(path), args=self._args)
        return tu

    def physical_ops(self, path: Path, lines: list[str]):
        try:
            tu = self._parse(path)
            kind = self._cindex.CursorKind
            out = []
            for cur in tu.cursor.walk_preorder():
                if cur.kind != kind.CALL_EXPR:
                    continue
                if cur.spelling not in PHYSICAL_METHODS:
                    continue
                ref = cur.referenced
                cls = ref.semantic_parent.spelling if ref is not None else ""
                if cls in PHYSICAL_METHODS[cur.spelling][0] and \
                        Path(cur.location.file.name).resolve() == path:
                    out.append((cur.location.line, cur.spelling))
            return out
        except Exception:  # noqa: BLE001 — degrade, never hide findings
            return list(self._fallback.physical_ops(path, lines))

    def mutex_decls(self, path: Path, lines: list[str]):
        try:
            tu = self._parse(path)
            kind = self._cindex.CursorKind
            out = []
            for cur in tu.cursor.walk_preorder():
                if cur.kind not in (kind.FIELD_DECL, kind.VAR_DECL):
                    continue
                if cur.location.file is None or \
                        Path(cur.location.file.name).resolve() != path:
                    continue
                spelling = cur.type.spelling
                if re.search(r"\bstd::(recursive_|shared_|timed_)*mutex$",
                             spelling):
                    out.append((cur.location.line, "std", cur.spelling))
                elif re.search(r"\b(reldiv::)?(Recursive)?Mutex$", spelling):
                    out.append((cur.location.line, "capability",
                                cur.spelling))
            return out
        except Exception:  # noqa: BLE001
            return list(self._fallback.mutex_decls(path, lines))


def make_backend(choice: str, root: Path):
    if choice in ("auto", "libclang"):
        try:
            return LibclangBackend(root)
        except Exception as exc:  # noqa: BLE001 — ImportError, missing .so
            if choice == "libclang":
                raise SystemExit(f"analyze.py: libclang unavailable: {exc}")
    return TokenizerBackend()


# ---------------------------------------------------------------------------
# Analyzer
# ---------------------------------------------------------------------------

class Analyzer:
    def __init__(self, root: Path, backend="auto", baseline_path=None,
                 rules=None):
        """`rules` restricts reporting to a subset of RULES (None = all);
        suppression-rationale is implicitly active for enabled rules."""
        self.root = root
        self.backend = (backend if not isinstance(backend, str)
                        else make_backend(backend, root))
        self.rules = frozenset(rules) if rules else frozenset(RULES)
        self.baseline_path = (Path(baseline_path) if baseline_path
                              else root / "tools" / "analyze_baseline.json")
        self.findings: list[Finding] = []
        self.suppressed = 0
        self.baselined = 0
        self.stale_baseline: list[dict] = []

    # -- infrastructure ----------------------------------------------------

    def relpath(self, path: Path) -> str:
        return path.relative_to(self.root).as_posix()

    def _suppressions(self, raw_lines: list[str]) -> list[dict[str, str]]:
        """Per-line map rule -> rationale ('' when the marker is bare)."""
        per_line: list[dict[str, str]] = [dict() for _ in raw_lines]
        for idx, raw in enumerate(raw_lines):
            for nextline, rule, rationale in SUPPRESS_RE.findall(raw):
                target = idx + 1 if nextline else idx
                if target < len(per_line):
                    per_line[target][rule] = (rationale or "").strip()
        return per_line

    def report(self, path: Path, lineno: int, rule: str, message: str,
               raw_lines: list[str], suppressions) -> None:
        if rule not in self.rules:
            return
        rel = self.relpath(path)
        raw = raw_lines[lineno - 1] if 0 < lineno <= len(raw_lines) else ""
        key = strip_comments_and_strings(raw).strip()[:96]
        sup = suppressions[lineno - 1] if 0 < lineno <= len(suppressions) \
            else {}
        if rule in sup:
            if sup[rule]:
                self.suppressed += 1
                return
            # A bare marker silences nothing: the original finding stands
            # AND the missing rationale is reported.
            self.findings.append(Finding(
                "suppression-rationale", rel, lineno,
                f"NOLINT(reldiv/{rule}) without a rationale; write "
                f"`NOLINT(reldiv/{rule}): <why this site is exempt>`",
                key))
        self.findings.append(Finding(rule, rel, lineno, message, key))

    # -- rules -------------------------------------------------------------

    def check_physical_ops(self, path: Path, raw_lines, lines, sup):
        rel = self.relpath(path)
        for lineno, method in self.backend.physical_ops(path, lines):
            entry = PHYSICAL_OP_ALLOWLIST.get((rel, method))
            if entry is not None:
                continue
            self.report(
                path, lineno, "physical-op-charge",
                f"physical-op call `{method}` outside the accounting "
                "allowlist; charge Table 1 counters here or add "
                "(file, method) to PHYSICAL_OP_ALLOWLIST in "
                "tools/analyze.py with a rationale saying where the "
                "charge happens", raw_lines, sup)

    KERNEL_TOKEN_RE = re.compile(r"\b(CpuCounters|DiskStats|ExecContext)\b")
    KERNEL_INCLUDE_RE = re.compile(
        r'#\s*include\s+"(common/counters\.h|exec/exec_context\.h|'
        r'exec/operator\.h|storage/|obs/)')
    KERNEL_NEXTBATCH_RE = re.compile(r"(?:\.|->)\s*NextBatch\s*\(")

    def check_kernel_purity(self, path: Path, raw_lines, lines, sup):
        if not self.relpath(path).startswith("src/exec/kernels/"):
            return
        for lineno, line in enumerate(lines, start=1):
            m = self.KERNEL_TOKEN_RE.search(line)
            if m:
                self.report(
                    path, lineno, "kernel-purity",
                    f"kernel references {m.group(1)}; kernels are pure "
                    "compute — the CALLER charges Table 1 counters "
                    "(DESIGN.md §12)", raw_lines, sup)
            m = self.KERNEL_INCLUDE_RE.search(raw_lines[lineno - 1])
            if m:
                self.report(
                    path, lineno, "kernel-purity",
                    f"kernel includes \"{m.group(1)}...\"; the kernel layer "
                    "must stay linkable without counters, contexts, "
                    "operators, or storage (DESIGN.md §12)", raw_lines, sup)
            if self.KERNEL_NEXTBATCH_RE.search(line):
                self.report(
                    path, lineno, "kernel-purity",
                    "NextBatch call inside the kernel layer; kernels sit "
                    "below the operator tree and take plain arrays, never "
                    "Operators (DESIGN.md §12)", raw_lines, sup)

    GUARD_REF_RE = r"(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES(?:_SHARED)?)\s*\(\s*{}\s*\)"

    def check_mutex_guarded(self, path: Path, raw_lines, lines, sup, text):
        rel = self.relpath(path)
        for lineno, kind, name in self.backend.mutex_decls(path, lines):
            if kind == "std":
                if rel in STD_MUTEX_ALLOWLIST:
                    continue
                self.report(
                    path, lineno, "mutex-guarded-by",
                    f"raw std::mutex `{name}` is invisible to Clang "
                    "thread-safety analysis; declare a reldiv::Mutex or "
                    "RecursiveMutex (common/mutex.h)", raw_lines, sup)
                continue
            ref = re.compile(self.GUARD_REF_RE.format(re.escape(name)))
            if not ref.search(text):
                self.report(
                    path, lineno, "mutex-guarded-by",
                    f"mutex `{name}` has no GUARDED_BY/REQUIRES reference "
                    "in this file; annotate the data it protects or "
                    "suppress with the reason it guards a region, not "
                    "members", raw_lines, sup)

    RAW_THREAD_RE = re.compile(r"\bstd::thread\b|\bpthread_create\b")

    def check_raw_thread(self, path: Path, raw_lines, lines, sup):
        if self.relpath(path) in RAW_THREAD_ALLOWLIST:
            return
        for lineno, line in enumerate(lines, start=1):
            if self.RAW_THREAD_RE.search(line):
                self.report(
                    path, lineno, "raw-thread",
                    "raw thread outside exec/scheduler; use "
                    "TaskScheduler::ParallelFor so dop, error propagation, "
                    "and counter merging stay deterministic (DESIGN.md §11)",
                    raw_lines, sup)

    NEW_RE = re.compile(r"(?<![_\w.])new\b(?!\s*\()")  # `new (addr)` = placement
    DELETE_RE = re.compile(r"(?<![_\w.])delete\b(?!\s*;)")

    def check_naked_new(self, path: Path, raw_lines, lines, sup):
        for lineno, line in enumerate(lines, start=1):
            if self.NEW_RE.search(line):
                self.report(
                    path, lineno, "naked-new",
                    "naked new; use make_unique/arena or suppress with the "
                    "reason ownership is deliberate here", raw_lines, sup)
            # `= delete;` (deleted members) is idiomatic and allowed.
            if self.DELETE_RE.search(re.sub(r"=\s*delete\b", "", line)):
                self.report(
                    path, lineno, "naked-new",
                    "naked delete; owning raw pointers are not used in this "
                    "codebase", raw_lines, sup)

    # First argument of a FindOrCreate* call is a raw string literal. \s*
    # spans newlines so a call wrapped by the formatter is still caught.
    TELEMETRY_LITERAL_RE = re.compile(
        r'FindOrCreate(Counter|Gauge|Histogram)\s*\(\s*"')

    def check_telemetry_names(self, path: Path, raw_lines, sup, raw):
        for match in self.TELEMETRY_LITERAL_RE.finditer(raw):
            lineno = raw.count("\n", 0, match.start()) + 1
            self.report(
                path, lineno, "telemetry-names",
                f"FindOrCreate{match.group(1)} called with a raw string "
                "literal; pass a constant from common/metric_names.h so the "
                "name stays in the schema the exporters and "
                "tools/bench_report.py validate", raw_lines, sup)

    def check_replan_flight_log(self, path: Path, raw_lines, lines, sup,
                                text):
        """A file that increments the re-plan counter without a flight
        event produces metrics no post-mortem can explain; the coverage
        half (check_replan_coverage) keeps the known wiring intact."""
        if not REPLAN_METRIC_RE.search(text):
            return
        if REPLAN_RECORDER_RE.search(text):
            return
        for lineno, line in enumerate(lines, start=1):
            if REPLAN_METRIC_RE.search(line):
                self.report(
                    path, lineno, "replan-flight-log",
                    "this file bumps metric_names::kReplansTotal but never "
                    "calls EventLog::Flight().Record; every re-plan "
                    "decision point must leave a flight event naming the "
                    "trigger and transition (DESIGN.md §15)",
                    raw_lines, sup)
                return

    def check_qcache_version_sync(self, path: Path, raw_lines, lines, sup,
                                  text):
        """A file that counts a quotient-cache invalidation without
        re-stamping the synced versions rebuilds into a permanently stale
        entry: every later lookup mismatches again, counts again, and
        rebuilds again. The coverage half (check_qcache_coverage) keeps
        the known wiring intact."""
        if not QCACHE_METRIC_RE.search(text):
            return
        if QCACHE_SYNC_RE.search(text):
            return
        for lineno, line in enumerate(lines, start=1):
            if QCACHE_METRIC_RE.search(line):
                self.report(
                    path, lineno, "qcache-version-sync",
                    "this file bumps metric_names::kQcacheInvalidationsTotal "
                    "but never calls SyncVersions; an invalidation must "
                    "re-stamp the entry's synced store versions or the "
                    "rebuilt entry is stale forever and every lookup "
                    "re-invalidates (DESIGN.md §16)",
                    raw_lines, sup)
                return

    # Per-line bans: rule -> (pattern, message). The lookbehind keeps
    # static_assert and foo_assert out of bare-assert.
    LINE_BANS = {
        "bare-assert": (
            re.compile(r"(?<![_\w])assert\s*\("),
            "use RELDIV_CHECK/RELDIV_DCHECK from common/check.h instead of "
            "assert()"),
        "no-rand": (
            re.compile(r"(?:std::)?\b(?:rand|srand)\s*\("),
            "non-deterministic libc RNG; use common/rng.h (seeded "
            "xorshift128+) for reproducibility"),
    }

    def check_line_bans(self, path: Path, raw_lines, lines, sup):
        for lineno, line in enumerate(lines, start=1):
            for rule, (pattern, message) in self.LINE_BANS.items():
                if pattern.search(line):
                    self.report(path, lineno, rule, message, raw_lines, sup)

    def check_include_guard(self, path: Path, raw_lines, sup):
        rel = path.relative_to(self.root / "src")
        stem = "_".join(rel.parts[:-1] + (rel.stem,))
        guard = "RELDIV_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"
        head = [l.strip() for l in raw_lines[:5] if l.strip()]
        if head[:2] != [f"#ifndef {guard}", f"#define {guard}"]:
            self.report(path, 1, "include-guard",
                        f"header must open with '#ifndef {guard}' / "
                        f"'#define {guard}'", raw_lines, sup)

    CLASS_RE = re.compile(r"\bclass\s+([A-Za-z_]\w*)[^;{]*\{")
    NEXTBATCH_OVERRIDE_RE = re.compile(r"\bNextBatch\s*\([^)]*\)\s*override")
    OPEN_OVERRIDE_RE = re.compile(r"\bOpen\s*\(\s*\)\s*override")
    CLOSE_OVERRIDE_RE = re.compile(r"\bClose\s*\(\s*\)\s*override")

    def class_spans(self, text):
        """(class-head match, body end offset) for every class in `text`."""
        for match in self.CLASS_RE.finditer(text):
            depth = 1
            i = match.end()
            while i < len(text) and depth > 0:
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                i += 1
            yield match, i

    def check_batch_overrides(self, path: Path, raw_lines, sup, text):
        """Reported on the class line, where a suppression goes."""
        for match, end in self.class_spans(text):
            body = text[match.end():end]
            if not self.NEXTBATCH_OVERRIDE_RE.search(body):
                continue
            missing = [label for label, rx in (
                ("Open", self.OPEN_OVERRIDE_RE),
                ("Close", self.CLOSE_OVERRIDE_RE)) if not rx.search(body)]
            if missing:
                self.report(
                    path, text.count("\n", 0, match.start()) + 1,
                    "batch-overrides",
                    f"class {match.group(1)} overrides NextBatch but not "
                    f"{'/'.join(missing)}; an operator must manage its "
                    "stream state explicitly", raw_lines, sup)

    TUPLE_NEXT_RE = re.compile(r"\bNext\s*\(\s*Tuple\s*\*[^,()]*,\s*bool\s*\*")
    BASE_OPERATOR = ("exec/operator.h", "Operator")

    def check_tuple_lane(self, path: Path, raw_lines, sup, text):
        base = (0, 0)
        if path.relative_to(self.root / "src").as_posix() == \
                self.BASE_OPERATOR[0]:
            for match, end in self.class_spans(text):
                if match.group(1) == self.BASE_OPERATOR[1]:
                    base = (match.end(), end)
        for match in self.TUPLE_NEXT_RE.finditer(text):
            if base[0] <= match.start() < base[1]:
                continue
            self.report(
                path, text.count("\n", 0, match.start()) + 1, "tuple-lane",
                "tuple-at-a-time Next(Tuple*, bool*) is not part of the "
                "operator protocol; implement NextBatch (a per-tuple "
                "producer fills batches with FillBatch, a per-tuple "
                "consumer reads through InputCursor)", raw_lines, sup)

    def check_qcache_coverage(self, texts):
        if "qcache-version-sync" not in self.rules:
            return
        for rel in QCACHE_SYNC_COVERAGE:
            path = self.root / rel
            if not path.is_file():
                self.findings.append(Finding(
                    "qcache-version-sync", rel, 1,
                    f"wired file {rel} is missing", ""))
                continue
            raw_lines, _ = texts[path]
            text = "\n".join(strip_comments_and_strings(l) for l in raw_lines)
            for pattern, what in ((QCACHE_METRIC_RE,
                                   "metric_names::kQcacheInvalidationsTotal "
                                   "bump"),
                                  (QCACHE_SYNC_RE,
                                   "SyncVersions call")):
                if not pattern.search(text):
                    self.findings.append(Finding(
                        "qcache-version-sync", rel, 1,
                        f"expected {what} is no longer present in this "
                        "file; quotient-cache invalidations must stay "
                        "paired with a version re-stamp (DESIGN.md §16)",
                        ""))

    def check_replan_coverage(self, texts):
        if "replan-flight-log" not in self.rules:
            return
        for rel in REPLAN_FLIGHT_COVERAGE:
            path = self.root / rel
            if not path.is_file():
                self.findings.append(Finding(
                    "replan-flight-log", rel, 1,
                    f"wired file {rel} is missing", ""))
                continue
            raw_lines, _ = texts[path]
            text = "\n".join(strip_comments_and_strings(l) for l in raw_lines)
            for pattern, what in ((REPLAN_METRIC_RE,
                                   "metric_names::kReplansTotal bump"),
                                  (REPLAN_RECORDER_RE,
                                   "EventLog::Flight().Record call")):
                if not pattern.search(text):
                    self.findings.append(Finding(
                        "replan-flight-log", rel, 1,
                        f"expected {what} is no longer present in this "
                        "file; re-plan decisions must stay observable in "
                        "both the metric family and the flight ring "
                        "(DESIGN.md §15)", ""))

    def failpoint_catalog(self) -> set[str]:
        header = self.root / "src" / "testing" / "failpoint.h"
        if not header.is_file():
            return set()
        match = FAILPOINT_CATALOG_RE.search(
            header.read_text(encoding="utf-8"))
        if match is None:
            if "failpoint-site" in self.rules:
                self.findings.append(Finding(
                    "failpoint-site", self.relpath(header), 1,
                    "kFailpointSites catalog not found", ""))
            return set()
        return set(re.findall(r'"([^"]+)"', match.group(1)))

    def check_failpoints(self, texts: dict[Path, tuple[list[str], list]]):
        catalog = self.failpoint_catalog()
        sites_by_file: dict[str, set[str]] = {}
        for path, (raw_lines, sup) in texts.items():
            rel = self.relpath(path)
            for lineno, raw in enumerate(raw_lines, start=1):
                for site in FAILPOINT_USE_RE.findall(raw):
                    sites_by_file.setdefault(rel, set()).add(site)
                    if site not in catalog:
                        self.report(
                            path, lineno, "failpoint-site",
                            f"site '{site}' is not listed in "
                            "kFailpointSites (testing/failpoint.h); arming "
                            "it by name would never fire", raw_lines, sup)
        if "failpoint-coverage" not in self.rules:
            return
        for rel, required in FAILPOINT_COVERAGE.items():
            path = self.root / rel
            if not path.is_file():
                self.findings.append(Finding(
                    "failpoint-coverage", rel, 1,
                    f"wired file {rel} is missing", ""))
                continue
            present = sites_by_file.get(rel, set())
            for site in required:
                if site not in present:
                    self.findings.append(Finding(
                        "failpoint-coverage", rel, 1,
                        f"expected failpoint site '{site}' is no longer "
                        "registered in this file (see DESIGN.md §10.1)", ""))

    # -- driver ------------------------------------------------------------

    def load_baseline(self) -> set[tuple[str, str, str]]:
        if not self.baseline_path.is_file():
            return set()
        data = json.loads(self.baseline_path.read_text(encoding="utf-8"))
        return {(e["rule"], e["file"], e["key"])
                for e in data.get("findings", [])}

    def write_baseline(self) -> None:
        entries = [f.baseline_entry() for f in self.findings]
        self.baseline_path.write_text(
            json.dumps({"version": 1, "findings": entries}, indent=2) + "\n",
            encoding="utf-8")

    def run(self) -> list[Finding]:
        texts: dict[Path, tuple[list[str], list]] = {}
        for d in SOURCE_DIRS:
            for path in sorted((self.root / d).rglob("*")):
                if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                    continue
                raw = mask_block_comments(
                    path.read_text(encoding="utf-8"))
                raw_lines = raw.splitlines()
                sup = self._suppressions(raw_lines)
                lines = [strip_comments_and_strings(l) for l in raw_lines]
                texts[path] = (raw_lines, sup)
                text = "\n".join(lines)
                self.check_physical_ops(path, raw_lines, lines, sup)
                self.check_kernel_purity(path, raw_lines, lines, sup)
                self.check_mutex_guarded(path, raw_lines, lines, sup, text)
                self.check_raw_thread(path, raw_lines, lines, sup)
                self.check_naked_new(path, raw_lines, lines, sup)
                self.check_telemetry_names(path, raw_lines, sup, raw)
                self.check_replan_flight_log(path, raw_lines, lines, sup,
                                             text)
                self.check_qcache_version_sync(path, raw_lines, lines, sup,
                                               text)
                self.check_line_bans(path, raw_lines, lines, sup)
                self.check_tuple_lane(path, raw_lines, sup, text)
                if path.suffix == ".h":
                    self.check_include_guard(path, raw_lines, sup)
                    self.check_batch_overrides(path, raw_lines, sup, text)
        self.check_failpoints(texts)
        self.check_replan_coverage(texts)
        self.check_qcache_coverage(texts)

        baseline = self.load_baseline()
        seen = {(f.rule, f.file, f.key) for f in self.findings}
        self.stale_baseline = [
            {"rule": r, "file": fl, "key": k}
            for (r, fl, k) in sorted(baseline)
            if (r, fl, k) not in seen]
        fresh = [f for f in self.findings
                 if (f.rule, f.file, f.key) not in baseline]
        self.baselined = len(self.findings) - len(fresh)
        return fresh


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parent.parent),
        help="repository root (default: parent of tools/)")
    parser.add_argument("--backend", choices=("auto", "tokenizer",
                                              "libclang"), default="auto")
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default: "
                             "tools/analyze_baseline.json)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="absorb all current findings into the baseline")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule subset (default: all)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = sorted(set(rules) - set(RULES))
        if unknown:
            raise SystemExit(f"analyze.py: unknown rule(s): "
                             f"{', '.join(unknown)}")

    analyzer = Analyzer(Path(args.root), backend=args.backend,
                        baseline_path=args.baseline, rules=rules)
    fresh = analyzer.run()

    if args.update_baseline:
        analyzer.write_baseline()
        print(f"analyze.py: baseline updated with "
              f"{len(analyzer.findings)} finding(s)")
        return 0

    for finding in fresh:
        print(finding)
    for entry in analyzer.stale_baseline:
        print(f"analyze.py: stale baseline entry (fixed? run "
              f"--update-baseline to shrink): {entry['rule']} in "
              f"{entry['file']}")
    print(f"analyze.py [{analyzer.backend.name}]: {len(fresh)} finding(s), "
          f"{analyzer.suppressed} suppressed with rationale, "
          f"{analyzer.baselined} baselined")
    return 1 if fresh or analyzer.stale_baseline else 0


if __name__ == "__main__":
    sys.exit(main())
