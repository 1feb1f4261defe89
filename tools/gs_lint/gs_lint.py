#!/usr/bin/env python3
"""gs_lint: project-specific static checks for the GemStone/84 tree.

Drives off the build's compile_commands.json (for the translation-unit
list) plus a walk of src/ headers, and enforces the concurrency contract
that generic tools cannot know about (DESIGN.md §12–§13):

  ranked-mutex-decl    Every gemstone::Mutex / SharedMutex declaration
                       must name a LockRank in its initializer.
  raw-mutex            No bare std::mutex / std::shared_mutex outside
                       core/sync.h — the ranked wrappers exist so the
                       lock-order validator sees every acquisition.
  conn-table-blocking  No known-blocking call (Logout, Commit, socket
                       writes, entering the executor) while holding
                       conn_table_mu_ — the gateway's outermost lock must
                       only ever bracket table bookkeeping.
  tier-isolation       Compaction-thread code (src/storage/tier/) lives
                       strictly below the executor lattice: it may not
                       acquire a gateway/executor/opal LockRank, nor
                       include those layers' headers (DESIGN.md §15).

A finding can be waived at the site with a comment on the same or the
preceding line:

    // gs_lint: allow(<check-name>): why this is safe

Exit status is the number of findings (0 = clean), capped at 255.

The pass is deliberately lexical: the container build offers no libclang,
and the patterns it polices are declaration- and scope-shaped, which
survives lexical analysis well. If python3-clang is present the TU list
still comes from compile_commands.json, so the two run identically.
"""

import argparse
import json
import os
import re
import sys

ALLOW_RE = re.compile(r"gs_lint:\s*allow\(([a-z-]+)\)")

# -- ranked-mutex-decl -------------------------------------------------------
# A declaration of the project mutex types. Deliberately does not match
# MutexLock/WriterMutexLock/ReaderMutexLock (no word boundary after the
# type name there), references, pointers, or the class definitions in
# core/sync.h (that file is skipped).
MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:gemstone::)?(Mutex|SharedMutex)\s+(\w+)\s*[{(;=]"
)

# -- raw-mutex ---------------------------------------------------------------
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:recursive_|timed_|shared_)?mutex\b(?!\s*[>*&:])"
)

# -- conn-table-blocking -----------------------------------------------------
CONN_TABLE_LOCK_RE = re.compile(r"\bMutexLock\s+\w+\s*[({]\s*conn_table_mu_")
BLOCKING_CALL_RE = re.compile(
    r"\b(?:Logout|Commit|SendAll|FlushOutbox)\s*\(|::send\s*\(|\bexecutor_->"
)

# -- metric-name -------------------------------------------------------------
# Registering a metric whose spelling breaks the registry grammar
# ([a-zA-Z_][a-zA-Z0-9_.]*) aborts debug builds at the call site
# (AdmitNameLocked). Catch literal misspellings before the build does.
# A literal prefix of a concatenated name is checked the same way (the
# grammar permits any prefix of a valid name, so "txn." + suffix is
# fine); fully dynamic names must route through SanitizeMetricName.
METRIC_CALL_RE = re.compile(r"\bGet(?:Counter|Gauge|Histogram)\s*\(")
# [\s\\]* also skips macro line-continuation backslashes (TELEM_SPAN).
METRIC_LITERAL_RE = re.compile(
    r"\bGet(?:Counter|Gauge|Histogram)\s*\([\s\\]*"
    r"(?:std::string\s*\([\s\\]*)?\"((?:[^\"\\]|\\.)*)\""
)
METRIC_NAME_OK_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")

# -- tier-isolation ----------------------------------------------------------
# The online compactor runs concurrently with every gateway request; the
# deadlock-freedom argument (DESIGN.md §13/§15) needs tier code to stay
# strictly below the executor lattice in the lock-rank order. Referencing
# an upper-lattice rank — or including a header that could re-enter one —
# breaks the argument even if today's call graph happens not to.
TIER_FILES_RE = re.compile(r"src/storage/tier/[^/]+\.(?:h|cc)$")
TIER_RANK_RE = re.compile(
    r"\bLockRank::k(?:NetConnTable|NetConnection|ExecutorSessions|"
    r"OpalGlobals)\b"
)
TIER_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"((?:net|executor|opal)/[^"]*)"')


class Finding:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


def strip_code(text):
    """Returns text with comments and string/char literals blanked out
    (lengths and newlines preserved, so line numbers survive)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def allowed(check, raw_lines, lineno):
    """True when line `lineno` (1-based) or the one above carries a
    gs_lint: allow(<check>) waiver."""
    for idx in (lineno - 1, lineno - 2):
        if 0 <= idx < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[idx])
            if m and m.group(1) == check:
                return True
    return False


def check_ranked_mutex_decl(path, raw_lines, code_lines, findings):
    if path.endswith("core/sync.h") or path.endswith("core/lock_rank.h"):
        return
    i = 0
    while i < len(code_lines):
        m = MUTEX_DECL_RE.match(code_lines[i])
        if not m:
            i += 1
            continue
        # Gather the full declaration statement (initializers wrap).
        stmt = code_lines[i]
        j = i
        while ";" not in stmt and j + 1 < len(code_lines) and j - i < 6:
            j += 1
            stmt += " " + code_lines[j]
        if "LockRank::" not in stmt and not allowed(
            "ranked-mutex-decl", raw_lines, i + 1
        ):
            findings.append(
                Finding(
                    path,
                    i + 1,
                    "ranked-mutex-decl",
                    f"{m.group(1)} '{m.group(2)}' does not declare a "
                    "LockRank; construct it as "
                    "{LockRank::<rank>, \"<module>.<name>\"}",
                )
            )
        i = j + 1


def check_raw_mutex(path, raw_lines, code_lines, findings):
    if path.endswith("core/sync.h"):
        return
    for i, line in enumerate(code_lines):
        if RAW_MUTEX_RE.search(line) and not allowed(
            "raw-mutex", raw_lines, i + 1
        ):
            findings.append(
                Finding(
                    path,
                    i + 1,
                    "raw-mutex",
                    "bare std::mutex bypasses the lock-order validator; "
                    "use gemstone::Mutex with a LockRank (or waive with "
                    "// gs_lint: allow(raw-mutex) and a reason)",
                )
            )


def check_conn_table_blocking(path, raw_lines, code_lines, findings):
    i = 0
    n = len(code_lines)
    while i < n:
        if not CONN_TABLE_LOCK_RE.search(code_lines[i]):
            i += 1
            continue
        # The MutexLock's scope: from here until brace depth drops below
        # the depth at the declaration line.
        depth = 0
        j = i
        while j < n:
            line = code_lines[j]
            start = line.index("MutexLock") if j == i else 0
            for c in line[start:]:
                if c == "{":
                    depth += 1
                elif c == "}":
                    depth -= 1
            if j > i and depth <= 0:
                break
            if j > i:
                m = BLOCKING_CALL_RE.search(line)
                if m and not allowed("conn-table-blocking", raw_lines, j + 1):
                    findings.append(
                        Finding(
                            path,
                            j + 1,
                            "conn-table-blocking",
                            f"'{m.group(0).strip()}' while holding "
                            "conn_table_mu_ (locked at line "
                            f"{i + 1}); release the table lock first "
                            "(DESIGN.md §12)",
                        )
                    )
            j += 1
        i += 1


def check_metric_name(path, raw_lines, code_lines, findings):
    # The registry's own declarations/forwarders take `name` parameters.
    if path.endswith("telemetry/metrics.h") or path.endswith(
        "telemetry/metrics.cc"
    ):
        return
    for i, line in enumerate(code_lines):
        if not METRIC_CALL_RE.search(line):
            continue
        # The literal lives in the raw line (strip_code blanks it); joins
        # the next two raw lines because registrations often wrap.
        window = " ".join(raw_lines[i : i + 3])
        m = METRIC_LITERAL_RE.search(window)
        if m is None:
            if "Sanitize" not in window and not allowed(
                "metric-name", raw_lines, i + 1
            ):
                findings.append(
                    Finding(
                        path,
                        i + 1,
                        "metric-name",
                        "metric registered under a computed name with no "
                        "literal prefix; pass it through "
                        "SanitizeMetricName first (debug builds abort on "
                        "invalid spellings)",
                    )
                )
            continue
        name = m.group(1)
        if not METRIC_NAME_OK_RE.match(name) and not allowed(
            "metric-name", raw_lines, i + 1
        ):
            findings.append(
                Finding(
                    path,
                    i + 1,
                    "metric-name",
                    f'metric name "{name}" breaks the registry grammar '
                    "[a-zA-Z_][a-zA-Z0-9_.]* — debug builds abort here "
                    "(AdmitNameLocked); rename it",
                )
            )


def check_tier_isolation(path, raw_lines, code_lines, findings):
    if not TIER_FILES_RE.search(path.replace(os.sep, "/")):
        return
    for i, line in enumerate(code_lines):
        # Include paths are string literals (blanked in code_lines), so
        # match them on the raw line; rank references on stripped code so
        # comments don't count.
        m = TIER_RANK_RE.search(line)
        if m and not allowed("tier-isolation", raw_lines, i + 1):
            findings.append(
                Finding(
                    path,
                    i + 1,
                    "tier-isolation",
                    f"tier code references executor-lattice rank "
                    f"'{m.group(0)}'; the compaction thread must stay "
                    "below kTxnStore (DESIGN.md §15)",
                )
            )
            continue
        if "#" in line and "include" in line:
            m = TIER_INCLUDE_RE.match(raw_lines[i])
            if m and not allowed("tier-isolation", raw_lines, i + 1):
                findings.append(
                    Finding(
                        path,
                        i + 1,
                        "tier-isolation",
                        f'tier code includes "{m.group(1)}"; the '
                        "gateway/executor/opal layers may call into the "
                        "tier, never the reverse (DESIGN.md §15)",
                    )
                )


CHECKS = (
    check_ranked_mutex_decl,
    check_raw_mutex,
    check_conn_table_blocking,
    check_metric_name,
    check_tier_isolation,
)


def collect_files(compile_commands, roots):
    files = set()
    if compile_commands and os.path.exists(compile_commands):
        with open(compile_commands, encoding="utf-8") as fh:
            for entry in json.load(fh):
                f = os.path.abspath(
                    os.path.join(entry.get("directory", ""), entry["file"])
                )
                files.add(f)
    for root in roots:
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in filenames:
                if name.endswith((".h", ".cc")):
                    files.add(os.path.abspath(os.path.join(dirpath, name)))
    # The contract covers the library tree; tests/benches/examples get
    # their discipline from the compiler (sync.h has no rankless ctor).
    sep = re.escape(os.sep)
    in_src = re.compile(rf"(^|{sep})src{sep}")
    return sorted(f for f in files if in_src.search(f))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--compile-commands",
        default=None,
        help="path to compile_commands.json (adds its TUs to the file set)",
    )
    parser.add_argument(
        "roots",
        nargs="*",
        default=[],
        help="directories to walk for sources (default: src/ under cwd)",
    )
    args = parser.parse_args(argv)
    roots = args.roots or ["src"]

    files = collect_files(args.compile_commands, roots)
    if not files:
        print("gs_lint: no source files found", file=sys.stderr)
        return 1

    findings = []
    for path in files:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            print(f"gs_lint: cannot read {path}: {err}", file=sys.stderr)
            continue
        raw_lines = text.splitlines()
        code_lines = strip_code(text).splitlines()
        for check in CHECKS:
            check(path, raw_lines, code_lines, findings)

    for finding in findings:
        print(finding)
    print(
        f"gs_lint: {len(files)} files, {len(findings)} finding(s)",
        file=sys.stderr,
    )
    return min(len(findings), 255)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
