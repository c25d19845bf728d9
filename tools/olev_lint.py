#!/usr/bin/env python3
"""Domain linter for the pricing core's dimensional-analysis contract.

Pure stdlib + regex so it runs anywhere Python 3 does (the CI containers
have no clang tooling guarantee).  Three rules, each encoding a convention
that util/quantity.h makes checkable but cannot enforce by itself:

  R1 raw-quantity-param   Public headers of src/core, src/grid and src/wpt
                          must not declare a function parameter of raw
                          `double` whose name *claims* a unit (`*_kwh`,
                          `*_kw`, `*_mw`, `*_mph`, `*_mps`, `*_s`,
                          `price*`).  Such a parameter is a Quantity that
                          escaped the type system: callers can pass mph
                          where m/s is meant and no compiler objects.
                          Returns and result-struct fields stay raw by
                          design (documented solver Rep boundary), so only
                          parameters are policed.

  R2 float-equality       `==`/`!=` against a nonzero floating literal is
                          almost always a latent tolerance bug in numeric
                          code.  Exact comparisons against 0.0 are idiomatic
                          sentinels (water-filling's empty-allocation path)
                          and stay legal.  Approved helpers -- the quantity
                          layer's constexpr scale algebra -- are allowlisted.

  R3 nodiscard-solver     Solver entry points return equilibria or money;
                          silently discarding one is always a bug.  Each
                          name in ENTRY_POINTS must carry [[nodiscard]] on
                          its header declaration.

  R4 raw-clock            src/core and src/util must not call
                          `std::chrono::*_clock::now()` directly; the only
                          approved timing sources are obs::now_micros() and
                          obs::Stopwatch (src/obs/span.h).  Raw clock reads
                          bypass the tracer's epoch and the OLEV_OBS=OFF
                          compile-out contract.  src/obs itself is exempt:
                          it IS the clock wrapper.

  R5 raw-socket           src/svc is the only directory allowed to touch
                          the socket API: socket-family headers
                          (<sys/socket.h>, <poll.h>, <netinet/*>, ...),
                          global-scope I/O syscalls (::socket, ::recv,
                          ::poll, ...) and unambiguous socket tokens
                          (sockaddr, AF_INET, pollfd, ...) anywhere else
                          under src/ are findings.  Keeps blocking I/O and
                          fd lifetimes out of the solver core by
                          construction (docs/SERVING.md).  Qualified member
                          calls like `MessageBus::poll(` do not match: the
                          rule requires the `::` to be global scope.

  R6 raw-sync             Raw standard-library synchronization primitives
                          (std::mutex, std::condition_variable,
                          std::lock_guard, std::unique_lock, ...) are
                          forbidden everywhere except src/util/sync.h and
                          sync.cc: every lock must be an olev::Mutex /
                          olev::CondVar so it carries the Clang
                          thread-safety capability annotations and feeds
                          the lock-order auditor.  Sweeps src/** and the
                          operational binaries in tools/*.cpp
                          (docs/ANALYSIS.md "Thread-safety contract").

  R7 raw-print            Library code under src/ must not write diagnostics
                          to stdout/stderr directly (printf, fprintf, puts,
                          std::cout, std::cerr, ...): ad-hoc prints bypass
                          the reporting layer and corrupt the stdout
                          protocol of the operational binaries (the olevd
                          ready line is scraped by tests/e2e/olev_e2e.py).
                          src/obs is exempt (it IS the reporting layer:
                          EnvSession's exit summaries).  snprintf-style
                          formatting into buffers stays legal.
                          Tools/examples/bench keep printing: they are the
                          user-facing surface.

  R8 raw-file-io          Data-path file I/O (std::ofstream/ifstream/
                          fstream/filebuf, fopen/freopen/tmpfile, ::open)
                          is reserved for src/persist -- the durable state
                          plane, whose codec frames and checksums every
                          byte it writes (docs/PERSISTENCE.md) -- and the
                          obs sinks (src/obs, the metrics/trace/flight
                          exporters).  Anywhere else under src/, ad-hoc
                          file writes would bypass the atomic tmp+rename
                          discipline and produce unversioned artifacts no
                          replay or resume could validate.  Grandfathered:
                          src/util/csv.cc (the CSV report sink) and
                          src/util/config.cc (the config loader), both
                          human-readable text planes, not durable state.
                          Tools/examples/bench stay free to touch files:
                          they are the user-facing surface.

The behavioral rules (R2 float-equality, R4 raw-clock, R5 raw-socket,
R6 raw-sync) additionally sweep the runnable surface outside src/: every
example (examples/*.cpp) and benchmark (bench/*.cpp, bench/*.h).  Those
binaries are the copy-paste templates users start from, so a float-equality
bug or a raw mutex there propagates further than one in the library.

Usage:
  tools/olev_lint.py [--root DIR]     lint the tree (exit 1 on findings)
  tools/olev_lint.py --self-test      prove each rule fires on a seeded
                                      violation and stays quiet on clean
                                      input (exit 1 if any rule is dead)
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# Public-API surface the dimensional-analysis contract covers.
HEADER_DIRS = ("src/core", "src/grid", "src/wpt")
# R2 additionally sweeps implementation files in the numeric core.
SOURCE_DIRS = HEADER_DIRS + ("src/util",)

# Files allowed to compare floats exactly: the quantity layer's compile-time
# scale algebra (S1 * S2 == 1.0 decides a *type*, not a runtime tolerance).
FLOAT_EQ_ALLOWLIST = {"src/util/quantity.h"}

# Parameter names that claim a unit.  `_s` (seconds) also catches `_mps`
# and the like, but list them explicitly so the rule reads as the policy.
UNIT_SUFFIXES = ("_kwh", "_kw", "_mw", "_mwh", "_mph", "_mps", "_kmh", "_s")
R1_PARAM = re.compile(
    r"\bdouble\s+("
    + r"|".join(rf"\w+{re.escape(suffix)}" for suffix in UNIT_SUFFIXES)
    + r"|price\w*"
    + r")\s*(=[^,);]*)?[,)]"
)

# A floating literal that is not a spelling of zero (0.0, 0., .0, 0e0...).
_FLOAT = r"(?:\d+\.\d*|\.\d+|\d+\.?\d*[eE][-+]?\d+)"
_ZERO = re.compile(r"^0*\.?0*(?:[eE][-+]?\d+)?$")
R2_EQ = re.compile(rf"(?:[=!]=\s*(-?{_FLOAT})\b|\b({_FLOAT})\s*[=!]=)")

# R4 sweeps the solver core and util layer; src/obs wraps the clock and is
# the one place allowed to read it raw.
CLOCK_DIRS = ("src/core", "src/util")
R4_CLOCK = re.compile(r"\b\w*_clock\s*::\s*now\s*\(")

# Solver entry points that must be [[nodiscard]] at their declaration.
ENTRY_POINTS = {
    "src/core/water_filling.h": ("water_fill", "generalized_fill"),
    "src/core/best_response.h": ("best_response",),
    "src/core/central.h": ("maximize_welfare",),
    "src/core/stackelberg.h": ("follower_reaction", "solve_stackelberg"),
    "src/core/sweep.h": ("solve_scenario", "run_sweep"),
    "src/core/fleet_day.h": ("run_fleet_day",),
    "src/grid/dispatch.h": ("dispatch",),
    "src/grid/control_period.h": ("classify",),
    "src/wpt/charging_section.h": ("p_line_kw", "capacity_cap_kw"),
}

# R5 sweeps every implementation directory under src/; only the serving
# layer may speak to the kernel.
SOCKET_EXEMPT_PREFIX = "src/svc/"
R5_HEADER = re.compile(
    r"#\s*include\s*<(?:sys/socket\.h|sys/epoll\.h|sys/select\.h|poll\.h"
    r"|netdb\.h|arpa/inet\.h|netinet/[\w./]+)>"
)
# Global-scope qualified syscalls only: `(?<![\w>])::` rejects member
# qualifications such as `MessageBus::poll(` or `ServiceClient::connect(`.
R5_SYSCALL = re.compile(
    r"(?<![\w>])::\s*(socket|bind|listen|accept4?|connect|send(?:to|msg)?"
    r"|recv(?:from|msg)?|read|write|poll|ppoll|select|epoll_\w+|shutdown"
    r"|setsockopt|getsockopt|getsockname|getpeername|fcntl)\s*\("
)
# Tokens that only appear in socket-API code (plain `send(`/`poll(` are
# legitimate identifiers elsewhere -- the message bus has both).
R5_TOKEN = re.compile(
    r"\b(sockaddr(?:_in6?|_un|_storage)?|AF_INET6?|AF_UNIX|SOCK_STREAM"
    r"|SOCK_DGRAM|MSG_NOSIGNAL|MSG_DONTWAIT|INADDR_\w+|pollfd|nfds_t"
    r"|epoll_event)\b"
)

# R6: the capability-annotated wrappers in src/util/sync.h are the only
# approved synchronization primitives; the wrapper itself (and its lockdep
# implementation, which needs a raw mutex for the order graph) is exempt.
SYNC_EXEMPT = {"src/util/sync.h", "src/util/sync.cc"}
R6_SYNC = re.compile(
    r"\bstd\s*::\s*(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable"
    r"|condition_variable_any|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock)\b"
)

# R7: direct stdout/stderr diagnostics in library code.  `\bprintf` does not
# match the tail of snprintf/sprintf/vsnprintf (no word boundary after a
# word character), so buffer formatting stays legal by construction.
PRINT_EXEMPT_PREFIX = "src/obs/"
R7_PRINT = re.compile(
    r"\bstd\s*::\s*(?:cout|cerr|clog)\b"
    r"|\b(?:std\s*::\s*)?(?:printf|fprintf|vfprintf|puts|fputs|putchar"
    r"|perror)\s*\("
)

# R8: data-path file I/O outside the durable state plane.  `(?<![\w:])`
# keeps qualified members like `Codec::fopen_like(` from matching only when
# actually global; std::FILE alone is legal (a pointer type in a signature
# is not I/O -- opening one is).
FILE_IO_EXEMPT_PREFIXES = ("src/persist/", "src/obs/")
FILE_IO_EXEMPT_FILES = {"src/util/csv.cc", "src/util/config.cc"}
R8_FILE_IO = re.compile(
    r"\bstd\s*::\s*(?:basic_)?(?:[oi]?fstream|filebuf)\b"
    r"|\b(?:std\s*::\s*)?(?:fopen|freopen|tmpfile)\s*\("
    r"|(?<![\w>])::\s*open(?:at)?\s*\("
)

COMMENT = re.compile(r"//.*$")


class Finding:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comment(line: str) -> str:
    return COMMENT.sub("", line)


def lint_raw_quantity_params(path: str, text: str) -> list[Finding]:
    findings = []
    for number, line in enumerate(text.splitlines(), start=1):
        code = strip_comment(line)
        for match in R1_PARAM.finditer(code):
            findings.append(
                Finding(
                    "raw-quantity-param",
                    path,
                    number,
                    f"parameter 'double {match.group(1)}' claims a unit; "
                    "take a util::Quantity (see util/quantity.h)",
                )
            )
    return findings


def lint_float_equality(path: str, text: str) -> list[Finding]:
    if path in FLOAT_EQ_ALLOWLIST:
        return []
    findings = []
    for number, line in enumerate(text.splitlines(), start=1):
        code = strip_comment(line)
        for match in R2_EQ.finditer(code):
            literal = match.group(1) or match.group(2)
            if _ZERO.match(literal.lstrip("-")):
                continue  # exact-zero sentinels are idiomatic
            findings.append(
                Finding(
                    "float-equality",
                    path,
                    number,
                    f"exact ==/!= against {literal}; use a tolerance "
                    "(util::approx_equal / EXPECT_NEAR) or compare integers",
                )
            )
    return findings


def lint_raw_clock(path: str, text: str) -> list[Finding]:
    if path.startswith("src/obs/"):
        return []  # the clock wrapper itself
    findings = []
    for number, line in enumerate(text.splitlines(), start=1):
        code = strip_comment(line)
        for match in R4_CLOCK.finditer(code):
            findings.append(
                Finding(
                    "raw-clock",
                    path,
                    number,
                    f"raw '{match.group(0).rstrip('(').strip()}()' call; use "
                    "obs::now_micros() or obs::Stopwatch (src/obs/span.h)",
                )
            )
    return findings


def lint_raw_sockets(path: str, text: str) -> list[Finding]:
    if path.startswith(SOCKET_EXEMPT_PREFIX):
        return []  # the serving layer IS the socket wrapper
    findings = []
    for number, line in enumerate(text.splitlines(), start=1):
        code = strip_comment(line)
        for pattern, what in (
            (R5_HEADER, "socket-API header"),
            (R5_SYSCALL, "raw I/O syscall"),
            (R5_TOKEN, "socket-API token"),
        ):
            match = pattern.search(code)
            if match:
                findings.append(
                    Finding(
                        "raw-socket",
                        path,
                        number,
                        f"{what} '{match.group(0).strip()}' outside src/svc; "
                        "route I/O through the serving layer "
                        "(src/svc/socket.h, docs/SERVING.md)",
                    )
                )
                break  # one finding per line is enough
    return findings


def lint_raw_sync(path: str, text: str) -> list[Finding]:
    if path in SYNC_EXEMPT:
        return []  # the capability wrapper (and its lockdep graph) itself
    findings = []
    for number, line in enumerate(text.splitlines(), start=1):
        code = strip_comment(line)
        match = R6_SYNC.search(code)
        if match:
            findings.append(
                Finding(
                    "raw-sync",
                    path,
                    number,
                    f"raw 'std::{match.group(1)}'; use olev::Mutex / "
                    "olev::CondVar / olev::MutexLock (src/util/sync.h) so "
                    "the lock carries capability annotations and feeds the "
                    "lock-order auditor",
                )
            )
    return findings


def lint_raw_print(path: str, text: str) -> list[Finding]:
    if path.startswith(PRINT_EXEMPT_PREFIX):
        return []  # the reporting layer
    findings = []
    for number, line in enumerate(text.splitlines(), start=1):
        code = strip_comment(line)
        match = R7_PRINT.search(code)
        if match:
            findings.append(
                Finding(
                    "raw-print",
                    path,
                    number,
                    f"direct diagnostic '{match.group(0).strip()}' in library "
                    "code; report through src/obs (ad-hoc prints corrupt "
                    "tool stdout protocols)",
                )
            )
    return findings


def lint_raw_file_io(path: str, text: str) -> list[Finding]:
    if path.startswith(FILE_IO_EXEMPT_PREFIXES) or path in FILE_IO_EXEMPT_FILES:
        return []  # the durable state plane, the obs sinks, grandfathered text
    findings = []
    for number, line in enumerate(text.splitlines(), start=1):
        code = strip_comment(line)
        match = R8_FILE_IO.search(code)
        if match:
            findings.append(
                Finding(
                    "raw-file-io",
                    path,
                    number,
                    f"raw file I/O '{match.group(0).strip()}' outside "
                    "src/persist; durable artifacts must go through the "
                    "persist codec (versioned, checksummed, atomic "
                    "tmp+rename -- docs/PERSISTENCE.md) or an obs sink",
                )
            )
    return findings


def lint_nodiscard_solvers(path: str, text: str) -> list[Finding]:
    names = ENTRY_POINTS.get(path)
    if not names:
        return []
    findings = []
    lines = text.splitlines()
    for name in names:
        declared = False
        covered = False
        pattern = re.compile(rf"\b{name}\s*\(")
        for index, line in enumerate(lines):
            code = strip_comment(line)
            if not pattern.search(code):
                continue
            # Skip uses inside comments/doc prose (stripped) and macro-ish
            # lines; a declaration line contains a return type or attribute.
            declared = True
            window = " ".join(lines[max(0, index - 1) : index + 1])
            if "[[nodiscard]]" in window:
                covered = True
                break
        if declared and not covered:
            findings.append(
                Finding(
                    "nodiscard-solver",
                    path,
                    1,
                    f"solver entry point '{name}' must be [[nodiscard]]",
                )
            )
    return findings


def collect_files(
    root: pathlib.Path,
) -> tuple[
    list[pathlib.Path], list[pathlib.Path], list[pathlib.Path], list[pathlib.Path]
]:
    headers, sources = [], []
    for directory in HEADER_DIRS:
        headers.extend(sorted((root / directory).glob("*.h")))
    for directory in SOURCE_DIRS:
        sources.extend(sorted((root / directory).glob("*.h")))
        sources.extend(sorted((root / directory).glob("*.cc")))
    # R5/R6 sweep everything under src/ recursively (exemptions applied per
    # file inside the rule, so the count below reflects the true sweep).
    swept = sorted(
        p
        for suffix in ("*.h", "*.cc")
        for p in (root / "src").rglob(suffix)
    )
    # R6 additionally covers the operational binaries (olevd, olev_loadgen):
    # a raw std::mutex there would bypass the lock-order auditor too.
    tools = sorted((root / "tools").glob("*.cpp"))
    # The runnable surface outside src/: examples and benchmarks get the
    # behavioral rules (R2/R4/R5/R6) -- they are the templates users copy.
    extras = sorted(
        [
            *(root / "examples").glob("*.cpp"),
            *(root / "bench").glob("*.cpp"),
            *(root / "bench").glob("*.h"),
        ]
    )
    return headers, sources, swept, tools, extras


def run_lint(root: pathlib.Path) -> list[Finding]:
    headers, sources, swept, tools, extras = collect_files(root)
    findings: list[Finding] = []
    for header in headers:
        rel = header.relative_to(root).as_posix()
        text = header.read_text()
        findings.extend(lint_raw_quantity_params(rel, text))
        findings.extend(lint_nodiscard_solvers(rel, text))
    for source in sources:
        rel = source.relative_to(root).as_posix()
        text = source.read_text()
        findings.extend(lint_float_equality(rel, text))
        if rel.startswith(CLOCK_DIRS):
            findings.extend(lint_raw_clock(rel, text))
    for source in swept:
        rel = source.relative_to(root).as_posix()
        text = source.read_text()
        findings.extend(lint_raw_sockets(rel, text))
        findings.extend(lint_raw_sync(rel, text))
        findings.extend(lint_raw_print(rel, text))
        findings.extend(lint_raw_file_io(rel, text))
    for source in tools:
        rel = source.relative_to(root).as_posix()
        findings.extend(lint_raw_sync(rel, source.read_text()))
    for source in extras:
        rel = source.relative_to(root).as_posix()
        text = source.read_text()
        findings.extend(lint_float_equality(rel, text))
        findings.extend(lint_raw_clock(rel, text))
        findings.extend(lint_raw_sockets(rel, text))
        findings.extend(lint_raw_sync(rel, text))
    return findings


# ---- self test ------------------------------------------------------------

SELF_TESTS = [
    # (rule function, path, snippet, expect_findings)
    (
        lint_raw_quantity_params,
        "src/core/fake.h",
        "double p_line_kw(const Spec& spec, double velocity_mps);\n",
        True,
    ),
    (
        lint_raw_quantity_params,
        "src/core/fake.h",
        "double request(const Spec& spec, util::MetersPerSecond velocity);\n",
        False,
    ),
    (
        lint_raw_quantity_params,
        "src/core/fake.h",
        "// double legacy_kwh(double amount_kwh); -- commented out\n",
        False,
    ),
    (
        lint_raw_quantity_params,
        "src/core/fake.h",
        "void pay(double price_per_kwh = 0.2, int n = 1);\n",
        True,
    ),
    (
        lint_float_equality,
        "src/core/fake.cc",
        "if (welfare == 42.5) return;\n",
        True,
    ),
    (
        lint_float_equality,
        "src/core/fake.cc",
        "if (total == 0.0) return;  // empty-allocation sentinel\n",
        False,
    ),
    (
        lint_float_equality,
        "src/core/fake.cc",
        "if (1.5e3 != budget) overflow();\n",
        True,
    ),
    (
        lint_float_equality,
        "src/util/quantity.h",
        "if constexpr (S1 * S2 == 1.0) { }\n",
        False,  # allowlisted file
    ),
    (
        lint_raw_clock,
        "src/core/sweep.cc",
        "const auto start = std::chrono::steady_clock::now();\n",
        True,
    ),
    (
        lint_raw_clock,
        "src/util/thread_pool.cc",
        "auto t0 = high_resolution_clock::now();\n",
        True,
    ),
    (
        lint_raw_clock,
        "src/core/sweep.cc",
        "obs::Stopwatch wall;  // approved timing source\n",
        False,
    ),
    (
        lint_raw_clock,
        "src/core/sweep.cc",
        "// auto start = std::chrono::steady_clock::now(); -- commented out\n",
        False,
    ),
    (
        lint_raw_clock,
        "src/obs/span.cc",
        "return std::chrono::steady_clock::now();\n",
        False,  # the clock wrapper itself is exempt
    ),
    (
        lint_raw_sockets,
        "src/core/fake.cc",
        "#include <sys/socket.h>\n",
        True,
    ),
    (
        lint_raw_sockets,
        "src/util/fake.cc",
        "const int ready = ::poll(fds.data(), n, timeout_ms);\n",
        True,
    ),
    (
        lint_raw_sockets,
        "src/grid/fake.cc",
        "sockaddr_in address{};\n",
        True,
    ),
    (
        lint_raw_sockets,
        "src/net/bus.h",
        "std::uint64_t send(NodeId from, NodeId to, double now, Message m);\n",
        False,  # `send` is a legitimate identifier; only ::send( is policed
    ),
    (
        lint_raw_sockets,
        "src/net/bus.cc",
        "std::vector<Envelope> MessageBus::poll(NodeId node, double now) {\n",
        False,  # member qualification, not the global-scope syscall
    ),
    (
        lint_raw_sockets,
        "src/svc/socket.cc",
        "Socket sock(::socket(AF_INET, SOCK_STREAM, 0));\n",
        False,  # the serving layer is the one exempt directory
    ),
    (
        lint_raw_sync,
        "src/core/fake.cc",
        "static std::mutex cache_mutex;\n",
        True,
    ),
    (
        lint_raw_sync,
        "src/obs/fake.cc",
        "std::lock_guard<std::mutex> lock(mutex_);\n",
        True,
    ),
    (
        lint_raw_sync,
        "tools/olevd.cpp",
        "std::unique_lock<std::mutex> lock(mu);\n",
        True,
    ),
    (
        lint_raw_sync,
        "src/util/fake.cc",
        "std::condition_variable ready;\n",
        True,
    ),
    (
        lint_raw_sync,
        "src/util/thread_pool.cc",
        "olev::MutexLock lock(mutex_);\n",
        False,  # the approved wrapper
    ),
    (
        lint_raw_sync,
        "src/util/sync.h",
        "std::mutex native_;\n",
        False,  # the wrapper itself is the one exempt place
    ),
    (
        lint_raw_sync,
        "src/util/sync.cc",
        "std::lock_guard<std::mutex> graph_lock(g.mu);\n",
        False,  # lockdep's own order-graph lock
    ),
    (
        lint_raw_sync,
        "src/core/fake.cc",
        "// std::mutex was rejected in review; see util/sync.h\n",
        False,  # comments don't count
    ),
    (
        lint_float_equality,
        "bench/bench_fig5_welfare.cpp",
        "std::cout << (velocity == 60.0 ? 5 : 6);\n",
        True,  # the bench/examples sweep catches figure-switch comparisons
    ),
    (
        lint_raw_sync,
        "examples/city_scale.cpp",
        "std::mutex results_mutex;\n",
        True,  # examples are templates users copy; same sync rules apply
    ),
    (
        lint_raw_clock,
        "bench/bench_util.h",
        "auto t0 = std::chrono::steady_clock::now();\n",
        True,  # bench timing must go through obs::Stopwatch too
    ),
    (
        lint_raw_print,
        "src/core/fake.cc",
        'std::printf("debug: welfare=%g\\n", welfare);\n',
        True,
    ),
    (
        lint_raw_print,
        "src/svc/fake.cc",
        'std::cerr << "dropping session\\n";\n',
        True,
    ),
    (
        lint_raw_print,
        "src/net/fake.cc",
        'fprintf(stderr, "bad frame\\n");\n',
        True,
    ),
    (
        lint_raw_print,
        "src/net/fake.cc",
        'std::snprintf(buffer, sizeof buffer, "%g", value);\n',
        False,  # formatting into a buffer is not a diagnostic
    ),
    (
        lint_raw_print,
        "src/obs/report.cc",
        'std::fprintf(stderr, "[obs] metrics saved\\n");\n',
        False,  # the reporting layer is the one place allowed to print
    ),
    (
        lint_raw_print,
        "src/util/log.cc",
        'std::cerr << "[olev] " << message;\n',
        True,  # no file outside src/obs is a print sink
    ),
    (
        lint_raw_print,
        "src/core/fake.cc",
        "// std::cout << schedule; -- debugging leftover, commented\n",
        False,
    ),
    (
        lint_raw_file_io,
        "src/core/fake.cc",
        'std::ofstream out("equilibrium.bin");\n',
        True,
    ),
    (
        lint_raw_file_io,
        "src/svc/fake.cc",
        'std::FILE* f = std::fopen(path.c_str(), "wb");\n',
        True,
    ),
    (
        lint_raw_file_io,
        "src/grid/fake.cc",
        "const int fd = ::open(path, O_RDONLY);\n",
        True,
    ),
    (
        lint_raw_file_io,
        "src/persist/codec.cc",
        'std::FILE* f = std::fopen(path.c_str(), "wb");\n',
        False,
    ),
    (
        lint_raw_file_io,
        "src/obs/strings.cc",
        "std::ofstream out(path);\n",
        False,
    ),
    (
        lint_raw_file_io,
        "src/util/csv.cc",
        "std::ofstream out(path);\n",
        False,
    ),
    (
        lint_raw_file_io,
        "src/core/fake.cc",
        "// std::ofstream dump(path); -- see docs/PERSISTENCE.md\n",
        False,
    ),
    (
        lint_raw_file_io,
        "src/core/fake.cc",
        "std::FILE* file = nullptr;  // handle owned by persist\n",
        False,
    ),
    (
        lint_nodiscard_solvers,
        "src/core/central.h",
        "CentralResult maximize_welfare(std::span<const double> p_max);\n",
        True,
    ),
    (
        lint_nodiscard_solvers,
        "src/core/central.h",
        "[[nodiscard]] CentralResult maximize_welfare(\n    std::span<const double> p_max);\n",
        False,
    ),
]


def self_test() -> int:
    failures = 0
    for rule, path, snippet, expect in SELF_TESTS:
        found = bool(rule(path, snippet))
        verdict = "ok" if found == expect else "DEAD RULE" if expect else "FALSE POSITIVE"
        if found != expect:
            failures += 1
        print(f"self-test [{rule.__name__}] {verdict}: {snippet.strip()!r}")
    if failures:
        print(f"olev_lint: self-test FAILED ({failures} case(s))", file=sys.stderr)
        return 1
    print(f"olev_lint: self-test passed ({len(SELF_TESTS)} cases)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None, help="repo root (default: script's parent)")
    parser.add_argument("--self-test", action="store_true", help="verify each rule fires")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = pathlib.Path(args.root) if args.root else pathlib.Path(__file__).resolve().parent.parent
    findings = run_lint(root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"olev_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    headers, sources, swept, tools, extras = collect_files(root)
    print(
        f"olev_lint: clean ({len(headers)} public headers, "
        f"{len(sources)} files swept for float equality, "
        f"{len(swept)} for raw sockets/sync/prints/file-io, "
        f"{len(tools)} tool binaries, "
        f"{len(extras)} examples/bench files)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
