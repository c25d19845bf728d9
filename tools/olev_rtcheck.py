#!/usr/bin/env python3
"""Hot-path real-time discipline wall (docs/ANALYSIS.md, "Real-time wall").

Binary-level static analyzer for the serving hot path: compiles the tree
with -ffunction-sections -g, extracts the call graph from `objdump -dr`
relocations, and verifies that no function reachable from an OLEV_HOT_ROOT
(src/util/hot.h) can reach a forbidden symbol:

  alloc     operator new/delete, malloc/free and friends
  lock      pthread_mutex_* / rwlock / cond, __cxa_guard_* (static-local init)
  throw     __cxa_throw / __cxa_allocate_exception / std::__throw_*
  io        I/O and sleep syscall wrappers (read/write/printf/poll/...)
  indirect  an indirect call in a function without an OLEV_RT_VCALL_OK
            allowance (virtual dispatch must be explicitly sanctioned and
            every reachable override must itself be a hot root)

Analyzing relocations in the *optimized object code* -- rather than the AST --
means the wall sees exactly what will execute: fully inlined allocations,
compiler-outlined .cold fragments, COMDAT template instantiations, and
implicit edges (guard variables, unwind cleanups) all appear as plain
relocation edges.  The manifest of roots / traversal stops / vcall
allowances is read back from the ELF sections the annotations themselves
emit (olev_hot_roots / olev_hot_stops / olev_hot_vcalls via readelf -p), so
the checker can never drift from the code.

Traversal stops (OLEV_RT_STOP) are demangled-name prefixes -- the
[[noreturn]] cold failure funnels (olev::util::hot_fail_*) whose throw
machinery only runs once the RT contract is already broken; the checker
treats them as leaves, mirroring how RTSan scopes sanctioned escapes.

Indirect-call detection: `call *...` instructions and memory-operand
`jmp *(...)` tail calls count as dispatch sites; register-operand
`jmp *%reg` is a switch jump table and is ignored.

Modes:
  olev_rtcheck.py                        analyze every .cc under --src-root
  olev_rtcheck.py --check-file F.cc      analyze one file (+ util/hot.cc)
      [--expect-violation CLASS]         ...asserting it trips the wall
  olev_rtcheck.py --self-test            compile embedded snippets and check
                                         the analyzer's verdict on each

Exit status: 0 = wall holds (or expectations met), 1 = violations (or a
self-test/expectation mismatch), 2 = usage/toolchain error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Forbidden-symbol policy
# --------------------------------------------------------------------------

ALLOC_EXACT = {
    "malloc", "calloc", "realloc", "reallocarray", "free", "cfree",
    "aligned_alloc", "posix_memalign", "memalign", "valloc", "pvalloc",
    "strdup", "strndup", "asprintf", "vasprintf",
}
# operator new/delete in the Itanium ABI: _Znw/_Zna (new), _Zdl/_Zda (delete)
ALLOC_MANGLED_PREFIXES = ("_Znw", "_Zna", "_Zdl", "_Zda")

LOCK_PREFIXES = (
    "pthread_mutex_", "pthread_rwlock_", "pthread_cond_", "pthread_spin_",
    "pthread_barrier_", "sem_wait", "sem_timedwait", "sem_post",
    # static-local initialization guard: takes a process-wide mutex
    "__cxa_guard_",
)

THROW_EXACT = {
    "__cxa_throw", "__cxa_rethrow", "__cxa_allocate_exception",
    "__cxa_free_exception", "__cxa_bad_cast", "__cxa_bad_typeid",
}
THROW_DEMANGLED_PREFIXES = ("std::__throw_",)

IO_EXACT = {
    "read", "write", "pread", "pwrite", "readv", "writev",
    "open", "open64", "openat", "close", "fsync", "fdatasync",
    "fopen", "fopen64", "fclose", "fread", "fwrite", "fflush", "fseek",
    "fputs", "fputc", "fgets", "fgetc", "puts", "putchar", "putc", "getc",
    "printf", "fprintf", "vfprintf", "vprintf", "dprintf",
    "scanf", "fscanf",
    "send", "recv", "sendto", "recvfrom", "sendmsg", "recvmsg",
    "socket", "connect", "accept", "accept4", "bind", "listen",
    "poll", "ppoll", "select", "pselect", "epoll_wait", "epoll_pwait",
    "ioctl", "fcntl",
    "nanosleep", "clock_nanosleep", "usleep", "sleep", "sched_yield",
}

VIOLATION_CLASSES = ("alloc", "lock", "throw", "io", "indirect")

# Leaves that are always fine in hot code: bounded, lock-free, no syscalls.
ALLOWED_EXACT = {
    "memcpy", "memset", "memmove", "memcmp", "bcmp",
    "strlen", "strcmp", "strncmp",
    "abort",  # audit::fail's last resort; never on the success path
    "_Unwind_Resume", "__stack_chk_fail",
    "__errno_location",  # libm sets errno via TLS, no syscall
}
# libm: every math wrapper is allocation/lock/syscall free.
ALLOWED_REGEX = re.compile(
    r"^(__)?(sqrt|cbrt|log1p|log2|log10|log|expm1|exp2|exp10|exp|pow|"
    r"fabs|floor|ceil|trunc|round|nearbyint|rint|fmod|remainder|"
    r"fmin|fmax|fdim|fma|hypot|copysign|ldexp|frexp|scalbn|"
    r"sin|cos|tan|asin|acos|atan2|atan|sinh|cosh|tanh|isnan|isinf|finite)"
    r"(f|l)?(_finite)?(@.*)?$"
)


def classify_forbidden(mangled: str, demangled: str) -> str | None:
    """Return the violation class for a symbol, or None if benign."""
    base = mangled.split("@")[0]
    if base in ALLOC_EXACT or base.startswith(ALLOC_MANGLED_PREFIXES):
        return "alloc"
    if demangled.startswith(("operator new", "operator delete")):
        return "alloc"
    if base.startswith(LOCK_PREFIXES):
        return "lock"
    if base in THROW_EXACT or demangled.startswith(THROW_DEMANGLED_PREFIXES):
        return "throw"
    if base in IO_EXACT:
        return "io"
    return None


def is_allowed_leaf(mangled: str) -> bool:
    base = mangled.split("@")[0]
    return base in ALLOWED_EXACT or ALLOWED_REGEX.match(base) is not None


# --------------------------------------------------------------------------
# Object-file parsing
# --------------------------------------------------------------------------

# "0000000000000000 <_ZN4olev...>:"
LABEL_RE = re.compile(r"^[0-9a-f]+ <([^>]+)>:$")
# "Disassembly of section .text._ZN...:"
SECTION_RE = re.compile(r"^Disassembly of section (\S+):$")
# "\t\t\t26: R_X86_64_PLT32\t_ZSt4sort...-0x4"
RELOC_RE = re.compile(r"^\s+[0-9a-f]+:\s+(R_X86_64_\w+)\s+(\S+)")
# indirect dispatch: any "call *" / memory-operand "jmp *(...)";
# register-operand "jmp *%reg" is a switch jump table, not dispatch.
INDIRECT_RE = re.compile(r"\t(?:notrack\s+)?(?:call\s+\*|jmp\s+\*[^%])")
# strip reloc addends: "_Znwm-0x4" / "foo+0x10"
ADDEND_RE = re.compile(r"[+-]0x[0-9a-f]+$")

CALL_RELOC_TYPES = {"R_X86_64_PLT32", "R_X86_64_PC32"}


@dataclass
class FunctionInfo:
    name: str
    object_file: str
    section: str
    calls: set = field(default_factory=set)      # reloc targets (raw names)
    indirect_sites: int = 0


@dataclass
class Manifest:
    roots: list = field(default_factory=list)
    stops: list = field(default_factory=list)
    vcalls: list = field(default_factory=list)   # (name, rationale)


def run_tool(cmd: list[str], **kw) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True, **kw)


def compile_one(cxx: str, source: str, obj: str, include_dirs: list[str],
                extra_flags: list[str]) -> str | None:
    cmd = [cxx, "-std=c++20", "-O2", "-ffunction-sections", "-g", "-c",
           source, "-o", obj]
    for inc in include_dirs:
        cmd += ["-I", inc]
    cmd += extra_flags
    proc = run_tool(cmd)
    if proc.returncode != 0:
        return f"compile failed: {' '.join(cmd)}\n{proc.stderr}"
    return None


def read_manifest_section(obj: str, section: str) -> list[str]:
    proc = run_tool(["readelf", "-p", section, obj])
    strings = []
    for line in proc.stdout.splitlines():
        m = re.match(r"^\s+\[\s*[0-9a-fx]+\]\s+(.*)$", line)
        if m:
            strings.append(m.group(1))
    return strings


def parse_object(obj: str) -> tuple[dict, dict, Manifest]:
    """Returns (functions by name, section->label map, manifest)."""
    manifest = Manifest()
    manifest.roots = read_manifest_section(obj, "olev_hot_roots")
    manifest.stops = read_manifest_section(obj, "olev_hot_stops")
    for entry in read_manifest_section(obj, "olev_hot_vcalls"):
        name, _, rationale = entry.partition("|")
        manifest.vcalls.append((name, rationale))

    proc = run_tool(["objdump", "-dr", "--no-show-raw-insn", obj])
    if proc.returncode != 0:
        raise RuntimeError(f"objdump failed on {obj}: {proc.stderr}")

    functions: dict[str, FunctionInfo] = {}
    section_label: dict[str, str] = {}
    current: FunctionInfo | None = None
    current_section = ""
    for line in proc.stdout.splitlines():
        m = SECTION_RE.match(line)
        if m:
            current_section = m.group(1)
            continue
        m = LABEL_RE.match(line)
        if m:
            name = m.group(1)
            current = FunctionInfo(name, obj, current_section)
            functions[name] = current
            # first label in a section names it (function sections hold one)
            section_label.setdefault(current_section, name)
            continue
        if current is None:
            continue
        m = RELOC_RE.match(line)
        if m:
            rtype, target = m.group(1), ADDEND_RE.sub("", m.group(2))
            if rtype in CALL_RELOC_TYPES:
                current.calls.add(target)
            continue
        if INDIRECT_RE.search(line):
            current.indirect_sites += 1
    return functions, section_label, manifest


def demangle_all(names: list[str]) -> dict[str, str]:
    """Batch c++filt; clone suffixes (.cold/.constprop.N) are demangled on
    the base name and re-attached as ' [clone .X]' like objdump renders."""
    bases, suffixes = [], []
    for n in names:
        m = re.match(r"^(_Z[^.]+)((?:\.[A-Za-z_]+\.?\d*)*)$", n)
        if m:
            bases.append(m.group(1))
            suffixes.append(m.group(2))
        else:
            bases.append(n)
            suffixes.append("")
    cxxfilt = shutil.which("c++filt")
    if cxxfilt is None:
        return {n: n for n in names}
    proc = run_tool([cxxfilt], input="\n".join(bases) + "\n")
    lines = proc.stdout.splitlines()
    result = {}
    for name, base, suffix, dem in zip(names, bases, suffixes, lines):
        if suffix:
            clone = " ".join(f"[clone {part}]"
                             for part in re.findall(r"\.[A-Za-z_]+\.?\d*",
                                                    suffix))
            dem = f"{dem} {clone}"
        result[name] = dem
    return result


# --------------------------------------------------------------------------
# Call-graph analysis
# --------------------------------------------------------------------------

def _names_at_start(name: str, pattern: str) -> bool:
    if name == pattern:
        return True
    for opener in ("(", "<"):
        if name.startswith(pattern + opener):
            return True
    return bool(re.match(re.escape(pattern) + r".* \[clone ", name))


def name_matches(demangled: str, pattern: str) -> bool:
    """OLEV_HOT_ROOT / OLEV_RT_VCALL_OK matching: the exact name, any
    overload, any template instantiation, and compiler clones thereof.  A
    function template's instantiation demangles with its return type first
    (`double ns::f<double>(double)`), so the name may also begin after any
    space outside brackets."""
    if _names_at_start(demangled, pattern):
        return True
    if pattern not in demangled:
        return False
    depth = 0
    for index, char in enumerate(demangled):
        if char in "<(":
            depth += 1
        elif char in ">)":
            depth -= 1
        elif (char == " " and depth == 0
              and _names_at_start(demangled[index + 1:], pattern)):
            return True
    return False


@dataclass
class Violation:
    kind: str
    chain: list            # demangled names root -> ... -> offender
    detail: str


class Analyzer:
    def __init__(self, objects: list[str], verbose: bool = False):
        self.verbose = verbose
        self.functions: dict[str, FunctionInfo] = {}
        self.section_label: dict[str, str] = {}
        self.manifest = Manifest()
        seen_manifest: set[str] = set()
        for obj in objects:
            funcs, sections, manifest = parse_object(obj)
            for name, info in funcs.items():
                if name in self.functions:
                    # COMDAT: identical ODR definitions; union the edges
                    self.functions[name].calls |= info.calls
                    self.functions[name].indirect_sites = max(
                        self.functions[name].indirect_sites,
                        info.indirect_sites)
                else:
                    self.functions[name] = info
            self.section_label.update(sections)
            for root in manifest.roots:
                if ("root", root) not in seen_manifest:
                    seen_manifest.add(("root", root))
                    self.manifest.roots.append(root)
            for stop in manifest.stops:
                if ("stop", stop) not in seen_manifest:
                    seen_manifest.add(("stop", stop))
                    self.manifest.stops.append(stop)
            for name, rationale in manifest.vcalls:
                if ("vcall", name) not in seen_manifest:
                    seen_manifest.add(("vcall", name))
                    self.manifest.vcalls.append((name, rationale))

        all_names = set(self.functions)
        for info in self.functions.values():
            all_names |= info.calls
        self.demangled = demangle_all(sorted(all_names))

    def resolve_target(self, target: str) -> str:
        """Map a reloc target to a defined function where possible:
        section-name targets (.text.*) resolve to the label defined there."""
        if target in self.functions:
            return target
        if target in self.section_label:
            return self.section_label[target]
        return target

    def match_functions(self, pattern: str) -> list[str]:
        return [name for name in self.functions
                if name_matches(self.demangled.get(name, name), pattern)]

    def is_stop(self, name: str) -> bool:
        dem = self.demangled.get(name, name)
        return any(dem.startswith(prefix) for prefix in self.manifest.stops)

    def vcall_allowed(self, name: str) -> bool:
        dem = self.demangled.get(name, name)
        return any(name_matches(dem, vname)
                   for vname, _ in self.manifest.vcalls)

    def check(self) -> tuple[list[Violation], list[str]]:
        violations: list[Violation] = []
        problems: list[str] = []
        root_functions: dict[str, list[str]] = {}
        for pattern in self.manifest.roots:
            matched = self.match_functions(pattern)
            # drop .cold fragments from the root set itself; they are
            # reached (and traversed) from their hot part
            matched = [m for m in matched if not m.endswith(".cold")]
            if not matched:
                problems.append(
                    f"OLEV_HOT_ROOT(\"{pattern}\") matches no defined "
                    f"function -- manifest drift (renamed or dead code?)")
            root_functions[pattern] = matched

        unknown_externals: set[str] = set()
        for pattern, starts in sorted(root_functions.items()):
            for start in starts:
                self._bfs(start, violations, unknown_externals)
        if self.verbose and unknown_externals:
            print("note: external leaves not in any policy list "
                  "(treated as benign):", file=sys.stderr)
            for name in sorted(unknown_externals):
                print(f"  {self.demangled.get(name, name)}", file=sys.stderr)
        return violations, problems

    def _bfs(self, root: str, violations: list[Violation],
             unknown_externals: set[str]) -> None:
        parent: dict[str, str | None] = {root: None}
        queue = [root]
        while queue:
            node = queue.pop(0)
            info = self.functions.get(node)
            if info is None:
                continue
            dem_node = self.demangled.get(node, node)
            if info.indirect_sites and not self.vcall_allowed(node):
                violations.append(Violation(
                    "indirect", self._chain(parent, node),
                    f"{info.indirect_sites} indirect call site(s) in "
                    f"'{dem_node}' without OLEV_RT_VCALL_OK "
                    f"({os.path.basename(info.object_file)})"))
            for raw in sorted(info.calls):
                target = self.resolve_target(raw)
                dem = self.demangled.get(target, target)
                kind = classify_forbidden(target, dem)
                if kind is not None:
                    violations.append(Violation(
                        kind, self._chain(parent, node) + [dem],
                        f"'{dem_node}' reaches forbidden symbol '{dem}' "
                        f"({os.path.basename(info.object_file)})"))
                    continue
                if target not in self.functions:
                    if not is_allowed_leaf(target) and \
                            not target.startswith((".rodata", ".data",
                                                   ".bss", ".LC", ".L")):
                        unknown_externals.add(target)
                    continue
                if self.is_stop(target):
                    continue  # sanctioned cold escape: do not traverse
                if target not in parent:
                    parent[target] = node
                    queue.append(target)

    def _chain(self, parent: dict, node: str) -> list[str]:
        chain = []
        cursor: str | None = node
        while cursor is not None:
            chain.append(self.demangled.get(cursor, cursor))
            cursor = parent.get(cursor)
        return list(reversed(chain))


# --------------------------------------------------------------------------
# Drivers
# --------------------------------------------------------------------------

def compile_sources(cxx: str, sources: list[str], build_dir: str,
                    include_dirs: list[str], extra_flags: list[str],
                    jobs: int) -> list[str]:
    os.makedirs(build_dir, exist_ok=True)
    objects, errors = [], []
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {}
        for idx, source in enumerate(sources):
            obj = os.path.join(build_dir, f"{idx:03d}_" +
                               os.path.basename(source) + ".o")
            objects.append(obj)
            futures[pool.submit(compile_one, cxx, source, obj,
                                include_dirs, extra_flags)] = source
        for future in concurrent.futures.as_completed(futures):
            err = future.result()
            if err:
                errors.append(err)
    if errors:
        raise RuntimeError("\n".join(errors))
    return objects


def report(violations: list[Violation], problems: list[str]) -> None:
    for problem in problems:
        print(f"rtcheck: manifest problem: {problem}")
    deduped: dict[tuple, Violation] = {}
    for v in violations:
        deduped.setdefault((v.kind, tuple(v.chain)), v)
    for v in deduped.values():
        print(f"rtcheck: [{v.kind}] {v.detail}")
        for depth, hop in enumerate(v.chain):
            print(f"    {'  ' * depth}{'-> ' if depth else ''}{hop}")
    total = len(deduped)
    if total or problems:
        print(f"rtcheck: FAIL -- {total} violation(s), "
              f"{len(problems)} manifest problem(s)")
    else:
        print("rtcheck: OK -- real-time wall holds")


def analyze(cxx: str, sources: list[str], build_dir: str,
            include_dirs: list[str], extra_flags: list[str], jobs: int,
            verbose: bool) -> tuple[list[Violation], list[str], Analyzer]:
    objects = compile_sources(cxx, sources, build_dir, include_dirs,
                              extra_flags, jobs)
    analyzer = Analyzer(objects, verbose=verbose)
    violations, problems = analyzer.check()
    return violations, problems, analyzer


def run_tree(args, src_root: str) -> int:
    sources = []
    for dirpath, _, filenames in os.walk(src_root):
        for filename in sorted(filenames):
            if filename.endswith(".cc"):
                sources.append(os.path.join(dirpath, filename))
    if not sources:
        print(f"rtcheck: no sources under {src_root}", file=sys.stderr)
        return 2
    print(f"rtcheck: analyzing {len(sources)} sources under {src_root}")
    violations, problems, analyzer = analyze(
        args.cxx, sources, args.build_dir, [src_root], [], args.jobs,
        args.verbose)
    print(f"rtcheck: {len(analyzer.functions)} functions, "
          f"{len(analyzer.manifest.roots)} roots, "
          f"{len(analyzer.manifest.stops)} stops, "
          f"{len(analyzer.manifest.vcalls)} vcall allowances")
    report(violations, problems)
    return 1 if (violations or problems) else 0


def run_check_file(args, src_root: str) -> int:
    sources = [args.check_file]
    hot_cc = os.path.join(src_root, "util", "hot.cc")
    if os.path.exists(hot_cc) and os.path.abspath(args.check_file) != \
            os.path.abspath(hot_cc):
        sources.append(hot_cc)  # brings the hot_fail stop registrations
    violations, problems, _ = analyze(
        args.cxx, sources, args.build_dir, [src_root], [], args.jobs,
        args.verbose)
    if args.expect_violation:
        hits = [v for v in violations if v.kind == args.expect_violation]
        if hits and not problems:
            print(f"rtcheck: expected [{args.expect_violation}] violation "
                  f"present ({len(hits)} chain(s)) -- negative test passes")
            return 0
        report(violations, problems)
        print(f"rtcheck: FAIL -- expected a [{args.expect_violation}] "
              f"violation, found none")
        return 1
    report(violations, problems)
    return 1 if (violations or problems) else 0


# --------------------------------------------------------------------------
# Self-test: embedded snippets with known verdicts
# --------------------------------------------------------------------------

SELF_TEST_COMMON = """
#include <cstddef>
#include "util/hot.h"
volatile double sink;
"""

SELF_TESTS = [
    ("clean arithmetic root passes", None, SELF_TEST_COMMON + """
OLEV_HOT_ROOT("st_clean");
OLEV_HOT __attribute__((noinline)) double st_clean(double x, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += x * i;
  return acc;
}
void st_clean_driver() { sink = st_clean(2.0, 16); }
"""),
    ("hot root reaching operator new is rejected", "alloc",
     SELF_TEST_COMMON + """
#include <vector>
OLEV_HOT_ROOT("st_alloc");
OLEV_HOT __attribute__((noinline)) double st_alloc(int n) {
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(i);
  return v.back();
}
void st_alloc_driver() { sink = st_alloc(8); }
"""),
    ("hot root taking a mutex is rejected", "lock", SELF_TEST_COMMON + """
#include <mutex>
std::mutex st_mu;
OLEV_HOT_ROOT("st_lock");
OLEV_HOT __attribute__((noinline)) double st_lock(double x) {
  std::lock_guard<std::mutex> hold(st_mu);
  return x * 2.0;
}
void st_lock_driver() { sink = st_lock(1.0); }
"""),
    ("hot root throwing is rejected", "throw", SELF_TEST_COMMON + """
OLEV_HOT_ROOT("st_throw");
OLEV_HOT __attribute__((noinline)) double st_throw(double x) {
  if (x < 0) throw 42;
  return x;
}
void st_throw_driver() { sink = st_throw(1.0); }
"""),
    ("hot root doing I/O is rejected", "io", SELF_TEST_COMMON + """
#include <unistd.h>
OLEV_HOT_ROOT("st_io");
OLEV_HOT __attribute__((noinline)) double st_io(double x) {
  char byte = 'x';
  (void)::write(1, &byte, 1);
  return x;
}
void st_io_driver() { sink = st_io(1.0); }
"""),
    ("unsanctioned virtual dispatch is rejected", "indirect",
     SELF_TEST_COMMON + """
struct StBase { virtual double f(double) const = 0; virtual ~StBase(); };
OLEV_HOT_ROOT("st_indirect");
OLEV_HOT __attribute__((noinline)) double st_indirect(const StBase& b,
                                                      double x) {
  return b.f(x) + b.f(x + 1.0);
}
void st_indirect_driver(const StBase& b) { sink = st_indirect(b, 1.0); }
"""),
    ("OLEV_RT_VCALL_OK sanctions virtual dispatch", None,
     SELF_TEST_COMMON + """
struct StBase2 { virtual double f(double) const = 0; virtual ~StBase2(); };
OLEV_HOT_ROOT("st_vcall");
OLEV_RT_VCALL_OK("st_vcall", "self-test: dispatch site is sanctioned");
OLEV_HOT __attribute__((noinline)) double st_vcall(const StBase2& b,
                                                   double x) {
  return b.f(x) + b.f(x + 1.0);
}
void st_vcall_driver(const StBase2& b) { sink = st_vcall(b, 1.0); }
"""),
    ("OLEV_RT_STOP scopes out the cold failure funnel", None,
     SELF_TEST_COMMON + """
namespace st_detail {
OLEV_RT_STOP("st_detail::fail");
[[noreturn]] OLEV_RT_COLD __attribute__((noinline)) void fail(const char* w) {
  throw w;
}
}  // namespace st_detail
OLEV_HOT_ROOT("st_stop");
OLEV_HOT __attribute__((noinline)) double st_stop(double x) {
  if (x < 0) st_detail::fail("negative");
  return x * 3.0;
}
void st_stop_driver() { sink = st_stop(1.0); }
"""),
    ("a function-template root matches past its return type", None,
     SELF_TEST_COMMON + """
OLEV_HOT_ROOT("st_template::scaled");
namespace st_template {
template <class T>
OLEV_HOT __attribute__((noinline)) T scaled(T x) { return x * T(3); }
}  // namespace st_template
void st_template_driver() { sink = st_template::scaled<double>(1.0); }
"""),
    ("a root matching no function is a manifest problem", "problem",
     SELF_TEST_COMMON + """
OLEV_HOT_ROOT("st_function_that_does_not_exist");
"""),
]


def run_self_test(args, src_root: str) -> int:
    failures = 0
    for index, (label, expect, code) in enumerate(SELF_TESTS):
        case_dir = os.path.join(args.build_dir, f"selftest_{index}")
        os.makedirs(case_dir, exist_ok=True)
        source = os.path.join(case_dir, "snippet.cc")
        with open(source, "w") as handle:
            handle.write(code)
        try:
            violations, problems, _ = analyze(
                args.cxx, [source], case_dir, [src_root], [], 1, False)
        except RuntimeError as err:
            print(f"self-test FAIL  {label}: {err}")
            failures += 1
            continue
        if expect == "problem":
            verdict_ok = bool(problems)
        elif expect is None:
            verdict_ok = not violations and not problems
        else:
            verdict_ok = any(v.kind == expect for v in violations)
        status = "ok  " if verdict_ok else "FAIL"
        print(f"self-test {status}  {label}")
        if not verdict_ok:
            report(violations, problems)
            failures += 1
    print(f"self-test: {len(SELF_TESTS) - failures}/{len(SELF_TESTS)} "
          f"cases behave as specified")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src-root", default=None,
                        help="source root (default: <repo>/src)")
    parser.add_argument("--cxx", default=os.environ.get("CXX", "g++"))
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    parser.add_argument("--build-dir", default=None,
                        help="object directory (default: a temp dir)")
    parser.add_argument("--check-file", default=None,
                        help="analyze one source file (+ util/hot.cc)")
    parser.add_argument("--expect-violation", choices=VIOLATION_CLASSES,
                        default=None,
                        help="with --check-file: require this violation")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    for tool in (args.cxx, "objdump", "readelf"):
        if shutil.which(tool) is None:
            print(f"rtcheck: required tool '{tool}' not found", file=sys.stderr)
            return 2

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src_root = args.src_root or os.path.join(repo_root, "src")
    if not os.path.isdir(src_root):
        print(f"rtcheck: source root {src_root} not found", file=sys.stderr)
        return 2

    temp_dir = None
    if args.build_dir is None:
        temp_dir = tempfile.mkdtemp(prefix="olev_rtcheck_")
        args.build_dir = temp_dir
    try:
        if args.self_test:
            return run_self_test(args, src_root)
        if args.check_file:
            return run_check_file(args, src_root)
        return run_tree(args, src_root)
    finally:
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
