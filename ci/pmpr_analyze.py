#!/usr/bin/env python3
"""pmpr-analyze: whole-program layering, lock-order, and header-hygiene
analysis.

Where ci/pmpr_lint.py checks one file at a time, this tool builds
*cross-module* state — the include graph and the global lock-acquisition
graph — from a single scan of the tree (ci/pmpr_scan.py) plus, when
available, the build's compile_commands.json (freshness-checked so a stale
cache cannot silently bless a rotten include graph). No libclang: every
pass is driven by the comment-stripped source text, which keeps the gate
runnable on any box with a Python interpreter.

Passes (each an always-on ctest gate; select with --pass):

  layers   The module DAG declared in ci/layers.toml (util → obs → par →
           graph → gen → pagerank → analysis/streaming → exec) against the
           actual include graph. Findings:
             layer-violation      include edge the DAG forbids
             include-cycle        file-level #include cycle (any module)
             undeclared-module    src/ directory absent from layers.toml
             config-cycle         the declared DAG itself is cyclic

  locks    Global lock-order model from PMPR_GUARDED_BY / PMPR_ACQUIRE /
           PMPR_RELEASE / PMPR_EXCLUDES annotations plus lexical
           LockGuard/CondVar scopes. Findings:
             lock-order-cycle     inconsistent acquisition order between
                                  two locks (potential deadlock)
             recursive-lock       re-acquiring a held (non-recursive) lock
             lock-across-wait     lock held across pool.submit / task
                                  wait / join / parallel_for (condvar
                                  waits are exempt: they release the lock)
             excludes-violation   calling a PMPR_EXCLUDES(m) function
                                  while (lexically) holding m
           The model is lexical and name-based; DESIGN.md documents its
           false-negative limits (aliasing, cross-TU call chains).

  hygiene  Header discipline:
             missing-pragma-once  header without #pragma once
             transitive-macro-include
                                  file uses a PMPR_* macro but only gets
                                  its defining header transitively
             internal-header-leak include of an [internal] header from
                                  outside its owning module
             unresolved-include   quoted include that resolves to no file

Findings are matched against ci/analyze_baseline.json; unmatched findings
fail (exit 1), and suppressions that no longer match anything fail too
(stale-suppression), so the gate is fail-closed in both directions.
--json writes a versioned report (schema pmpr-analyze-v1) mirroring the
obs metrics pattern, so CI diffs are reviewable artifacts.

Usage:
  pmpr_analyze.py [--root R] [--config ci/layers.toml]
                  [--baseline ci/analyze_baseline.json]
                  [--compile-commands BUILD/compile_commands.json]
                  [--pass {layers,locks,hygiene,lint,all}]
                  [--json OUT] [--strict-freshness] [--verbose] [PATH ...]

PATH defaults to <root>/src.
"""

import argparse
import json
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import pmpr_scan  # noqa: E402  (sibling module, not a package)

BASELINE_SCHEMA = "pmpr-analyze-baseline-v1"
REPORT_SCHEMA = "pmpr-analyze-v1"


# --------------------------------------------------------------------------
# Config (ci/layers.toml). Hand-rolled parser for the tiny subset we use —
# [section] headers and `key = ["a", "b"]` string-list entries — so the
# gate does not depend on tomllib being importable.
# --------------------------------------------------------------------------


def parse_layers_config(path):
    sections = {}
    current = None
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise SystemExit(f"pmpr-analyze: cannot read config {path}: {e}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        if raw.lstrip().startswith("#"):
            continue
        if '"' in raw:
            # Strip trailing comments conservatively: only after the last
            # quote, so '#' inside a quoted string survives.
            tail = raw.rfind('"')
            hash_idx = raw.find("#", tail + 1)
            line = (raw[:hash_idx] if hash_idx >= 0 else raw).strip()
        else:
            line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            raise SystemExit(
                f"pmpr-analyze: {path}:{lineno}: unsupported syntax: {raw!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if not (value.startswith("[") and value.endswith("]")):
            raise SystemExit(
                f"pmpr-analyze: {path}:{lineno}: expected a string list"
            )
        sections[current][key] = re.findall(r'"([^"]*)"', value)
    if "layers" not in sections or not sections["layers"]:
        raise SystemExit(f"pmpr-analyze: {path}: missing [layers] section")
    return {
        "layers": sections["layers"],
        "internal": sections.get("internal", {}).get("headers", []),
    }


def config_cycle(layers):
    """Returns one cycle (list of modules) in the declared DAG, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {m: WHITE for m in layers}
    stack = []

    def dfs(m):
        color[m] = GRAY
        stack.append(m)
        for dep in layers.get(m, []):
            if dep not in color:
                continue
            if color[dep] == GRAY:
                return stack[stack.index(dep):] + [dep]
            if color[dep] == WHITE:
                found = dfs(dep)
                if found:
                    return found
        stack.pop()
        color[m] = BLACK
        return None

    for m in sorted(layers):
        if color[m] == WHITE:
            found = dfs(m)
            if found:
                return found
    return None


# --------------------------------------------------------------------------
# Tree model: module assignment + include resolution.
# --------------------------------------------------------------------------


def module_of(rel):
    """Module of a src-relative path: 'src/util/x.hpp' -> 'util'; files
    directly under src/ (the umbrella) -> None."""
    parts = pathlib.PurePosixPath(rel).parts
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


class Tree:
    """All scanned files plus the resolved project include graph."""

    def __init__(self, scans, src_root, root):
        self.scans = scans
        self.root = root
        self.by_rel = {s.rel: s for s in scans}
        # Include target "util/check.hpp" -> rel "src/util/check.hpp".
        self.target_of = {}
        for s in scans:
            try:
                target = s.path.resolve().relative_to(src_root).as_posix()
            except ValueError:
                continue
            self.target_of[target] = s.rel
        # rel -> [(lineno, target, resolved_rel_or_None)]
        self.edges = {}
        for s in scans:
            self.edges[s.rel] = [
                (lineno, target, self.target_of.get(target))
                for lineno, target in s.includes
            ]


# --------------------------------------------------------------------------
# Pass 1: layering.
# --------------------------------------------------------------------------


def pass_layers(tree, config, report):
    findings = []
    layers = config["layers"]

    cyc = config_cycle(layers)
    if cyc:
        findings.append(
            ("layers", "config-cycle", "ci/layers.toml", 0,
             "declared module DAG is cyclic: " + " -> ".join(cyc))
        )

    # Module-level edge audit with per-file witnesses.
    actual_deps = {}
    for rel, edges in sorted(tree.edges.items()):
        mod = module_of(rel)
        if mod is None:
            continue  # umbrella files may include everything
        if mod not in layers:
            findings.append(
                ("layers", "undeclared-module", rel, 0,
                 f"module '{mod}' is not declared in layers.toml")
            )
            continue
        allowed = set(layers[mod]) | {mod}
        for lineno, target, resolved in edges:
            if resolved is None:
                continue  # unresolved includes are a hygiene finding
            dep = module_of(resolved)
            if dep is None:
                dep = "<src-root>"
            actual_deps.setdefault(mod, set()).add(dep)
            if dep not in allowed:
                findings.append(
                    ("layers", "layer-violation", rel, lineno,
                     f"includes \"{target}\": module '{mod}' may not "
                     f"depend on '{dep}' (allowed: "
                     f"{', '.join(sorted(allowed)) or 'none'})")
                )

    # File-level include cycles (Tarjan SCC, iterative).
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]
    nodes = sorted(tree.edges)

    def strong_connect(v0):
        work = [(v0, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack.add(v)
            succs = [r for _, _, r in tree.edges.get(v, []) if r is not None]
            recursed = False
            for i in range(pi, len(succs)):
                w = succs[i]
                if w not in index:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    recursed = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if recursed:
                continue
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                sccs.append(scc)

    for v in nodes:
        if v not in index:
            strong_connect(v)
    for scc in sccs:
        self_loop = len(scc) == 1 and any(
            r == scc[0] for _, _, r in tree.edges.get(scc[0], [])
        )
        if len(scc) > 1 or self_loop:
            members = sorted(scc)
            findings.append(
                ("layers", "include-cycle", members[0], 0,
                 "#include cycle: " + " -> ".join(members + [members[0]]))
            )

    report["modules"] = {
        mod: {
            "declared": sorted(layers.get(mod, [])),
            "actual": sorted(actual_deps.get(mod, set()) - {mod}),
        }
        for mod in sorted(set(layers) | set(actual_deps))
    }
    return findings


# --------------------------------------------------------------------------
# Pass 2: lock order.
# --------------------------------------------------------------------------

LOCKGUARD_RE = re.compile(r"\bLockGuard\s+\w+\s*[({]")
MUTEX_DECL_RE = re.compile(r"\b(?:mutable\s+)?(?:pmpr::)?Mutex\s+(\w+)\s*;")
CONDVAR_DECL_RE = re.compile(r"\b(?:pmpr::)?CondVar\s+(\w+)\s*;")
GUARDED_BY_RE = re.compile(r"(\w+)\s+PMPR_(?:PT_)?GUARDED_BY\s*\(")
FN_ANNOT_RE = re.compile(
    r"(\w+)\s*\([^;{}]*?\)\s*(?:const\b\s*)?(?:override\b\s*)?"
    r"(?:noexcept\b\s*)?PMPR_(ACQUIRE|RELEASE|EXCLUDES)\s*\("
)
BLOCKING_MEMBER_RE = re.compile(
    r"\b(\w+)\s*(?:\.|->)\s*(submit|wait|wait_for|wait_until|join)\s*\("
)
BLOCKING_FREE_RE = re.compile(
    r"\b(parallel_for_range|parallel_for|parallel_reduce)\s*\("
)
CALL_RE = re.compile(r"\b(\w+)\s*\(")

# The annotation vocabulary itself — not a lock user.
LOCKS_SKIP_FILES = ("util/thread_annotations.hpp",)


def _extract_paren(text, open_idx):
    """Returns the balanced contents of the paren opening at open_idx."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_idx + 1:i]
    return text[open_idx + 1:]


def _norm_expr(expr):
    expr = re.sub(r"\s+", "", expr)
    expr = expr.replace("this->", "")
    return expr


def _last_ident(expr):
    idents = re.findall(r"\w+", expr)
    return idents[-1] if idents else expr


def pass_locks(tree, report):
    findings = []
    condvars = set()
    mutexes = {}  # node id -> {"file": rel, "guards": [members]}
    acquire_fns = {}  # fn name -> (mutex last-ident or "", file, line)
    excludes_fns = {}  # fn name -> (mutex last-ident, file, line)

    scans = [
        s for s in tree.scans
        if not any(s.rel.endswith(skip) for skip in LOCKS_SKIP_FILES)
    ]

    # Harvest declarations and annotations.
    for s in scans:
        stem = pathlib.PurePosixPath(s.rel).stem
        for i, code in enumerate(s.code):
            for m in CONDVAR_DECL_RE.finditer(code):
                condvars.add(m.group(1))
            for m in MUTEX_DECL_RE.finditer(code):
                mutexes.setdefault(
                    f"{stem}:{m.group(1)}",
                    {"file": s.rel, "line": i + 1, "guards": []},
                )
            for m in GUARDED_BY_RE.finditer(code):
                paren = code.index("(", m.end() - 1)
                mu = _last_ident(_extract_paren(code, paren))
                node = f"{stem}:{mu}"
                mutexes.setdefault(
                    node, {"file": s.rel, "line": i + 1, "guards": []}
                )
                mutexes[node]["guards"].append(m.group(1))
            if "PMPR_ACQUIRE" in code or "PMPR_EXCLUDES" in code:
                window = " ".join(s.code[max(0, i - 2): i + 1])
                for m in FN_ANNOT_RE.finditer(window):
                    kind = m.group(2)
                    open_idx = window.index("(", m.end() - 1)
                    mu = _last_ident(_extract_paren(window, open_idx))
                    entry = (mu, s.rel, i + 1)
                    if kind == "ACQUIRE":
                        acquire_fns[m.group(1)] = entry
                    elif kind == "EXCLUDES":
                        excludes_fns[m.group(1)] = entry

    # Lexical scope walk: per file, track brace depth and the stack of
    # lexically-held LockGuards; acquisition order edges + blocking calls
    # are recorded in character order so `{ LockGuard l(m); } pool.wait(w)`
    # on one line does not false-positive.
    edges = {}  # (from_node, to_node) -> (file, line)

    def add_edge(a, b, rel, lineno):
        if a != b:
            edges.setdefault((a, b), (rel, lineno))

    for s in scans:
        stem = pathlib.PurePosixPath(s.rel).stem
        depth = 0
        held = []  # list of (node, expr, depth_at_decl, line)
        for i, code in enumerate(s.code):
            events = []  # (pos, kind, payload)
            for pos, ch in enumerate(code):
                if ch in "{}":
                    events.append((pos, ch, None))
            for m in LOCKGUARD_RE.finditer(code):
                open_idx = m.end() - 1
                expr = _norm_expr(_extract_paren(code, open_idx))
                events.append((m.start(), "guard", expr))
            for m in BLOCKING_MEMBER_RE.finditer(code):
                recv, meth = m.group(1), m.group(2)
                if recv in condvars or recv == "cv_":
                    continue  # condvar waits release the lock
                events.append((m.start(), "block", f"{recv}.{meth}()"))
            for m in BLOCKING_FREE_RE.finditer(code):
                events.append((m.start(), "block", f"{m.group(1)}()"))
            if "PMPR_" not in code:
                for m in CALL_RE.finditer(code):
                    fn = m.group(1)
                    if fn in excludes_fns:
                        events.append((m.start(), "call-excl", fn))
                    if fn in acquire_fns:
                        events.append((m.start(), "call-acq", fn))
            events.sort(key=lambda e: e[0])
            for _, kind, payload in events:
                if kind == "{":
                    depth += 1
                elif kind == "}":
                    depth -= 1
                    while held and held[-1][2] > depth:
                        held.pop()
                    if depth <= 0:
                        depth = max(depth, 0)
                        held.clear() if depth == 0 else None
                elif kind == "guard":
                    node = f"{stem}:{payload}"
                    for h_node, h_expr, _, h_line in held:
                        if h_expr == payload:
                            findings.append(
                                ("locks", "recursive-lock", s.rel, i + 1,
                                 f"LockGuard({payload}) while already "
                                 f"holding it (acquired line {h_line}; "
                                 "pmpr::Mutex is non-recursive)")
                            )
                        else:
                            add_edge(h_node, node, s.rel, i + 1)
                    held.append((node, payload, depth, i + 1))
                    mutexes.setdefault(
                        node, {"file": s.rel, "line": i + 1, "guards": []}
                    )
                elif kind == "block" and held:
                    locks = ", ".join(h[1] for h in held)
                    findings.append(
                        ("locks", "lock-across-wait", s.rel, i + 1,
                         f"{payload} called while holding {locks}: a lock "
                         "held across a scheduler boundary deadlocks once "
                         "the helping thread re-enters user code")
                    )
                elif kind == "call-excl" and held:
                    mu, decl_rel, decl_line = excludes_fns[payload]
                    for _, h_expr, _, _ in held:
                        if _last_ident(h_expr) == mu:
                            findings.append(
                                ("locks", "excludes-violation", s.rel, i + 1,
                                 f"{payload}() requires PMPR_EXCLUDES({mu}) "
                                 f"({decl_rel}:{decl_line}) but {h_expr} is "
                                 "held here")
                            )
                elif kind == "call-acq" and held:
                    mu, _, _ = acquire_fns[payload]
                    if mu:
                        for h_node, _, _, _ in held:
                            add_edge(h_node, f"{stem}:{mu}", s.rel, i + 1)

    # Cycle detection over the acquired-before graph.
    adj = {}
    for (a, b), _ in edges.items():
        adj.setdefault(a, set()).add(b)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    seen_cycles = set()

    def dfs(v, path):
        color[v] = GRAY
        path.append(v)
        for w in sorted(adj.get(v, ())):
            if color.get(w, WHITE) == GRAY:
                cyc = tuple(path[path.index(w):] + [w])
                key = frozenset(cyc)
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    witnesses = []
                    for x, y in zip(cyc, cyc[1:]):
                        rel, line = edges[(x, y)]
                        witnesses.append(f"{x}->{y} at {rel}:{line}")
                    findings.append(
                        ("locks", "lock-order-cycle",
                         edges[(cyc[0], cyc[1])][0],
                         edges[(cyc[0], cyc[1])][1],
                         "inconsistent lock order (potential deadlock): "
                         + "; ".join(witnesses))
                    )
            elif color.get(w, WHITE) == WHITE:
                dfs(w, path)
        path.pop()
        color[v] = BLACK

    for v in sorted(adj):
        if color.get(v, WHITE) == WHITE:
            dfs(v, [])

    report["lock_graph"] = {
        "locks": {
            node: {
                "file": info["file"],
                "guards": sorted(set(info["guards"])),
            }
            for node, info in sorted(mutexes.items())
        },
        "acquired_before": [
            {"from": a, "to": b, "file": rel, "line": line}
            for (a, b), (rel, line) in sorted(edges.items())
        ],
        "condvars": sorted(condvars),
        "excludes_annotations": {
            fn: mu for fn, (mu, _, _) in sorted(excludes_fns.items())
        },
    }
    return findings


# --------------------------------------------------------------------------
# Pass 3: header hygiene.
# --------------------------------------------------------------------------

PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")
DEFINE_RE = re.compile(r"^\s*#\s*define\s+(PMPR_[A-Z0-9_]+)")
MACRO_USE_RE = re.compile(r"\bPMPR_[A-Z0-9_]+\b")
PREPROC_RE = re.compile(r"^\s*#")


def pass_hygiene(tree, config, report):
    findings = []

    # Macro -> defining header(s). Only headers: a macro defined in a .cpp
    # is file-local by construction.
    definers = {}
    for s in tree.scans:
        if not s.is_header():
            continue
        for code in s.code:
            m = DEFINE_RE.match(code)
            if m:
                definers.setdefault(m.group(1), set()).add(s.rel)

    internal = {
        t: tree.target_of.get(t) for t in config["internal"]
    }

    for s in sorted(tree.scans, key=lambda s: s.rel):
        direct = {r for _, _, r in tree.edges.get(s.rel, []) if r is not None}

        if s.is_header() and not any(
            PRAGMA_ONCE_RE.match(c) for c in s.code
        ):
            findings.append(
                ("hygiene", "missing-pragma-once", s.rel, 1,
                 "header without #pragma once")
            )

        for lineno, target, resolved in tree.edges.get(s.rel, []):
            if resolved is None:
                findings.append(
                    ("hygiene", "unresolved-include", s.rel, lineno,
                     f"\"{target}\" does not resolve to a scanned file")
                )
                continue
            if target in internal:
                owner = module_of(resolved)
                if module_of(s.rel) != owner:
                    findings.append(
                        ("hygiene", "internal-header-leak", s.rel, lineno,
                         f"\"{target}\" is internal to '{owner}' "
                         "(ci/layers.toml [internal]); include the "
                         "module's public API instead")
                    )

        # Macro uses that only work because of a transitive include.
        reported = set()
        for i, code in enumerate(s.code):
            if PREPROC_RE.match(code):
                continue  # #ifdef PMPR_X etc. probe, not use
            for macro in MACRO_USE_RE.findall(code):
                if macro in reported:
                    continue
                owners = definers.get(macro)
                if owners is None or len(owners) != 1:
                    continue  # build-defined or ambiguous: out of scope
                owner = next(iter(owners))
                if owner == s.rel or owner in direct:
                    continue
                reported.add(macro)
                findings.append(
                    ("hygiene", "transitive-macro-include", s.rel, i + 1,
                     f"uses {macro} but does not include its definer "
                     f"\"{owner[4:] if owner.startswith('src/') else owner}\""
                     " directly (include what you use)")
                )

    report["macro_definers"] = {
        m: sorted(files) for m, files in sorted(definers.items())
        if len(files) == 1
    }
    return findings


# --------------------------------------------------------------------------
# Freshness: a stale compile_commands.json means the include graph we just
# scanned may not be the one the build sees.
# --------------------------------------------------------------------------


def check_freshness(cc_path, root):
    """Returns a warning string, or None."""
    cc = pathlib.Path(cc_path)
    if not cc.exists():
        return (
            f"compile_commands.json not found at {cc}; analysis ran from "
            "the source scan alone (run cmake to cross-check the build)"
        )
    cache = cc.parent / "CMakeCache.txt"
    stamp = min(
        p.stat().st_mtime for p in [cc, cache] if p.exists()
    )
    newest = None
    for cml in [
        root / "CMakeLists.txt",
        root / "src" / "CMakeLists.txt",
        root / "tests" / "CMakeLists.txt",
        root / "bench" / "CMakeLists.txt",
        root / "examples" / "CMakeLists.txt",
    ]:
        if cml.exists():
            mt = cml.stat().st_mtime
            if newest is None or mt > newest:
                newest = mt
                newest_file = cml
    if newest is not None and newest > stamp:
        return (
            f"stale CMake cache: {newest_file.relative_to(root)} is newer "
            f"than {cc.name} — re-run cmake so the include graph matches "
            "the build"
        )
    return None


def compile_commands_tus(cc_path, root):
    """Set of src-relative .cpp paths the build actually compiles."""
    try:
        entries = json.loads(pathlib.Path(cc_path).read_text())
    except (OSError, ValueError):
        return None
    tus = set()
    for e in entries:
        f = pathlib.Path(e.get("file", ""))
        if not f.is_absolute():
            f = pathlib.Path(e.get("directory", ".")) / f
        try:
            tus.add(f.resolve().relative_to(root).as_posix())
        except ValueError:
            continue
    return tus


# --------------------------------------------------------------------------
# Baseline.
# --------------------------------------------------------------------------


def load_baseline(path):
    p = pathlib.Path(path)
    if not p.exists():
        return []
    try:
        data = json.loads(p.read_text())
    except ValueError as e:
        raise SystemExit(f"pmpr-analyze: malformed baseline {path}: {e}")
    if data.get("schema") != BASELINE_SCHEMA:
        raise SystemExit(
            f"pmpr-analyze: {path}: schema {data.get('schema')!r} != "
            f"{BASELINE_SCHEMA!r}"
        )
    sups = data.get("suppressions", [])
    for s in sups:
        if not all(k in s for k in ("rule", "file", "reason")):
            raise SystemExit(
                f"pmpr-analyze: {path}: every suppression needs "
                f"rule/file/reason: {s}"
            )
    return sups


def apply_baseline(findings, suppressions):
    """Returns (annotated findings, stale suppression findings)."""
    used = [False] * len(suppressions)
    out = []
    for passname, rule, rel, lineno, msg in findings:
        suppressed = False
        for i, s in enumerate(suppressions):
            if s["rule"] != rule or s["file"] != rel:
                continue
            if "contains" in s and s["contains"] not in msg:
                continue
            used[i] = True
            suppressed = True
        out.append((passname, rule, rel, lineno, msg, suppressed))
    stale = [
        ("baseline", "stale-suppression", s["file"], 0,
         f"suppression for [{s['rule']}] no longer matches any finding "
         f"(reason was: {s['reason']}); delete it", False)
        for i, s in enumerate(suppressions) if not used[i]
    ]
    return out, stale


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--root", default=".", help="repo root")
    ap.add_argument("--config", default=None,
                    help="layers config (default <root>/ci/layers.toml, "
                    "falling back to <root>/layers.toml)")
    ap.add_argument("--baseline", default=None,
                    help="suppression file (default "
                    "<root>/ci/analyze_baseline.json)")
    ap.add_argument("--compile-commands", default=None,
                    help="build compile_commands.json for freshness and "
                    "TU-coverage cross-checks")
    ap.add_argument("--pass", dest="passes", default="all",
                    choices=["layers", "locks", "hygiene", "lint", "all"])
    ap.add_argument("--json", dest="json_out", default=None,
                    help="write the versioned findings report here")
    ap.add_argument("--strict-freshness", action="store_true",
                    help="treat a stale/missing compile_commands.json as a "
                    "failure instead of a warning")
    ap.add_argument("--verbose", action="store_true")
    ap.add_argument("paths", nargs="*", help="default: <root>/src")
    args = ap.parse_args()

    root = pathlib.Path(args.root).resolve()
    src_root = root / "src"
    paths = args.paths or [str(src_root)]

    config_path = args.config
    if config_path is None:
        for candidate in (root / "ci" / "layers.toml", root / "layers.toml"):
            if candidate.exists():
                config_path = candidate
                break
        if config_path is None:
            raise SystemExit(
                f"pmpr-analyze: no layers.toml under {root} (looked in ci/ "
                "and the root); pass --config"
            )
    config = parse_layers_config(config_path)

    baseline_path = args.baseline or (root / "ci" / "analyze_baseline.json")
    suppressions = load_baseline(baseline_path)

    scans = [
        pmpr_scan.FileScan(f, pmpr_scan.rel_to_root(f, root))
        for f in pmpr_scan.collect_files(paths)
    ]
    io_errors = [
        ("scan", "io-error", s.rel, 0, s.error) for s in scans
        if s.error is not None
    ]
    scans = [s for s in scans if s.error is None]
    tree = Tree(scans, src_root, root)

    warnings = []
    if args.compile_commands:
        warn = check_freshness(args.compile_commands, root)
        if warn:
            warnings.append(warn)
        elif args.verbose:
            tus = compile_commands_tus(args.compile_commands, root)
            if tus is not None:
                scanned_cpp = {
                    s.rel for s in scans if s.path.suffix == ".cpp"
                }
                missing = sorted(scanned_cpp - tus)
                if missing:
                    print(
                        "pmpr-analyze: note: scanned but not in "
                        f"compile_commands.json: {', '.join(missing)}"
                    )

    report = {
        "schema": REPORT_SCHEMA,
        "pass": args.passes,
        "root": str(root),
        "config": str(config_path),
        "files_scanned": len(scans),
        "warnings": warnings,
    }

    findings = list(io_errors)
    if args.passes in ("layers", "all"):
        findings += pass_layers(tree, config, report)
    if args.passes in ("locks", "all"):
        findings += pass_locks(tree, report)
    if args.passes in ("hygiene", "all"):
        findings += pass_hygiene(tree, config, report)
    if args.passes == "lint":
        # The pmpr-lint rules ride the same single scan (same FileScan
        # objects) — pmpr_lint.py remains the canonical CLI, this mode
        # exists so ci/check_all.sh can share one tree walk.
        import pmpr_lint
        findings += [
            ("lint", rule, rel, lineno, msg)
            for rel, lineno, rule, msg in pmpr_scan.run_rules(
                scans, pmpr_lint.RULES
            )
        ]

    findings.sort(key=lambda f: (f[0], f[2], f[3], f[1], f[4]))
    annotated, stale = apply_baseline(findings, suppressions)
    annotated += stale
    if args.strict_freshness:
        annotated += [
            ("freshness", "stale-compile-commands", "compile_commands.json",
             0, w, False)
            for w in warnings
        ]

    failed = [f for f in annotated if not f[5]]
    suppressed_count = sum(1 for f in annotated if f[5])

    report["findings"] = [
        {
            "pass": p, "rule": rule, "file": rel, "line": lineno,
            "message": msg, "suppressed": sup,
        }
        for p, rule, rel, lineno, msg, sup in annotated
    ]
    report["summary"] = {
        "total": len(annotated),
        "suppressed": suppressed_count,
        "failed": len(failed),
    }

    if args.json_out:
        out = pathlib.Path(args.json_out)
        out.write_text(json.dumps(report, indent=2) + "\n")

    for w in warnings:
        print(f"pmpr-analyze: warning: {w}", file=sys.stderr)
    for p, rule, rel, lineno, msg, sup in annotated:
        tag = " (suppressed)" if sup else ""
        print(f"{rel}:{lineno}: [{rule}] {msg}{tag}")
    if failed:
        print(
            f"pmpr-analyze[{args.passes}]: {len(failed)} finding(s) "
            f"({suppressed_count} suppressed) in {len(scans)} file(s)"
        )
        return 1
    print(
        f"pmpr-analyze[{args.passes}]: OK ({len(scans)} file(s), "
        f"{suppressed_count} suppressed)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
