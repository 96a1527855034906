"""The reprolint engine: rule registry, pragmas, baseline, and output.

reprolint is an AST-only static-analysis pass (no imports of the code it
checks) enforcing the simulation-correctness invariants that no unit test
can directly observe: determinism, deadlined RPC, owned PTE mutation,
balanced resource acquisition, and non-re-entrant event callbacks.

Extension points:

* ``@rule("name")`` registers a checker: a function taking a
  :class:`SourceFile` and yielding ``(lineno, message)`` pairs.
* Per-rule ``severity`` ("error" fails the run, "warning" is report-only),
  ``paths`` (path prefixes the rule applies to) and ``exempt`` (path
  prefixes it skips — e.g. the one module allowed to own an invariant).
* ``# reprolint: disable=<rule>[,<rule>...]`` on the *flagged line*
  suppresses a finding; use it only with a justification comment nearby.
* A committed JSON baseline grandfathers pre-existing findings so new code
  is held to the rules while old debt is paid down incrementally.
"""

import ast
import hashlib
import json
import os
import re

SEVERITIES = ("error", "warning")

#: Matches a line pragma anywhere in the trailing comment of a line.
_PRAGMA_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\-\s]+)")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
DEFAULT_SCAN_ROOT = os.path.join("src", "repro")
DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "baseline.json")


class Finding:
    """One rule violation at a specific source line."""

    __slots__ = ("rule", "severity", "path", "line", "message")

    def __init__(self, rule, severity, path, line, message):
        self.rule = rule
        self.severity = severity
        self.path = path
        self.line = line
        self.message = message

    def key(self):
        """Stable identity used by the baseline (line-insensitive digest)."""
        digest = hashlib.sha256(
            ("%s|%s|%s" % (self.rule, self.path, self.message)).encode()
        ).hexdigest()[:12]
        return "%s:%s:%s" % (self.rule, self.path, digest)

    def as_dict(self):
        return {"rule": self.rule, "severity": self.severity,
                "path": self.path, "line": self.line,
                "message": self.message}

    def render(self):
        return "%s:%d: [%s/%s] %s" % (
            self.path, self.line, self.rule, self.severity, self.message)


class SourceFile:
    """One parsed file handed to every applicable rule."""

    def __init__(self, abs_path, rel_path):
        self.abs_path = abs_path
        #: Repo-relative POSIX path (what rules match on and findings report).
        self.path = rel_path.replace(os.sep, "/")
        with open(abs_path, encoding="utf-8") as handle:
            self.source = handle.read()
        self.tree = ast.parse(self.source, filename=abs_path)
        self.lines = self.source.splitlines()
        self._disabled = self._parse_pragmas()

    def _parse_pragmas(self):
        disabled = {}
        for lineno, line in enumerate(self.lines, start=1):
            if "reprolint" not in line:
                continue
            match = _PRAGMA_RE.search(line)
            if match:
                names = {n.strip() for n in match.group(1).split(",")}
                disabled[lineno] = {n for n in names if n}
        return disabled

    def disabled_on(self, lineno, rule_name):
        """True when a line pragma suppresses ``rule_name`` at ``lineno``."""
        names = self._disabled.get(lineno)
        return names is not None and (rule_name in names or "all" in names)


class Rule:
    """A registered checker plus its metadata."""

    def __init__(self, name, check, severity, paths, exempt, doc):
        if severity not in SEVERITIES:
            raise ValueError("severity must be one of %r" % (SEVERITIES,))
        self.name = name
        self.check = check
        self.severity = severity
        self.paths = tuple(paths)
        self.exempt = tuple(exempt)
        self.doc = doc

    def applies_to(self, rel_path):
        if self.paths and not any(rel_path.startswith(p) for p in self.paths):
            return False
        return not any(rel_path.startswith(p) for p in self.exempt)

    def run(self, source_file):
        for lineno, message in self.check(source_file):
            yield Finding(self.name, self.severity, source_file.path,
                          lineno, message)


#: name -> Rule.  Populated by the :func:`rule` decorator at import time;
#: anything (plugins, repo-local checks) may register more before run().
REGISTRY = {}


def rule(name, severity="error", paths=("src/repro",), exempt=()):
    """Register a checker function under ``name``."""
    def decorator(func):
        if name in REGISTRY:
            raise ValueError("rule %r already registered" % (name,))
        REGISTRY[name] = Rule(name, func, severity, paths, exempt,
                              (func.__doc__ or "").strip())
        return func
    return decorator


def load_baseline(path):
    """Grandfathered finding keys -> allowed occurrence count.

    Baseline keys are line-insensitive digests of (rule, path, message),
    so N identical findings in one file share one key.  Version 2
    baselines store ``{key: count}`` and pin the count: the N+1th
    duplicate is reported.  Version 1 baselines stored a flat key list;
    each entry is read as count 1.
    """
    if not path or not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    entries = data.get("findings", [])
    if isinstance(entries, dict):
        return {key: int(count) for key, count in entries.items()}
    return {key: 1 for key in entries}


def save_baseline(path, findings):
    """Write the current findings as the new (count-aware) baseline."""
    counts = {}
    for finding in findings:
        key = finding.key()
        counts[key] = counts.get(key, 0) + 1
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"version": 2,
                   "findings": {key: counts[key] for key in sorted(counts)}},
                  handle, indent=2)
        handle.write("\n")


def iter_source_files(repo_root, scan_paths):
    """Yield (abs, rel) for every .py under the scan paths."""
    seen = set()
    for scan in scan_paths:
        abs_scan = os.path.join(repo_root, scan)
        if os.path.isfile(abs_scan):
            candidates = [abs_scan]
        else:
            candidates = []
            for dirpath, _dirnames, filenames in os.walk(abs_scan):
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        candidates.append(os.path.join(dirpath, name))
        for abs_path in candidates:
            rel = os.path.relpath(abs_path, repo_root)
            if rel not in seen:
                seen.add(rel)
                yield abs_path, rel


class Report:
    """The outcome of one lint run."""

    def __init__(self, findings, suppressed, baselined, files_checked,
                 rules_run):
        self.findings = findings      # neither pragma- nor baseline-hidden
        self.suppressed = suppressed  # hidden by a line pragma
        self.baselined = baselined    # hidden by the committed baseline
        self.files_checked = files_checked
        self.rules_run = rules_run

    @property
    def errors(self):
        return [f for f in self.findings if f.severity == "error"]

    @property
    def exit_code(self):
        return 1 if self.errors else 0

    def to_json(self):
        return json.dumps({
            "version": 1,
            "files_checked": self.files_checked,
            "rules": sorted(self.rules_run),
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": len(self.suppressed),
            "baselined": len(self.baselined),
            "errors": len(self.errors),
        }, indent=2)

    def to_text(self):
        out = [f.render() for f in self.findings]
        out.append("reprolint: %d file(s), %d rule(s): %d finding(s) "
                   "(%d error), %d pragma-suppressed, %d baselined"
                   % (self.files_checked, len(self.rules_run),
                      len(self.findings), len(self.errors),
                      len(self.suppressed), len(self.baselined)))
        return "\n".join(out)


def _scan_file(source_file, rule_names):
    """Run rules over one parsed file.

    Returns ``(open_findings, suppressed)``; baseline classification
    happens in the parent so the count-aware baseline decrements in one
    deterministic canonical order regardless of ``--jobs`` scheduling.
    """
    open_findings, suppressed = [], []
    for name in rule_names:
        for finding in REGISTRY[name].run(source_file):
            if source_file.disabled_on(finding.line, finding.rule):
                suppressed.append(finding)
            else:
                open_findings.append(finding)
    return open_findings, suppressed


def _scan_file_worker(task):
    """Parse one file and scan it; also the ``--jobs`` child-process entry.

    Under the ``fork`` start method the child inherits the parent's
    REGISTRY; under ``spawn`` the import below re-registers the built-in
    rules (dynamically registered rules need ``fork`` to be visible).
    """
    repo_root, rel_path, rule_names = task
    if not REGISTRY:
        from tools import reprolint  # noqa: F401
    source_file = SourceFile(os.path.join(repo_root, rel_path), rel_path)
    return _scan_file(source_file, rule_names)


def run(repo_root=REPO_ROOT, scan_paths=(DEFAULT_SCAN_ROOT,),
        rule_names=None, baseline_path=DEFAULT_BASELINE, jobs=1,
        min_severity=None):
    """Run the selected rules over the tree; returns a :class:`Report`.

    ``jobs`` > 1 fans the per-file AST work out over a process pool;
    output is identical to a serial run because files are dispatched in
    sorted order, ``Pool.map`` preserves input order, and the baseline
    is applied in the parent after a canonical sort.  ``min_severity``
    keeps only rules at least that severe ("error" drops warning rules).
    """
    if rule_names is None:
        rules = list(REGISTRY.values())
    else:
        unknown = [n for n in rule_names if n not in REGISTRY]
        if unknown:
            raise KeyError("unknown rule(s): %s" % ", ".join(sorted(unknown)))
        rules = [REGISTRY[n] for n in rule_names]
    if min_severity is not None:
        if min_severity not in SEVERITIES:
            raise KeyError("unknown severity: %s" % min_severity)
        threshold = SEVERITIES.index(min_severity)
        rules = [r for r in rules if SEVERITIES.index(r.severity) <= threshold]

    tasks = []
    for _abs_path, rel_path in iter_source_files(repo_root, scan_paths):
        rel_posix = rel_path.replace(os.sep, "/")
        names = tuple(r.name for r in rules if r.applies_to(rel_posix))
        if names:
            tasks.append((repo_root, rel_path, names))

    open_findings, suppressed = [], []
    if jobs > 1 and tasks:
        import multiprocessing
        with multiprocessing.Pool(processes=jobs) as pool:
            results = pool.map(_scan_file_worker, tasks)
    else:
        results = [_scan_file_worker(task) for task in tasks]
    for file_findings, file_suppressed in results:
        open_findings.extend(file_findings)
        suppressed.extend(file_suppressed)

    # Canonical order *before* the baseline decrements its counts, so
    # which duplicate gets reported never depends on scan scheduling.
    open_findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    remaining = load_baseline(baseline_path)
    findings, baselined = [], []
    for finding in open_findings:
        key = finding.key()
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            baselined.append(finding)
        else:
            findings.append(finding)
    return Report(findings, suppressed, baselined, len(tasks),
                  {r.name for r in rules})
