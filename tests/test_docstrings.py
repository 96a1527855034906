"""Documentation enforcement: every public item carries a docstring, the
README states what the code has, and ``repro.params`` holds no constant
that nothing reads."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import sys

import repro

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO not in sys.path:
    sys.path.insert(0, REPO)

from tools.reprolint import REGISTRY  # noqa: E402

SKIP_MODULES = {"repro.experiments.__main__"}

NUMBER_WORDS = ("zero one two three four five six seven eight nine ten "
                "eleven twelve thirteen fourteen fifteen sixteen seventeen "
                "eighteen nineteen twenty").split()


def _public_modules():
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in SKIP_MODULES:
            continue
        modules.append(importlib.import_module(info.name))
    return modules


def test_every_module_has_a_docstring():
    missing = [m.__name__ for m in _public_modules() if not m.__doc__]
    assert not missing, "modules without docstrings: %s" % missing


def test_every_public_class_and_function_documented():
    missing = []
    for module in _public_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    missing.append("%s.%s" % (module.__name__, name))
    assert not missing, "undocumented public items: %s" % missing


def test_every_public_method_documented():
    missing = []
    for module in _public_modules():
        for cls_name, cls in vars(module).items():
            if cls_name.startswith("_") or not inspect.isclass(cls):
                continue
            if cls.__module__ != module.__name__:
                continue
            for meth_name, meth in vars(cls).items():
                if meth_name.startswith("_"):
                    continue
                if not (inspect.isfunction(meth)
                        or isinstance(meth, (staticmethod, classmethod,
                                             property))):
                    continue
                target = meth.fget if isinstance(meth, property) else meth
                if isinstance(target, (staticmethod, classmethod)):
                    target = target.__func__
                if not inspect.getdoc(target):
                    missing.append("%s.%s.%s"
                                   % (module.__name__, cls_name, meth_name))
    assert not missing, "undocumented public methods: %s" % missing


def _read(name):
    with open(os.path.join(REPO, name), encoding="utf-8") as fh:
        return fh.read()


def _readme():
    return _read("README.md")


def _section(text, heading):
    """The body of the ``## `` section whose heading starts ``heading``."""
    start = text.index("\n## " + heading)
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def _packages():
    """Every package directly under ``src/repro``."""
    return {info.name for info in pkgutil.iter_modules(repro.__path__)
            if info.ispkg}


def test_readme_architecture_names_every_package():
    block = _section(_readme(), "Architecture\n")
    named = set(re.findall(r"^repro\.(\w+)", block, re.M))
    assert named == _packages()


def test_design_inventory_names_every_package():
    block = _section(_read("DESIGN.md"), "2. System inventory")
    named = set(re.findall(r"^\|[^|]*\| `repro\.(\w+)", block, re.M))
    assert named == _packages()


def test_design_layout_names_every_package():
    block = _section(_read("DESIGN.md"), "5. Layout")
    named = set(re.findall(r"^  (\w+)/", block, re.M))
    assert named == _packages()


def test_package_docstring_names_every_package():
    named = set(re.findall(r":mod:`repro\.(\w+)`", repro.__doc__))
    assert named == _packages()


def test_readme_example_bullets_name_every_example():
    bullets = re.findall(r"^\* `examples/(\w+\.py)`", _readme(), re.M)
    examples = [name for name in os.listdir(os.path.join(REPO, "examples"))
                if name.endswith(".py")]
    assert sorted(bullets) == sorted(examples)


def test_readme_reprolint_rule_count():
    match = re.search(r"static-analysis pass: (\w+) per-file", _readme())
    assert match is not None
    assert NUMBER_WORDS.index(match.group(1)) == len(REGISTRY)


def test_readme_names_every_experiment():
    from repro.experiments.__main__ import _registry
    match = re.search(r"^# experiments: (.+)$", _readme(), re.M)
    assert match is not None
    assert match.group(1).split() == list(_registry(False))


def _names_read(tree):
    """Every name ``tree`` reads: bare names, attributes (``params.X``)
    and from-imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_params_constant_is_read():
    """A constant of ``repro/params.py`` must be read by another module
    of ``src/repro`` or by another constant's definition."""
    root = os.path.dirname(repro.__file__)
    params_path = os.path.join(root, "params.py")
    with open(params_path, encoding="utf-8") as fh:
        params_tree = ast.parse(fh.read())
    constants = {}
    for node in params_tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    constants[target.id] = node
    read = set()
    for name, node in constants.items():
        read |= _names_read(node.value) - {name}
    for dirpath, _, filenames in os.walk(root):
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            if filename.endswith(".py") and path != params_path:
                with open(path, encoding="utf-8") as fh:
                    read |= _names_read(ast.parse(fh.read()))
    unread = sorted(set(constants) - read)
    assert not unread, "params constants nothing reads: %s" % unread
