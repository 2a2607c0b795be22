"""Every name the package defines is used by the package or the benchmark.

A tripwire for helpers that only tests call: it collects each function,
class and method defined under ``src/mmbattn`` (dunders excluded) and
looks for a reference to it anywhere in ``src/mmbattn`` or ``perfbench/``,
as a name, an attribute, an import alias or a string constant. The
package's ``__init__.py`` only re-exports, so it is not searched.

It is a tripwire, not a proof. References are matched by name alone, so a
helper that shares its name with something else in use (say a method
``encode`` beside ``str.encode(`` or ``decode`` beside ``bytes.decode(``)
still counts as used.

A second check lists the names that only ``perfbench/`` references, so
that what the package keeps just for the benchmark is written down. A
third records that the package runs on the caller's thread (BLAS threads
aside): no module imports a thread or process pool. A fourth keeps one
error class per kind of input: ``errors.py`` defines ``MMBAttnError`` and
its five subclasses, no other module defines an exception, and every
package error raised names one of the five. A fifth lists the attributes
that only ``perfbench/`` reads.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mmbattn"

# Kept although only tests call them, each for the reason given.
ORACLES = {
    "index_of": "per-cell vocabulary lookup that encode_rows must match",
    "bce_loss": "graph-level BCE on probabilities, the oracle for bce_with_logits",
    "param_count": "closed-form attention parameter count, checked against the registry",
    "field_weights": "the paper's per-field importance readout, read by the planted "
                     "recovery check",
}

# Kept although only the benchmark calls them, each for the reason given;
# the next change to perfbench/ that stops calling one deletes it here and
# in the package.
BENCHMARK_ONLY = {
    "eval_thread_count": "perfbench/run.py passes it to train and evaluate; "
                         "it always returns 1",
}

# Attributes the package keeps but never reads, for the same reason.
BENCHMARK_ONLY_ATTRIBUTES = {
    "requires_grad": "perfbench/tracing.py counts matmul FLOPs by it; Tensor keeps "
                     "it as a constant True, since a recording graph differentiates "
                     "every tensor it touches",
}


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            if path.name != "__init__.py":
                yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _defined():
    out = {}
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    out.setdefault(name, f"{path.relative_to(ROOT)}:{node.lineno}")
    return out


def _referenced(*dirs):
    out = set()
    for _, tree in _trees(*dirs):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.update(part for part in (node.name, node.asname) if part)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def test_only_the_kept_oracles_go_unused():
    used = _referenced(PACKAGE, ROOT / "perfbench")
    unused = {name: where for name, where in _defined().items() if name not in used}
    extra = {name: where for name, where in unused.items() if name not in ORACLES}
    assert not extra, f"defined but used only by tests (or not at all): {extra}"
    # an oracle that was deleted, or that the package now calls, leaves the list
    assert set(unused) == set(ORACLES)


def test_only_the_listed_names_are_kept_for_the_benchmark():
    by_package = _referenced(PACKAGE)
    by_bench = _referenced(ROOT / "perfbench")
    bench_only = {name for name in _defined()
                  if name in by_bench and name not in by_package}
    assert bench_only == set(BENCHMARK_ONLY)


def _attributes_read(*dirs):
    return {node.attr for _, tree in _trees(*dirs) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_listed_attributes_are_read_by_the_benchmark_alone():
    by_package = _attributes_read(PACKAGE)
    by_bench = _attributes_read(ROOT / "perfbench")
    for name in BENCHMARK_ONLY_ATTRIBUTES:
        assert name not in by_package and name in by_bench, name


def test_no_module_starts_threads_or_processes():
    banned = ("concurrent", "threading", "multiprocessing")
    found = []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] in banned]
    assert not found, f"the package runs on the caller's thread: {found}"


ERROR_CLASSES = {"ConfigError", "DataError", "CheckpointError", "ContractError",
                 "TrainingError"}


def _name(node):
    """The last dotted part of a Name or Attribute, else None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def test_one_error_class_per_kind_of_input():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name: [_name(b) for b in node.bases]
               for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == {"MMBAttnError": ["Exception"],
                       **{name: ["MMBAttnError"] for name in ERROR_CLASSES}}
    found = []
    for path, tree in _trees(PACKAGE):
        if path.name == "errors.py":  # its context managers raise the class given
            continue
        for node in ast.walk(tree):
            where = f"{path.relative_to(ROOT)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ClassDef):
                bases = [_name(b) or "" for b in node.bases]
                found += [f"{where}: class {node.name}({b})" for b in bases
                          if b.endswith(("Error", "Exception"))]
            elif isinstance(node, ast.Raise) and node.exc is not None:
                name = _name(node.exc)
                if name not in ERROR_CLASSES and not hasattr(builtins, name or ""):
                    found.append(f"{where}: raise {name}")
            elif isinstance(node, ast.Call) and _name(node) == "reading":
                name = _name(node.args[1])
                if name not in ERROR_CLASSES:
                    found.append(f"{where}: reading(..., {name})")
    assert not found, f"raise or define only the five error classes: {found}"
