"""Architectural gates: write funnelling and import layering.

Three invariants the refactor promised:

* no module outside ``repro.store`` opens an artifact path for
  writing — every persisted byte goes through the store's atomic
  protocol;
* ``repro.store`` sits below the rest of the library: importing it
  must not drag ``repro.io``/``analysis``/``monitor``/``telemetry`` in;
* no module imports the legacy checkpoint readers
  (``repro.store.legacy``) at module scope.
"""

import ast
import os
import re

import repro

SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

#: open() with a write/append mode, however the arguments are spelled.
WRITE_OPEN_RE = re.compile(r"""\bopen\([^)]*["'](?:w|a|wb|ab|w\+|a\+|r\+)["']""")


def test_only_the_store_opens_files_for_writing():
    offenders = []
    for dirpath, _dirs, files in os.walk(SRC_ROOT):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            relative = os.path.relpath(path, SRC_ROOT)
            if relative.startswith("store" + os.sep):
                continue
            with open(path, encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, start=1):
                    if WRITE_OPEN_RE.search(line):
                        offenders.append(f"{relative}:{line_number}: {line.strip()}")
    assert not offenders, (
        "artifact writes must go through repro.store.ArtifactStore:\n"
        + "\n".join(offenders)
    )


UPPER_LAYERS = (
    "repro.io",
    "repro.analysis",
    "repro.monitor",
    "repro.telemetry",
    "repro.exec",
    "repro.sram",
    "repro.core",
)


def _module_level_imports(path):
    """Module names imported at module scope (function bodies excluded)."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
    return names


def test_store_has_no_module_level_upper_layer_imports():
    store_dir = os.path.join(SRC_ROOT, "store")
    offenders = []
    for filename in sorted(os.listdir(store_dir)):
        if not filename.endswith(".py"):
            continue
        path = os.path.join(store_dir, filename)
        for module in _module_level_imports(path):
            if module.startswith(UPPER_LAYERS):
                offenders.append(f"store/{filename} imports {module}")
    assert not offenders, (
        "repro.store must sit below the rest of the library; "
        "lazy-import inside functions instead:\n" + "\n".join(offenders)
    )


def test_no_module_imports_the_legacy_readers_at_module_scope():
    """Legacy campaign-scoped readers load only when a legacy file is read."""
    offenders = []
    for dirpath, _dirs, files in os.walk(SRC_ROOT):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for node in tree.body:
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                if "repro.store.legacy" in names:
                    offenders.append(os.path.relpath(path, SRC_ROOT))
    assert not offenders, f"module-scope imports of repro.store.legacy: {offenders}"
