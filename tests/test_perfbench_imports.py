"""Guard for the flowcomp names the benchmark imports.

`perfbench/*.py` import names that nothing under `src/` calls, such as
`format_machine` and `trajectory`, so from inside the package they look
unused.  Every flowcomp import in those files is read with `ast` (the files
are read, never written) and must resolve, so deleting such a name fails
here instead of in a benchmark run.
"""

import ast
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def flowcomp_imports():
    """(file, module, name) of each flowcomp import in perfbench; name is None
    for a plain `import flowcomp.x`."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("flowcomp"):
                out += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                out += [(path.name, a.name, None) for a in node.names
                        if a.name.startswith("flowcomp")]
    return out


def test_every_flowcomp_name_perfbench_imports_resolves():
    imports = flowcomp_imports()
    names = {name for _, _, name in imports}
    assert {"format_machine", "Halted", "enumerate_inputs", "run", "trajectory"} <= names
    for fname, module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            found = hasattr(mod, name) or importlib.util.find_spec(f"{module}.{name}")
            assert found, (fname, module, name)
