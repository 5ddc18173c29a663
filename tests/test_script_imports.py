"""Every name the benchmark, the demos and the README take from synthbrain resolves.

``perfbench/``, ``demos/`` and the README's ```` ```python ```` blocks are code
outside the package, so a name the library drops breaks them only when they
run. This reads each script's (and each block's)
synthbrain imports (``from synthbrain import paint``, ``import synthbrain as
sb``, ``from synthbrain.cli import main``) and the attributes it takes from
what they bind (``sb.paint``, ``corruption.sample_corruption_record``), and
resolves each one against the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("demos/*.py")])
README = ROOT / "README.md"


def _taken(tree: ast.Module) -> dict[str, int]:
    """Dotted name -> first line of each name a module takes from synthbrain:
    what it imports, and each attribute chain on a name those imports bind."""
    bound, taken = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "synthbrain":
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else local
                    taken.setdefault(alias.name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "synthbrain":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                taken.setdefault(f"{node.module}.{alias.name}", node.lineno)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            taken.setdefault(".".join([bound[node.id], *chain]), node.lineno)
    return taken


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names an object: attributes from the top package
    down, a submodule imported where no attribute holds it."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            try:
                obj = importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                return False
    return True


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_name_a_script_takes_from_synthbrain_resolves(path):
    taken = _taken(ast.parse(path.read_text(), filename=str(path)))
    missing = {name: line for name, line in taken.items() if not _resolves(name)}
    assert not missing, f"{path.name}: names synthbrain does not define {missing}"


def _python_blocks(markdown: str) -> list[tuple[int, str]]:
    """(first code line, code) of each ```` ```python ```` block of a Markdown text."""
    blocks, start = [], None
    lines = markdown.splitlines()
    for i, line in enumerate(lines, start=1):
        if start is None and line.strip() == "```python":
            start = i + 1
        elif start is not None and line.strip() == "```":
            blocks.append((start, "\n".join(lines[start - 1:i - 1])))
            start = None
    return blocks


def test_every_name_the_readme_takes_from_synthbrain_resolves():
    blocks = _python_blocks(README.read_text())
    assert blocks, "README.md has no python block"
    missing = {}
    for start, code in blocks:
        taken = _taken(ast.parse(code, filename=f"README.md:{start}"))
        missing.update({name: start + line - 1 for name, line in taken.items()
                        if not _resolves(name)})
    assert not missing, f"README.md: names synthbrain does not define {missing}"


def test_the_readme_blocks_are_read_whole():
    text = "```bash\nsb.gone\n```\ntext\n```python\nimport synthbrain as sb\n\nsb.gone()\n```\n"
    assert _python_blocks(text) == [(6, "import synthbrain as sb\n\nsb.gone()")]
    code = _python_blocks(text)[0][1]
    assert _taken(ast.parse(code)) == {"synthbrain": 1, "synthbrain.gone": 3}


def test_the_check_sees_a_missing_name():
    tree = ast.parse(
        "import synthbrain as sb\n"
        "from synthbrain import corruption, paint, gone_function\n"
        "from synthbrain.cli import main, gone_main\n"
        "def f(x):\n"
        "    sb.SeverityConfig.by_name('mild'); sb.gone_class(x).anything\n"
        "    corruption.sample_corruption_record; corruption.gone_helper\n"
        "    return paint(x), x.gone_but_not_synthbrain\n"
    )
    taken = _taken(tree)
    assert {"synthbrain.SeverityConfig.by_name", "synthbrain.cli.main"} <= taken.keys()
    assert {name for name in taken if not _resolves(name)} == {
        "synthbrain.gone_function", "synthbrain.cli.gone_main", "synthbrain.gone_class",
        "synthbrain.corruption.gone_helper"}
