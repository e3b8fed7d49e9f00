import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "actionlab"


def test_only_paths_reads_the_drifts_field():
    # a law may give its drift as a row function instead of a record, so
    # every other module reads it through PathEnsemble.drift(j), never by
    # indexing ``.drifts`` or asking its shape
    reads = []
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "paths.py":
            continue
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "drifts":
                reads.append(f"{module.name}:{node.lineno}")
    assert not reads, reads
