"""Module layering: only ``identities`` knows the layout of its tables."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sympelem"


def _reads_of_identities(tree):
    """(line, name) of every name another module imports from
    ``identities`` or reads off it as an attribute."""
    aliases, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for alias in node.names:
                if module.split(".")[-1] == "identities":
                    reads.append((node.lineno, alias.name))
                elif alias.name == "identities":
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[-1] == "identities":
                    aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            reads.append((node.lineno, node.attr))
    return reads


def test_no_module_reads_a_private_name_of_identities():
    private = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "identities.py":
            continue
        reads = _reads_of_identities(ast.parse(path.read_text(), str(path)))
        private += [f"{path.name}:{line}: {name}" for line, name in reads if name.startswith("_")]
    assert private == []


def test_localglobal_reads_no_table_layout():
    # positions come from the atoms the builders return, not from the tags
    reads = _reads_of_identities(ast.parse((SRC / "localglobal.py").read_text()))
    assert {"tag_pos", "unit_rel"}.isdisjoint(name for _, name in reads)
    assert {"bracket_atoms", "unit_commutator_word", "composite_pieces",
            "bracket_unit"} <= {name for _, name in reads}


def test_localglobal_compares_words_only():
    # every check of the local-global layer compares words: it evaluates
    # no word to a matrix and imports neither dense matrices nor the dense
    # symplectic constructions
    tree = ast.parse((SRC / "localglobal.py").read_text())
    evals = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "eval"]
    dense = {"matrices", "symplectic"}
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[-1]] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name.split(".")[-1] for alias in node.names]
        else:
            continue
        imports += [(node.lineno, name) for name in names if name in dense]
    assert evals == [] and imports == []
