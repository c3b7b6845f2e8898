import ast

from mutants import MUTANTS, ROOT


def test_every_mutant_applies_and_names_defined_tests():
    """A change to ``src/`` that orphans a mutant of ``mutants.py`` fails
    here, without running it: each old text occurs exactly once in its
    file, and each named test is a function of its test file."""
    defined = {}
    for m in MUTANTS:
        assert m.old != m.new and (ROOT / "src" / m.path).read_text(encoding="utf-8").count(m.old) == 1, m.name
        for test in m.tests:
            file, name = test.split("::")
            if file not in defined:
                tree = ast.parse((ROOT / "tests" / file).read_text(encoding="utf-8"))
                defined[file] = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
            assert name.split("[")[0] in defined[file], (m.name, test)
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 25
