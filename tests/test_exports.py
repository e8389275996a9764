"""The package's public names: ``__all__`` lists exactly what ``__init__``
imports, and every listed name resolves."""

import ast
from pathlib import Path

import compound_deviations


def imported_names():
    """Names bound by the import statements of the package's ``__init__``."""
    tree = ast.parse(Path(compound_deviations.__file__).read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def test_all_lists_exactly_the_imported_names():
    exported = compound_deviations.__all__
    assert len(set(exported)) == len(exported)
    assert set(exported) == set(imported_names())


def test_every_exported_name_resolves():
    for name in compound_deviations.__all__:
        assert getattr(compound_deviations, name, None) is not None, name
