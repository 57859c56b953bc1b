"""Every top-level function and class in the package has a reader, or goes.

A name counts as read when it appears as a Name or an Attribute anywhere
in the package's modules outside its own definition.  An import or a
re-export in __init__.py is not a read.  The names below have no reader
yet; each waits for the ROADMAP direction named beside it.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dnscdn"
AWAITING_A_CALLER = {
    "completeness_filter": "direction 1, the one analysis fold",
    # Each of these three is its fold run over one iterable of sets; cli
    # folds runs of files with the fold classes and merges them instead.
    "build_latency_points": "direction 1, the one analysis fold",
    "hit_rate_table": "direction 1, the one analysis fold",
    "address_diversity": "direction 1, the one analysis fold",
    "ks_two_sample": "direction 3, paired penalties with significance",
    "append_records": "direction 5, measure streams its sets",
    "discover_authoritative_ttl": "direction 7, measured authoritative TTLs",
}


def _read_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unread_definitions() -> set[str]:
    defined = set()
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _read_names(statement)
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(statement.name)
                names.discard(statement.name)
            read |= names
    return defined - read


def test_every_definition_is_read_or_awaits_an_owned_caller():
    assert unread_definitions() == set(AWAITING_A_CALLER)
