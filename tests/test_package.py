"""The package's public namespace and numpy call rules across its modules."""

import ast
from pathlib import Path

import tubelab


def test_every_exported_name_resolves():
    # A stale entry in __all__ breaks `from tubelab import *`.
    missing = [name for name in tubelab.__all__ if not hasattr(tubelab, name)]
    assert missing == []
    namespace = {}
    exec("from tubelab import *", namespace)
    assert set(tubelab.__all__) <= set(namespace)


#: Keywords that send `np.unique` and its set relatives down numpy's sort
#: path; without any of them numpy >= 2.3 counts distinct values through a
#: hash table, many times slower than a sort (`linegeom.sorted_distinct`).
SORT_PATH_KEYWORDS = {"return_index", "return_inverse", "return_counts", "axis"}


def test_no_hash_table_distinct_calls_in_src():
    src = Path(tubelab.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np"
                and node.func.attr in {"unique", "union1d", "setdiff1d"}
                and not SORT_PATH_KEYWORDS & {k.arg for k in node.keywords}
            ):
                found.append(f"{path.name}:{node.lineno} np.{node.func.attr}")
    assert found == []
