"""repro.libraries — backing stateful libraries: specifications and models."""

from .base import Library, merge_libraries
from .kvstore import exists_predicate, make_kvstore, stored_kind_predicate
from .setlib import make_set, member_predicate
from .graphlib import live_edge_predicate, make_graph, node_predicate
from .memcell import ever_written_predicate, make_memcell
from .filelib import (
    ROOT_PATH,
    add_child_fn,
    del_child_fn,
    file_axioms,
    file_pure_impls,
    file_pure_ops,
    init_bytes_fn,
    is_del,
    is_dir,
    is_file,
    is_root,
    make_file_helpers,
    parent_fn,
    set_deleted_fn,
)

__all__ = [
    "Library",
    "merge_libraries",
    "exists_predicate",
    "make_kvstore",
    "stored_kind_predicate",
    "make_set",
    "member_predicate",
    "live_edge_predicate",
    "make_graph",
    "node_predicate",
    "ever_written_predicate",
    "make_memcell",
    "ROOT_PATH",
    "add_child_fn",
    "del_child_fn",
    "file_axioms",
    "file_pure_impls",
    "file_pure_ops",
    "init_bytes_fn",
    "is_del",
    "is_dir",
    "is_file",
    "is_root",
    "make_file_helpers",
    "parent_fn",
    "set_deleted_fn",
]
