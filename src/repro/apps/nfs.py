"""An NFS-like replicated file service.

The paper's macro-benchmark replicates an NFS server behind the BFT protocol
and runs the (modified) Andrew benchmark against it.  This module provides an
in-memory file service exposing the NFS operations that benchmark exercises
-- lookup, getattr, create, mkdir, read, write, remove, rmdir, readdir,
rename -- behind the same replication interface as every other application.

NFS is the paper's canonical example of application nondeterminism: real
servers pick arbitrary file handles and set last-access/modify timestamps
from their local clocks, which would make replicas diverge.  Following
Section 3.1.4, all such values are derived deterministically from the
nondeterminism inputs chosen obliviously by the agreement cluster, through
the :class:`~repro.statemachine.nondet.AbstractionLayer`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import StateMachineError
from ..statemachine.interface import Operation, OperationResult, StateMachine
from ..statemachine.nondet import AbstractionLayer, NonDetInput


class NfsError(StateMachineError):
    """An NFS operation failed (missing file, wrong type, already exists...)."""


# --------------------------------------------------------------------- #
# Operation constructors (the client-side API).
# --------------------------------------------------------------------- #

def nfs_lookup(path: str) -> Operation:
    """Resolve ``path`` to a file handle and attributes."""
    return Operation(kind="lookup", args={"path": path}, body_size=64)


def nfs_getattr(path: str) -> Operation:
    """Read the attributes of ``path``."""
    return Operation(kind="getattr", args={"path": path}, body_size=64)


def nfs_mkdir(path: str) -> Operation:
    """Create the directory ``path`` (parent must exist)."""
    return Operation(kind="mkdir", args={"path": path}, body_size=80)


def nfs_create(path: str) -> Operation:
    """Create an empty regular file at ``path``."""
    return Operation(kind="create", args={"path": path}, body_size=80)


def nfs_write(path: str, offset: int, data_size: int, data: str = "") -> Operation:
    """Write ``data`` (modelled as ``data_size`` bytes) at ``offset``."""
    return Operation(kind="write",
                     args={"path": path, "offset": offset,
                           "size": data_size, "data": data},
                     body_size=96 + data_size)


def nfs_read(path: str, offset: int = 0, size: int = 4096) -> Operation:
    """Read up to ``size`` bytes at ``offset``."""
    return Operation(kind="read", args={"path": path, "offset": offset, "size": size},
                     body_size=80, reply_size=size)


def nfs_readdir(path: str) -> Operation:
    """List the entries of directory ``path``."""
    return Operation(kind="readdir", args={"path": path}, body_size=64)


def nfs_remove(path: str) -> Operation:
    """Remove the regular file at ``path``."""
    return Operation(kind="remove", args={"path": path}, body_size=64)


def nfs_rmdir(path: str) -> Operation:
    """Remove the (empty) directory at ``path``."""
    return Operation(kind="rmdir", args={"path": path}, body_size=64)


def nfs_rename(source: str, destination: str) -> Operation:
    """Rename ``source`` to ``destination``."""
    return Operation(kind="rename", args={"source": source, "destination": destination},
                     body_size=128)


# --------------------------------------------------------------------- #
# The file service.
# --------------------------------------------------------------------- #

@dataclass
class _Inode:
    """One file or directory."""

    handle: str
    is_dir: bool
    size: int = 0
    data_len: int = 0
    content: str = ""
    mtime_ms: float = 0.0
    atime_ms: float = 0.0
    children: Dict[str, str] = field(default_factory=dict)  # name -> path (dirs only)

    def attributes(self) -> Dict[str, Any]:
        return {
            "handle": self.handle,
            "type": "dir" if self.is_dir else "file",
            "size": self.size,
            "mtime_ms": self.mtime_ms,
            "atime_ms": self.atime_ms,
        }


def _normalize(path: str) -> str:
    if not path.startswith("/"):
        path = "/" + path
    while "//" in path:
        path = path.replace("//", "/")
    if len(path) > 1 and path.endswith("/"):
        path = path[:-1]
    return path


def _parent(path: str) -> Tuple[str, str]:
    path = _normalize(path)
    if path == "/":
        raise NfsError("the root directory has no parent")
    parent, _, name = path.rpartition("/")
    return (parent or "/", name)


class NfsService(StateMachine):
    """Deterministic in-memory NFS-like file service."""

    def __init__(self) -> None:
        self._files: Dict[str, _Inode] = {}
        self.operations_applied = 0
        self._files["/"] = _Inode(handle="root", is_dir=True)

    # ------------------------------------------------------------------ #
    # StateMachine interface.
    # ------------------------------------------------------------------ #

    def execute(self, operation: Operation, nondet: NonDetInput) -> OperationResult:
        abstraction = AbstractionLayer(nondet)
        self.operations_applied += 1
        handler = getattr(self, f"_op_{operation.kind}", None)
        if handler is None:
            return OperationResult(value=None, error=f"unknown operation {operation.kind}")
        # Workloads may attach modelled compute time (e.g. the Andrew
        # benchmark's compile phase) to any operation.
        processing_ms = float(operation.args.get("processing_ms", 0.0))
        try:
            value, size = handler(operation.args, abstraction)
        except NfsError as exc:
            return OperationResult(value={"error": str(exc)}, size=32, error=str(exc),
                                   processing_ms=processing_ms)
        return OperationResult(value=value, size=size, processing_ms=processing_ms)

    def checkpoint(self) -> bytes:
        serial = {
            path: {
                "handle": inode.handle, "is_dir": inode.is_dir, "size": inode.size,
                "data_len": inode.data_len, "content": inode.content,
                "mtime_ms": inode.mtime_ms, "atime_ms": inode.atime_ms,
                "children": inode.children,
            }
            for path, inode in self._files.items()
        }
        return json.dumps({"files": serial, "ops": self.operations_applied},
                          sort_keys=True).encode()

    def restore(self, data: bytes) -> None:
        state = json.loads(data.decode())
        self._files = {
            path: _Inode(handle=entry["handle"], is_dir=entry["is_dir"],
                         size=entry["size"], data_len=entry["data_len"],
                         content=entry["content"], mtime_ms=entry["mtime_ms"],
                         atime_ms=entry["atime_ms"], children=dict(entry["children"]))
            for path, entry in state["files"].items()
        }
        self.operations_applied = state["ops"]

    def reset(self) -> None:
        self._files = {"/": _Inode(handle="root", is_dir=True)}
        self.operations_applied = 0

    # ------------------------------------------------------------------ #
    # Internal helpers.
    # ------------------------------------------------------------------ #

    def _require(self, path: str, want_dir: Optional[bool] = None) -> _Inode:
        path = _normalize(path)
        inode = self._files.get(path)
        if inode is None:
            raise NfsError(f"no such file or directory: {path}")
        if want_dir is True and not inode.is_dir:
            raise NfsError(f"not a directory: {path}")
        if want_dir is False and inode.is_dir:
            raise NfsError(f"is a directory: {path}")
        return inode

    def _create_node(self, path: str, is_dir: bool,
                     abstraction: AbstractionLayer) -> _Inode:
        path = _normalize(path)
        if path in self._files:
            raise NfsError(f"already exists: {path}")
        parent_path, name = _parent(path)
        parent = self._require(parent_path, want_dir=True)
        # The file handle and timestamps are the nondeterministic values a
        # real NFS server would pick arbitrarily; here they are derived
        # deterministically from the agreed nondeterminism inputs.
        inode = _Inode(handle=abstraction.derive_handle(f"handle:{path}"),
                       is_dir=is_dir,
                       mtime_ms=abstraction.timestamp(),
                       atime_ms=abstraction.timestamp())
        self._files[path] = inode
        parent.children[name] = path
        parent.mtime_ms = abstraction.timestamp()
        return inode

    # ------------------------------------------------------------------ #
    # Operation handlers (each returns (value, reply_size)).
    # ------------------------------------------------------------------ #

    def _op_lookup(self, args: Dict[str, Any],
                   abstraction: AbstractionLayer) -> Tuple[Any, int]:
        inode = self._require(args["path"])
        return ({"attributes": inode.attributes()}, 96)

    def _op_getattr(self, args: Dict[str, Any],
                    abstraction: AbstractionLayer) -> Tuple[Any, int]:
        inode = self._require(args["path"])
        return ({"attributes": inode.attributes()}, 96)

    def _op_mkdir(self, args: Dict[str, Any],
                  abstraction: AbstractionLayer) -> Tuple[Any, int]:
        inode = self._create_node(args["path"], is_dir=True, abstraction=abstraction)
        return ({"attributes": inode.attributes()}, 96)

    def _op_create(self, args: Dict[str, Any],
                   abstraction: AbstractionLayer) -> Tuple[Any, int]:
        inode = self._create_node(args["path"], is_dir=False, abstraction=abstraction)
        return ({"attributes": inode.attributes()}, 96)

    def _op_write(self, args: Dict[str, Any],
                  abstraction: AbstractionLayer) -> Tuple[Any, int]:
        path = _normalize(args["path"])
        if path not in self._files:
            self._create_node(path, is_dir=False, abstraction=abstraction)
        inode = self._require(path, want_dir=False)
        offset = int(args.get("offset", 0))
        size = int(args.get("size", len(args.get("data", ""))))
        data = args.get("data", "")
        if data:
            # Store a bounded amount of real content so reads can verify it.
            inode.content = (inode.content[:offset] + data)[:4096]
        inode.data_len = max(inode.data_len, offset + size)
        inode.size = inode.data_len
        inode.mtime_ms = abstraction.timestamp()
        return ({"written": size, "size": inode.size}, 32)

    def _op_read(self, args: Dict[str, Any],
                 abstraction: AbstractionLayer) -> Tuple[Any, int]:
        inode = self._require(args["path"], want_dir=False)
        offset = int(args.get("offset", 0))
        size = int(args.get("size", 4096))
        available = max(0, inode.data_len - offset)
        returned = min(size, available)
        data = inode.content[offset:offset + returned]
        inode.atime_ms = abstraction.timestamp()
        return ({"data": data, "bytes": returned, "eof": offset + returned >= inode.data_len},
                32 + returned)

    def _op_readdir(self, args: Dict[str, Any],
                    abstraction: AbstractionLayer) -> Tuple[Any, int]:
        inode = self._require(args["path"], want_dir=True)
        names = sorted(inode.children)
        inode.atime_ms = abstraction.timestamp()
        return ({"entries": names}, 32 + 16 * len(names))

    def _op_remove(self, args: Dict[str, Any],
                   abstraction: AbstractionLayer) -> Tuple[Any, int]:
        path = _normalize(args["path"])
        self._require(path, want_dir=False)
        parent_path, name = _parent(path)
        parent = self._require(parent_path, want_dir=True)
        del self._files[path]
        parent.children.pop(name, None)
        parent.mtime_ms = abstraction.timestamp()
        return ({"removed": True}, 16)

    def _op_rmdir(self, args: Dict[str, Any],
                  abstraction: AbstractionLayer) -> Tuple[Any, int]:
        path = _normalize(args["path"])
        inode = self._require(path, want_dir=True)
        if inode.children:
            raise NfsError(f"directory not empty: {path}")
        if path == "/":
            raise NfsError("cannot remove the root directory")
        parent_path, name = _parent(path)
        parent = self._require(parent_path, want_dir=True)
        del self._files[path]
        parent.children.pop(name, None)
        parent.mtime_ms = abstraction.timestamp()
        return ({"removed": True}, 16)

    def _op_rename(self, args: Dict[str, Any],
                   abstraction: AbstractionLayer) -> Tuple[Any, int]:
        source = _normalize(args["source"])
        destination = _normalize(args["destination"])
        inode = self._require(source)
        if destination in self._files:
            raise NfsError(f"already exists: {destination}")
        src_parent_path, src_name = _parent(source)
        dst_parent_path, dst_name = _parent(destination)
        src_parent = self._require(src_parent_path, want_dir=True)
        dst_parent = self._require(dst_parent_path, want_dir=True)
        # Move the inode and every descendant path under the new prefix.
        moved = {path: node for path, node in self._files.items()
                 if path == source or path.startswith(source + "/")}
        for path, node in moved.items():
            del self._files[path]
        for path, node in moved.items():
            new_path = destination + path[len(source):]
            self._files[new_path] = node
            if node.is_dir:
                node.children = {
                    name: destination + child[len(source):]
                    for name, child in node.children.items()
                }
        src_parent.children.pop(src_name, None)
        dst_parent.children[dst_name] = destination
        src_parent.mtime_ms = abstraction.timestamp()
        dst_parent.mtime_ms = abstraction.timestamp()
        return ({"renamed": True}, 16)

    # ------------------------------------------------------------------ #
    # Inspection helpers (tests only).
    # ------------------------------------------------------------------ #

    def exists(self, path: str) -> bool:
        return _normalize(path) in self._files

    def tree(self) -> List[str]:
        return sorted(self._files)
