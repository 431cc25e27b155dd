"""Build-on-first-use loader of the native engine's C kernels.

The kernels live in ``kernels.c`` next to this file and are compiled into a
CPython extension module (``_repro_native``) with the system C compiler the
first time :func:`repro.algorithms.common.make_state` builds a state.  The
shared object is cached -- keyed by a checksum of the source and the
interpreter's ABI tag -- under the first writable of:

* ``$REPRO_NATIVE_CACHE`` (explicit override);
* ``<repo>/build/native`` (a checkout run);
* ``~/.cache/repro-native`` (installed / read-only checkouts).

so later processes (pytest workers, forked solvers, servers) just ``dlopen``
it.  Whether the kernels load is the one fact that picks the engine:
``make_state``, the one state factory, builds a ``NativeRequestState`` when
they do and the dict ``RequestState`` when :func:`load_kernels` returns
``None`` -- no compiler, no writable cache directory, or
``REPRO_NATIVE_DISABLE=1``, which forces the fallback -- printing a
one-line stderr note once per process so a silent slowdown is visible.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import zlib
from pathlib import Path
from typing import Optional

__all__ = ["load_kernels", "kernel_status", "kernel_cache_dir"]

_SOURCE = Path(__file__).with_name("kernels.c")

#: one-shot memo: ``False`` = not tried yet, ``None`` = tried and failed
_kernels: object = False
#: human-readable reason the kernels are unavailable (for ``repro doctor``)
_error: Optional[str] = None


def _candidate_cache_dirs():
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        yield Path(override)
        return
    # <repo>/build/native when running from a checkout (this file sits at
    # <repo>/src/repro/algorithms/_native/__init__.py)
    yield Path(__file__).resolve().parents[4] / "build" / "native"
    yield Path.home() / ".cache" / "repro-native"


def kernel_cache_dir() -> Optional[Path]:
    """First writable cache directory candidate (created on demand)."""
    for candidate in _candidate_cache_dirs():
        try:
            candidate.mkdir(parents=True, exist_ok=True)
            probe = candidate / f".probe-{os.getpid()}"
            probe.touch()
            probe.unlink()
        except OSError:
            continue
        return candidate
    return None


def _so_path(cache_dir: Path, source: bytes) -> Path:
    # Two checksums of the source: a content key for a local build cache,
    # without loading hashlib's OpenSSL (~3.6 MB) into every solving process.
    digest = f"{zlib.crc32(source):08x}{zlib.adler32(source):08x}"
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    tag = f"cp{sys.version_info.major}{sys.version_info.minor}"
    return cache_dir / f"_repro_native-{tag}-{digest}{suffix}"


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        for directory in os.environ.get("PATH", "").split(os.pathsep):
            if directory and os.access(os.path.join(directory, name), os.X_OK):
                return name
    return None


def _compile(so_path: Path, cc: str) -> None:
    # Imported here: a process that finds the kernels built never loads them.
    import subprocess
    import sysconfig
    import tempfile

    include = sysconfig.get_paths()["include"]
    # Compile into a private temp file, then publish atomically: concurrent
    # first-use races (pytest workers, forked pools) at worst compile twice
    # and both os.replace the same bytes.
    fd, tmp = tempfile.mkstemp(
        suffix=so_path.suffix, prefix=so_path.stem + "-", dir=str(so_path.parent)
    )
    os.close(fd)
    cmd = [
        cc,
        "-O2",
        "-fPIC",
        "-shared",
        "-fno-strict-aliasing",
        f"-I{include}",
        str(_SOURCE),
        "-o",
        tmp,
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=False
        )
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip().splitlines()
            detail = tail[-1] if tail else f"exit status {proc.returncode}"
            raise RuntimeError(f"{cc} failed: {detail}")
        os.replace(tmp, so_path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load_so(so_path: Path):
    spec = importlib.util.spec_from_file_location("_repro_native", str(so_path))
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {so_path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_kernels():
    """The compiled kernel module, or ``None`` when unavailable.

    Compiles on first call (cached across processes through the shared
    object file, and within the process through a module-level memo).
    Never raises: every failure mode records a reason retrievable via
    :func:`kernel_status` and returns ``None``.
    """
    global _kernels, _error
    if _kernels is not False:
        return _kernels
    if os.environ.get("REPRO_NATIVE_DISABLE"):
        _error = "disabled by REPRO_NATIVE_DISABLE"
        _kernels = None
        return None
    try:
        source = _SOURCE.read_bytes()
        cache_dir = kernel_cache_dir()
        if cache_dir is None:
            raise RuntimeError("no writable kernel cache directory")
        so_path = _so_path(cache_dir, source)
        if not so_path.exists():
            cc = _compiler()
            if cc is None:
                raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
            _compile(so_path, cc)
        _kernels = _load_so(so_path)
        _error = None
    except Exception as exc:  # degrade, never break the state factory
        _error = str(exc)
        _kernels = None
    return _kernels


def kernel_status() -> dict:
    """Diagnostics for ``repro doctor``: availability and why/why not."""
    module = load_kernels()
    status = {
        "available": module is not None,
        "source": str(_SOURCE),
        "cache_dir": None,
        "so_path": getattr(module, "__file__", None),
        "error": _error,
    }
    if module is None and not os.environ.get("REPRO_NATIVE_DISABLE"):
        cache = kernel_cache_dir()
        status["cache_dir"] = str(cache) if cache else None
    elif module is not None:
        status["cache_dir"] = str(Path(module.__file__).parent)
    return status


def _reset_for_tests() -> None:
    """Forget the memoised load result (tests poke env vars between calls)."""
    global _kernels, _error
    _kernels = False
    _error = None
