"""Small shared helpers."""
import os

from .errors import ConfigError


def worker_count() -> int:
    """Worker cap for internally parallel operations.

    Honors the EDGECLUST_THREADS environment variable, which must be a
    positive integer; defaults to the CPU count. Always at least 1.
    """
    cap = os.cpu_count() or 1
    env = os.environ.get("EDGECLUST_THREADS")
    if env is None:
        return cap
    try:
        threads = int(env)
        if threads < 1:
            raise ValueError
    except ValueError:
        raise ConfigError("EDGECLUST_THREADS must be a positive integer, "
                          f"got {env!r}") from None
    return min(cap, threads)
