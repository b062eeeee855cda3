"""``pytest bench``: make the checkout's ``src/`` importable."""

from bench.common import ensure_src

ensure_src()
