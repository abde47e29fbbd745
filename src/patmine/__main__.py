"""``python -m patmine``: the same command line as the ``patmine`` script."""

from .cli import main

raise SystemExit(main())
