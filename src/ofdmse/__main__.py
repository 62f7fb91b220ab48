"""``python -m ofdmse``: the same command line as the ``ofdmse`` script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
